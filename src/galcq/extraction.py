"""Fuzzy model extraction from classical tree models.

Each tree element's true Leq atoms induce a total preorder over the order
structure.  Walking the tree top-down, every equivalence class containing a
constant (or, below the root, a shifted copy whose parent value is known)
is pinned to that value; the remaining classes in each gap between
consecutive pinned classes are spaced evenly: the j-th of n anonymous
classes between values l < r gets l + j/(n+1) * (r - l).  The result is an
exact rational valuation of every element at every node, from which the
fuzzy interpretation reads off concept and role degrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import involutive_negation
from .classical_model import ClassicalInterpretation, ClassicalOntology
from .concepts import Name
from .errors import MalformedModelError, ReasonerError
from .ontology import FuzzyOntology, certification_margin
from .orders import (
    ConceptElement,
    EdgeElement,
    OrderStructure,
    ShiftedElement,
    ValueElement,
    invert,
)
from .semantics import FuzzyInterpretation, check_fuzzy_model
from .tableau import CompletionGraph, extract_classical_model


@dataclass
class ValueAssignment:
    """Per-node rational value of every order-structure element.

    The defining properties, checkable per node: constants keep their value
    (P1); the values order exactly as the Leq atoms say (P2); inversion is
    1-x (P3); shifted copies equal the parent's unshifted values (P4).
    """

    structure: OrderStructure
    tree: ClassicalInterpretation
    values: dict[tuple[int, object], Fraction]

    def check_properties(self) -> list[str]:
        """All P1-P4 violations, empty when the assignment is coherent."""
        violations = []
        elems = self.structure.elements
        for node in self.tree.domain:
            for q in self.structure.values:
                if self.values[(node, ValueElement(q))] != q:
                    violations.append(f"P1 fails at node {node} for constant {q}")
            rows = self.structure.rows(self.tree.true_atoms[node])
            for i, a in enumerate(elems):
                va = self.values[(node, a)]
                for j, b in enumerate(elems):
                    vb = self.values[(node, b)]
                    if (va <= vb) != bool(rows[i] >> j & 1):
                        violations.append(
                            f"P2 fails at node {node}: {a!r} vs {b!r}"
                        )
            for a in elems:
                if self.values[(node, invert(a))] != involutive_negation(
                    self.values[(node, a)]
                ):
                    violations.append(f"P3 fails at node {node}: {a!r}")
            parent = self.tree.parent.get(node) if self.tree.parent else None
            if parent is not None:
                for c in self.structure.subconcepts:
                    if self.values[(node, ShiftedElement(c))] != self.values[
                        (parent, ConceptElement(c))
                    ]:
                        violations.append(f"P4 fails at node {node}: {c!r}")
        return violations


def _node_preorder(structure: OrderStructure, atoms: frozenset, node: int):
    """Validate the order axioms at one node and return its sorted classes.

    Returns a list of equivalence classes (tuples of elements), ascending.
    Raises MalformedModelError, naming the family and the elements, at the
    first instance of transitivity, totality, the bounds, the constant
    order or antitonicity that `OrderStructure.broken` finds failing on the
    node's rows, the check `check_classical_model` reports from too.
    """
    elems = structure.elements
    degrees = structure.values.degrees
    rows = structure.rows(atoms)
    messages = (
        lambda i, j, k: f"transitivity fails for {elems[i]!r}, {elems[j]!r}, {elems[k]!r}",
        lambda i, j: f"totality fails for {elems[i]!r}, {elems[j]!r}",
        lambda i: f"bounds fail for {elems[i]!r}",
        lambda a, b, _: f"constant order fails for {degrees[a]} vs {degrees[b]}",
        lambda i, j: f"antitonicity fails for {elems[i]!r}, {elems[j]!r}",
    )
    for message, failing in zip(messages, structure.broken(rows)):
        if failing:
            raise MalformedModelError(node, message(*failing[0]))

    # in a total preorder a row is its class's up-set: equal rows are one
    # class, and a lower class has more bits
    classes = {}
    for i, row in enumerate(rows):
        classes.setdefault(row, []).append(elems[i])
    return [tuple(classes[row]) for row in sorted(classes, key=lambda r: -r.bit_count())]


def _pin_anchors(structure, classes, node, parent_values):
    """Value for each class that contains a constant or a shifted copy."""
    pinned = {}
    for k, cls in enumerate(classes):
        anchor_value = None
        anchor_elem = None
        for e in cls:
            if isinstance(e, ValueElement):
                v = e.value
            elif isinstance(e, ShiftedElement) and parent_values is not None:
                v = parent_values[ConceptElement(e.concept)]
            else:
                continue
            if anchor_value is None:
                anchor_value, anchor_elem = v, e
            elif anchor_value != v:
                raise MalformedModelError(
                    node,
                    f"equivalent elements {anchor_elem!r} and {e!r} carry "
                    f"different values {anchor_value} and {v}",
                )
        if anchor_value is not None:
            pinned[k] = anchor_value
    ordered = [pinned[k] for k in sorted(pinned)]
    if any(b <= a for a, b in zip(ordered, ordered[1:])):
        raise MalformedModelError(node, "pinned classes are not strictly increasing")
    return pinned


def _interpolate(classes, pinned, node):
    """Value per class: pinned classes keep their value, anonymous runs are
    spaced evenly inside the surrounding gap."""
    values = {}
    anchor_positions = sorted(pinned)
    if not anchor_positions:
        raise MalformedModelError(node, "no pinned class at all")
    if anchor_positions[0] != 0 or anchor_positions[-1] != len(classes) - 1:
        raise MalformedModelError(node, "extreme classes are not pinned")
    for pos, nxt in zip(anchor_positions, anchor_positions[1:]):
        lo, hi = pinned[pos], pinned[nxt]
        gap = nxt - pos - 1
        values[pos] = lo
        for j in range(1, gap + 1):
            values[pos + j] = lo + Fraction(j, gap + 1) * (hi - lo)
    values[anchor_positions[-1]] = pinned[anchor_positions[-1]]
    return values


def extract_fuzzy_model(
    tree: ClassicalInterpretation,
    structure: OrderStructure,
    individual: str = "a",
) -> tuple[FuzzyInterpretation, ValueAssignment]:
    """Read a fuzzy interpretation off a classical tree model.

    The tree must satisfy the order axioms at every node; violations raise
    MalformedModelError naming the node and the failed family.  Concept
    degrees come from each node's valuation, role degrees from the edge
    element's value at the child.
    """
    if tree.parent is None:
        raise ValueError("tree metadata (parent map) is required")
    values: dict[tuple[int, object], Fraction] = {}
    # the tree's elements copy the labels of a few graph nodes: each
    # distinct label is validated and sorted into classes once, at the
    # first element that carries it
    preorders: dict[frozenset, list] = {}
    order = sorted(tree.domain, key=lambda d: (tree.depth[d], d))
    for node in order:
        parent = tree.parent.get(node)
        parent_values = (
            {e: values[(parent, e)] for e in structure.elements}
            if parent is not None
            else None
        )
        atoms = tree.true_atoms[node]
        classes = preorders.get(atoms)
        if classes is None:
            classes = preorders[atoms] = _node_preorder(structure, atoms, node)
        pinned = _pin_anchors(structure, classes, node, parent_values)
        class_values = _interpolate(classes, pinned, node)
        for k, cls in enumerate(classes):
            for e in cls:
                values[(node, e)] = class_values[k]

    assignment = ValueAssignment(structure, tree, values)
    concept_values = {}
    names = [c for c in structure.subconcepts if isinstance(c, Name)]
    for node in tree.domain:
        for c in names:
            concept_values[(c.name, node)] = values[(node, ConceptElement(c))]
    role_values = {}
    for role, edges in tree.role_edges.items():
        for (u, w) in edges:
            role_values[(role, u, w)] = values[(w, EdgeElement(True))]
    interp = FuzzyInterpretation(
        domain=tuple(tree.domain),
        concept_values=concept_values,
        role_values=role_values,
        individuals={individual: tree.root},
    )
    return interp, assignment


def certify(
    ontology: FuzzyOntology,
    reduction: ClassicalOntology,
    graph: CompletionGraph,
    depth: int,
) -> tuple[FuzzyInterpretation, ValueAssignment]:
    """Unravel a clash-free completion graph of `reduction` to `depth`, read
    the fuzzy model off the tree, and check it wherever the tree is farther
    than the ontology's quantifier depth from a truncated leaf.  Raises
    ReasonerError when that excludes the root or the model fails the check.
    """
    margin = certification_margin(ontology)
    tree = extract_classical_model(graph, depth)
    elements = tree.interior(margin)
    if tree.root not in elements:
        raise ReasonerError(
            f"depth {depth} certifies nothing: it must exceed the quantifier "
            f"depth {margin}, so use {margin + 1} or more"
        )
    interp, assignment = extract_fuzzy_model(tree, reduction.order, ontology.individual)
    report = check_fuzzy_model(interp, ontology, elements=elements)
    if not report.satisfied:
        raise ReasonerError(f"extracted model failed verification: {report.violation}")
    return interp, assignment
