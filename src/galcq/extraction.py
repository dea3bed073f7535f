"""Fuzzy model extraction from classical tree models.

Each tree element's true Leq atoms induce a total preorder over the order
structure's positions.  Walking the tree top-down, every equivalence class
containing a constant (or, below the root, a shifted copy whose parent
value is known) is pinned to that value; the remaining classes in each gap
between consecutive pinned classes are spaced evenly: the j-th of n
anonymous classes between values l < r gets l + j/(n+1) * (r - l).  The
result is one row of exact rational values per tree element, by position,
from which the fuzzy interpretation reads off concept and role degrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import involutive_negation
from .classical_model import ClassicalInterpretation, ClassicalOntology
from .concepts import Name
from .errors import MalformedModelError, ReasonerError
from .ontology import FuzzyOntology, certification_margin
from .orders import EDGE, ConceptElement, OrderStructure
from .semantics import FuzzyInterpretation, check_fuzzy_model
from .tableau import CompletionGraph, extract_classical_model


@dataclass
class ValueAssignment:
    """Per-node rational value of every order-structure element.

    `values[node][p]` is the value of `structure.elements[p]` at `node`.
    The defining properties, checkable per node: constants keep their value
    (P1); the values order exactly as the Leq atoms say (P2); inversion is
    1-x (P3); shifted copies equal the parent's unshifted values (P4).
    """

    structure: OrderStructure
    tree: ClassicalInterpretation
    values: dict[int, tuple[Fraction, ...]]

    def check_properties(self) -> list[str]:
        """All P1-P4 violations, empty when the assignment is coherent: P1-P3
        checked once per distinct (atoms, row) pair, P4 once per (row, parent
        row) pair, rows by identity as `extract_fuzzy_model` shares them."""
        u = self.structure
        elems, inv, up = u.elements, u.inverse, u.up
        # (atoms, row id) and (row id, parent row id) -> [(property, detail)]
        seen: dict[tuple, list] = {}
        violations = []
        for node in self.tree.domain:
            row, atoms = self.values[node], self.tree.true_atoms[node]
            if (atoms, id(row)) not in seen:
                failures = seen[atoms, id(row)] = []
                for p, q in enumerate(u.values):
                    if row[p] != q:
                        failures.append(("P1", f" for constant {q}"))
                rows = u.rows(atoms)
                for i, vi in enumerate(row):
                    for j, vj in enumerate(row):
                        if (vi <= vj) != bool(rows[i] >> j & 1):
                            failures.append(("P2", f": {elems[i]!r} vs {elems[j]!r}"))
                for p, v in enumerate(row):
                    if row[inv[p]] != involutive_negation(v):
                        failures.append(("P3", f": {elems[p]!r}"))
            failures = seen[atoms, id(row)]
            parent = self.tree.parent.get(node) if self.tree.parent else None
            if parent is not None:
                above = self.values[parent]
                if (id(row), id(above)) not in seen:
                    seen[id(row), id(above)] = [
                        ("P4", f": {elems[p].concept!r}")
                        for p in range(len(u.values), len(up))
                        if row[up[p]] != above[p]
                    ]
                failures = failures + seen[id(row), id(above)]
            violations += (f"{kind} fails at node {node}{detail}" for kind, detail in failures)
        return violations


def _node_preorder(structure: OrderStructure, atoms: frozenset, node: int):
    """Validate the order axioms at one node and return its sorted classes.

    Returns a list of equivalence classes (tuples of positions), ascending.
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
        classes.setdefault(row, []).append(i)
    return [tuple(classes[row]) for row in sorted(classes, key=lambda r: -r.bit_count())]


def _node_values(classes, anchors, elems, node) -> tuple[Fraction, ...]:
    """The value of each position at `node`.  A class holding anchors
    (positions with a known value) takes their one value; the anonymous
    classes between two such classes are spaced evenly inside their gap."""
    pinned = {}  # class index -> value, ascending in the index
    for k, cls in enumerate(classes):
        held = [p for p in cls if p in anchors]
        for p in held[1:]:
            if anchors[p] != anchors[held[0]]:
                raise MalformedModelError(
                    node,
                    f"equivalent elements {elems[held[0]]!r} and {elems[p]!r} carry "
                    f"different values {anchors[held[0]]} and {anchors[p]}",
                )
        if held:
            pinned[k] = anchors[held[0]]
    ks = list(pinned)
    if any(pinned[b] <= pinned[a] for a, b in zip(ks, ks[1:])):
        raise MalformedModelError(node, "pinned classes are not strictly increasing")
    if not ks:
        raise MalformedModelError(node, "no pinned class at all")
    if ks[0] != 0 or ks[-1] != len(classes) - 1:
        raise MalformedModelError(node, "extreme classes are not pinned")
    row = [pinned[ks[-1]]] * len(elems)
    for a, b in zip(ks, ks[1:]):
        v, step = pinned[a], (pinned[b] - pinned[a]) / (b - a)
        for cls in classes[a:b]:
            for p in cls:
                row[p] = v
            v += step
    return tuple(row)


def extract_fuzzy_model(
    tree: ClassicalInterpretation,
    structure: OrderStructure,
    individual: str = "a",
) -> tuple[FuzzyInterpretation, ValueAssignment]:
    """Read a fuzzy interpretation off a classical tree model.

    The tree must satisfy the order axioms at every node; violations raise
    MalformedModelError naming the node and the failed family.  Concept
    degrees come from each node's row of values, role degrees from the edge
    element's value at the child.
    """
    if tree.parent is None:
        raise ValueError("tree metadata (parent map) is required")
    u = structure
    # the constants are the first positions; below the root each subconcept
    # position p also pins its shifted copy up[p] to the parent's value at p
    constants = dict(enumerate(u.values))
    subconcepts = range(len(u.values), len(u.up))
    values: dict[int, tuple[Fraction, ...]] = {}
    # the tree's elements copy the labels of a few graph nodes: each
    # distinct label is validated and sorted into classes once, at the
    # first element that carries it; and a row depends only on the label
    # and the parent's row, so each such pair is valued once (rows are
    # kept for the whole call, so their ids stay unique)
    preorders: dict[frozenset, list] = {}
    rows: dict[tuple[frozenset, int], tuple[Fraction, ...]] = {}
    for node in sorted(tree.domain, key=lambda d: (tree.depth[d], d)):
        atoms = tree.true_atoms[node]
        parent = tree.parent.get(node)
        above = values[parent] if parent is not None else None
        key = (atoms, id(above))
        row = rows.get(key)
        if row is None:
            classes = preorders.get(atoms)
            if classes is None:
                classes = preorders[atoms] = _node_preorder(u, atoms, node)
            anchors = constants
            if above is not None:
                anchors = constants | {u.up[p]: above[p] for p in subconcepts}
            row = rows[key] = _node_values(classes, anchors, u.elements, node)
        values[node] = row

    names = [
        (c.name, u.index[ConceptElement(c)]) for c in u.subconcepts if isinstance(c, Name)
    ]
    edge = u.index[EDGE]
    interp = FuzzyInterpretation(
        domain=tuple(tree.domain),
        concept_values={
            (name, node): values[node][p] for node in tree.domain for name, p in names
        },
        role_values={
            (role, v, w): values[w][edge]
            for role, edges in tree.role_edges.items()
            for (v, w) in edges
        },
        individuals={individual: tree.root},
    )
    return interp, ValueAssignment(structure, tree, values)


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
