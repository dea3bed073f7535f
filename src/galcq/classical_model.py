"""Classical ontologies and finite classical interpretations.

The classical side is plain ALCQ over atomic concepts that are either
concept names or order atoms (`orders.Leq`).  Interpretations are finite,
with an optional tree layer (parent/depth/cut) used by model extraction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional

from .concepts import (
    And,
    AtLeast,
    AtMost,
    Bot,
    Concept,
    Exists,
    Forall,
    Implies,
    Name,
    Not,
    Or,
    Top,
    role_of,
    subconcepts,
)
from .orders import Leq, OrderStructure, _positions


def atom_of(c: Concept) -> Optional[Concept]:
    """`c` itself when it is atomic (a name or an order atom), else None."""
    return c if isinstance(c, (Name, Leq)) else None


@dataclass(frozen=True, slots=True)
class Inclusion:
    """Classical GCI: lhs is included in rhs."""

    lhs: Concept
    rhs: Concept


@dataclass(frozen=True)
class ClassicalOntology:
    """Inclusions and root assertions over one individual.

    `axioms` are the inclusions given as objects.  A reduction also sets
    `order`, its order structure, whose transitivity family the ontology
    implies besides them without building it.  The tableau, the printer,
    the brute-force oracle and the model checker read the family from
    `order` by position.  `inclusions` lists it as objects, every triple
    (i, j, k) in position order, followed by `axioms`; it is built on
    first read, as a reference to compare those readers against.
    """

    axioms: tuple[Inclusion, ...]
    assertions: tuple[tuple[str, Concept], ...]
    individual: str = "a"
    order: Optional[OrderStructure] = None

    @cached_property
    def inclusions(self) -> tuple[Inclusion, ...]:
        if self.order is None:
            return self.axioms
        t = self.order.table
        triples = itertools.product(range(len(t)), repeat=3)
        family = (Inclusion(And(t[i][j], t[j][k]), t[i][k]) for i, j, k in triples)
        return (*family, *self.axioms)

    def signature(self) -> tuple[tuple, tuple[str, ...]]:
        """Atomic concepts (names and order atoms) and roles, each in
        post-order of first occurrence over the transitivity family, the
        axioms, then the assertions.

        The transitivity family has no role, and its triples (0, j, k) meet
        the atoms of `order.table` row by row, so the family's atoms are
        read from the table; one walk of the subconcepts covers the rest.
        """
        atoms, roles = {}, {}
        if self.order is not None:
            atoms = dict.fromkeys(a for row in self.order.table for a in row)
        sides = [c for inc in self.axioms for c in (inc.lhs, inc.rhs)]
        for c in sides + [c for _, c in self.assertions]:
            for s in subconcepts(c):
                atom = atom_of(s)
                if atom is not None:
                    atoms[atom] = None
                    continue
                role = role_of(s)
                if role is not None:
                    roles[role] = None
        return tuple(atoms), tuple(roles)

    def atoms(self) -> tuple:
        """Atomic concepts (names and order atoms), first-occurrence order."""
        return self.signature()[0]

    def roles(self) -> tuple[str, ...]:
        return self.signature()[1]


@dataclass
class ClassicalInterpretation:
    """Finite classical interpretation; atoms not listed are false.

    When produced by unraveling a completion graph the tree fields are
    populated: `parent` and `depth` describe the tree, `cut` marks leaves
    where the unraveling was truncated, so axioms may fail nearby.
    """

    domain: tuple[int, ...]
    true_atoms: dict[int, frozenset]
    role_edges: dict[str, frozenset[tuple[int, int]]]
    root: int = 0
    parent: Optional[dict[int, int]] = None
    depth: Optional[dict[int, int]] = None
    cut: frozenset[int] = frozenset()
    _succ: dict = field(default_factory=dict, repr=False, compare=False)

    def successors(self, role: str, d: int) -> tuple[int, ...]:
        key = (role, d)
        if key not in self._succ:
            edges = self.role_edges.get(role, frozenset())
            self._succ[key] = tuple(e for (s, e) in edges if s == d)
        return self._succ[key]

    def distance_to_cut(self) -> dict[int, float]:
        """Per element: least number of edges down to a truncated leaf."""
        dist = {d: (0 if d in self.cut else float("inf")) for d in self.domain}
        # tree edges only point away from the root, so iterate to fixpoint
        changed = True
        while changed:
            changed = False
            for role in self.role_edges:
                for (s, e) in self.role_edges[role]:
                    if dist[e] + 1 < dist[s]:
                        dist[s] = dist[e] + 1
                        changed = True
        return dist

    def interior(self, margin: int) -> tuple[int, ...]:
        """Elements farther than `margin` edges from every truncated leaf."""
        dist = self.distance_to_cut()
        return tuple(d for d in self.domain if dist[d] > margin)


def evaluate_classical(i: ClassicalInterpretation, c: Concept, d: int, memo=None) -> bool:
    """Two-valued evaluation of a classical concept at element d."""
    if memo is None:
        memo = {}
    key = (c, d)
    if key in memo:
        return memo[key]
    match c:
        case Top():
            v = True
        case Bot():
            v = False
        case Name() | Leq():
            v = c in i.true_atoms.get(d, frozenset())
        case Not(sub):
            v = not evaluate_classical(i, sub, d, memo)
        case And(left, right):
            v = evaluate_classical(i, left, d, memo) and evaluate_classical(i, right, d, memo)
        case Or(left, right):
            v = evaluate_classical(i, left, d, memo) or evaluate_classical(i, right, d, memo)
        case Implies(left, right):
            v = (not evaluate_classical(i, left, d, memo)) or evaluate_classical(i, right, d, memo)
        case Exists(role, sub):
            v = any(evaluate_classical(i, sub, e, memo) for e in i.successors(role, d))
        case Forall(role, sub):
            v = all(evaluate_classical(i, sub, e, memo) for e in i.successors(role, d))
        case AtLeast(count, role, sub):
            hits = sum(1 for e in i.successors(role, d) if evaluate_classical(i, sub, e, memo))
            v = hits >= count
        case AtMost(count, role, sub):
            hits = sum(1 for e in i.successors(role, d) if evaluate_classical(i, sub, e, memo))
            v = hits <= count
        case _:
            raise TypeError(f"not a classical concept: {c!r}")
    memo[key] = v
    return v


def check_classical_model(
    i: ClassicalInterpretation,
    o: ClassicalOntology,
    elements: Optional[Iterable[int]] = None,
) -> list[str]:
    """Violation descriptions; empty means every axiom holds.

    GCIs are checked at `elements` (default: the whole domain); assertions
    always at the root.  Each failing inclusion is reported once, at its
    first failing element, in `o.inclusions` order.
    """
    elems = tuple(elements) if elements is not None else i.domain
    memo = {}
    violations = []
    for _, c in o.assertions:
        if not evaluate_classical(i, c, i.root, memo):
            violations.append(f"assertion fails at root: {c!r}")
    if o.order is not None:
        # the transitivity family, by position: (x, y, z) fails at d iff d's
        # bit rows have bit y in rows[x] and bit z in rows[y] & ~rows[x]
        first = {}
        for d in elems:
            rows = o.order.rows(i.true_atoms.get(d, frozenset()))
            for x, row in enumerate(rows):
                for y in _positions(row):
                    for z in _positions(rows[y] & ~row):
                        first.setdefault((x, y, z), d)
        t = o.order.table
        for (x, y, z), d in sorted(first.items()):
            violations.append(f"inclusion fails at {d}: {And(t[x][y], t[y][z])!r} vs {t[x][z]!r}")
    for inc in o.axioms:
        for d in elems:
            if evaluate_classical(i, inc.lhs, d, memo) and not evaluate_classical(
                i, inc.rhs, d, memo
            ):
                violations.append(f"inclusion fails at {d}: {inc.lhs!r} vs {inc.rhs!r}")
                break
    return violations
