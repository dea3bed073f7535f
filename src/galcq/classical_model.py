"""Classical ontologies and finite classical interpretations.

The classical side is plain ALCQ over atomic concepts that are either
concept names or order atoms (`orders.Leq`).  Interpretations are finite,
with an optional tree layer (parent/depth/cut) used by model extraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
from .orders import Leq


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
    inclusions: tuple[Inclusion, ...]
    assertions: tuple[tuple[str, Concept], ...]
    individual: str = "a"

    def concepts(self) -> Iterable[Concept]:
        for inc in self.inclusions:
            yield inc.lhs
            yield inc.rhs
        for _, c in self.assertions:
            yield c

    def signature(self) -> tuple[tuple, tuple[str, ...]]:
        """Atomic concepts (names and order atoms) and roles, each in
        post-order of first occurrence, from one walk of the subconcepts."""
        atoms, roles = {}, {}
        for c in self.concepts():
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
    always at the root.
    """
    elems = tuple(elements) if elements is not None else i.domain
    memo = {}
    violations = []
    for _, c in o.assertions:
        if not evaluate_classical(i, c, i.root, memo):
            violations.append(f"assertion fails at root: {c!r}")
    for inc in o.inclusions:
        for d in elems:
            if evaluate_classical(i, inc.lhs, d, memo) and not evaluate_classical(
                i, inc.rhs, d, memo
            ):
                violations.append(f"inclusion fails at {d}: {inc.lhs!r} vs {inc.rhs!r}")
                break
    return violations
