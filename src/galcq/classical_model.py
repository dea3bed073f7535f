"""Classical ontologies and finite classical interpretations.

The classical side is plain ALCQ over atomic concepts that are either
concept names or order atoms (`orders.Leq`).  Interpretations are finite,
with an optional tree layer (parent/depth/cut) used by model extraction.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Optional

from .concepts import (
    TOP,
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


def order_families(u: OrderStructure) -> tuple[tuple[Iterable[tuple], Callable], ...]:
    """The six families of crisp axioms that make each element's order
    atoms over `u` a bounded total preorder, one `(instances, inclusion)`
    pair per family in `ClassicalOntology.inclusions` order: the instances
    by position in listing order, a fresh iterator on each call, and the
    function that builds one instance's inclusion.  The constants come
    first, ascending, the last of them at `last`:
      - transitivity (i, j, k): `leq(i, j) and leq(j, k) [= leq(i, k)`;
      - totality (i, j): `T [= leq(i, j) or leq(j, i)`;
      - bounds (i,): `T [= leq(0, i) and leq(i, last)`;
      - the constant order (a, b, flipped), constants a <= b: `T [=
        leq(a, b)`, or, flipped (a < b only), `T [= not leq(b, a)`;
      - antitonicity (i, j): `leq(i, j) [= leq(inv j, inv i)`;
      - transfer (i, j, k, flipped), base positions i, j, role `roles[k]`:
        `leq(i, j) [= all r leq(up i, up j)`, or, flipped, the same with
        both atoms negated.
    """
    t, inv, up, roles = u.table, u.inverse, u.up, u.roles
    span, last, flips = range(len(u)), len(u.values) - 1, (False, True)
    product = itertools.product

    def transfer(i, j, k, flipped):
        lhs, rhs = t[i][j], t[up[i]][up[j]]
        if flipped:
            lhs, rhs = Not(lhs), Not(rhs)
        return Inclusion(lhs, Forall(roles[k], rhs))

    values, base = range(last + 1), range(len(up))
    constants = ((a, b, f) for a in values for b in values[a:] for f in flips[: 1 + (a < b)])
    return (
        (product(span, repeat=3), lambda i, j, k: Inclusion(And(t[i][j], t[j][k]), t[i][k])),
        (product(span, repeat=2), lambda i, j: Inclusion(TOP, Or(t[i][j], t[j][i]))),
        (((i,) for i in span), lambda i: Inclusion(TOP, And(t[0][i], t[i][last]))),
        (constants, lambda a, b, flipped: Inclusion(TOP, Not(t[b][a]) if flipped else t[a][b])),
        (product(span, repeat=2), lambda i, j: Inclusion(t[i][j], t[inv[j]][inv[i]])),
        (product(base, base, range(len(roles)), flips), transfer),
    )


def fact_axioms(u: OrderStructure) -> tuple[Inclusion, ...]:
    """The bounds and the constant order of `u`: n + O(|values|^2) small
    inclusions, which every reader takes as objects."""
    return tuple(build(*p) for instances, build in order_families(u)[2:4] for p in instances)


@dataclass(frozen=True)
class ClassicalOntology:
    """Inclusions and root assertions over one individual.

    `axioms` are the inclusions given as objects.  A reduction also sets
    `order`, its order structure, whose families the ontology implies
    besides them without building them: transitivity, totality, bounds,
    the constant order, antitonicity and transfer along the structure's
    roles.  The tableau, the printer and the model checker read
    transitivity, totality, antitonicity and transfer from `order` by
    position, and take the bounds and constant facts from `fact_axioms`;
    the brute-force oracle does the same, but for transfer, which it
    leaves to the model checker.  `inclusions` lists every instance of
    `order_families`, family by family, followed by `axioms`; it is built
    on first read, as a reference to compare those readers against.
    """

    axioms: tuple[Inclusion, ...]
    assertions: tuple[tuple[str, Concept], ...]
    individual: str = "a"
    order: Optional[OrderStructure] = None

    @cached_property
    def inclusions(self) -> tuple[Inclusion, ...]:
        u = self.order
        if u is None:
            return self.axioms
        families = order_families(u)
        listed = (build(*p) for instances, build in families for p in instances)
        return (*listed, *self.axioms)

    def signature(self) -> tuple[tuple, tuple[str, ...]]:
        """Atomic concepts (names and order atoms) and roles, each in
        post-order of first occurrence over `inclusions`, then the
        assertions.

        The structure's triples (0, j, k) meet the atoms of `order.table`
        row by row, and its transfer family, the first of its families
        with a role, meets `order.roles` in order, so the families' atoms
        and roles are read from the structure; one walk of the subconcepts
        covers the rest.
        """
        atoms, roles = {}, {}
        if self.order is not None:
            atoms = dict.fromkeys(a for row in self.order.table for a in row)
            if self.order.up:
                roles = dict.fromkeys(self.order.roles)
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
    first failing element, in `o.inclusions` order.  The families that
    `o.order` fixes are checked on each element's bit rows: the preorder
    families by `OrderStructure.broken`, the test the model extraction
    makes too, and transfer by comparing the rows of the two ends of each
    role edge.  Only the inclusions in `o.axioms` are evaluated one at a
    time.
    """
    elems = tuple(elements) if elements is not None else i.domain
    memo = {}
    violations = []
    for _, c in o.assertions:
        if not evaluate_classical(i, c, i.root, memo):
            violations.append(f"assertion fails at root: {c!r}")
    if o.order is not None:
        violations += _order_violations(i, o.order, elems)
    for inc in o.axioms:
        for d in elems:
            if evaluate_classical(i, inc.lhs, d, memo) and not evaluate_classical(
                i, inc.rhs, d, memo
            ):
                violations.append(f"inclusion fails at {d}: {inc.lhs!r} vs {inc.rhs!r}")
                break
    return violations


def _order_violations(i: ClassicalInterpretation, u: OrderStructure, elems) -> list[str]:
    """The violations of the families `u` fixes, as `check_classical_model`
    reports them: the first failing element of each instance of
    `order_families(u)`, in its listing order, and only a failing instance's
    inclusion built.  The preorder families are tested by
    `OrderStructure.broken` on each element's rows; transfer holds along an
    `r`-edge (d, e), r in `u.roles`, iff bit j of d's row i equals bit `up
    j` of e's row `up i` for all base positions i, j."""
    up = u.up
    rows = functools.cache(lambda d: u.rows(i.true_atoms.get(d, frozenset())))

    @functools.cache
    def shifted(e):
        """e's rows at the shifted pairs, by base pair: bit y of row x is
        bit `up y` of e's row `up x`."""
        there = rows(e)
        return [sum(1 << y for y, uy in enumerate(up) if there[ux] >> uy & 1) for ux in up]

    first = ({}, {}, {}, {}, {}, {})
    base = (1 << len(up)) - 1
    for d in elems:
        here = rows(d)
        for seen, failing in zip(first, u.broken(here)):
            for p in failing:
                seen.setdefault(p, d)
        for k, r in enumerate(u.roles):
            for e in i.successors(r, d):
                for x, theirs in enumerate(shifted(e)):
                    mine = here[x] & base
                    for y in _positions(mine ^ theirs):
                        first[5].setdefault((x, y, k, not mine >> y & 1), d)

    out = []
    for seen, (_, inclusion) in zip(first, order_families(u)):
        for p, d in sorted(seen.items()):
            inc = inclusion(*p)
            out.append(f"inclusion fails at {d}: {inc.lhs!r} vs {inc.rhs!r}")
    return out
