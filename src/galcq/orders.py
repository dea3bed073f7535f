"""Order structure and order concepts.

Per domain element, the classical target ontology talks about a finite set
of comparable quantities: the relevant truth constants, the value of each
subconcept here, the value of each subconcept at the tree parent (the
"shifted" copies), and the degree of the incoming role edge.  Atomic
classical concepts `Leq(a, b)` assert "value of a <= value of b"; every
other comparison is a Boolean macro over such atoms.

An `OrderStructure` hash-conses its atoms: it builds the n x n table of
`Leq` objects once, together with index maps for inversion and shifting,
and the reduction takes every atom from that table.  Each atom is then one
shared object per reduction whose hash is computed once, so the tableau's
and the oracles' atom-keyed dictionaries hit on identity instead of
re-hashing and re-comparing the concept trees inside the elements.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Union

from .algebra import HALF, ONE, ValueSet
from .concepts import And, Concept, Implies, Not, Or, negate, role_of
from .ontology import FuzzyOntology, roles, sub_closure, value_closure


@dataclass(frozen=True, slots=True)
class ValueElement:
    value: Fraction


@dataclass(frozen=True, slots=True)
class ConceptElement:
    """Value of a subconcept at the current element."""

    concept: Concept


@dataclass(frozen=True, slots=True)
class ShiftedElement:
    """Value of a subconcept at the tree parent of the current element."""

    concept: Concept

    def __hash__(self) -> int:
        # the dataclass hash, (concept,), would collide with ConceptElement's
        return hash((self.concept, True))


@dataclass(frozen=True, slots=True)
class EdgeElement:
    """Degree of the role edge from the tree parent (or its complement)."""

    positive: bool

    def __hash__(self) -> int:
        # the dataclass hash, (positive,), would collide with the constants 0 and 1
        return hash((None, self.positive))


EDGE = EdgeElement(True)
EDGE_INV = EdgeElement(False)

OrderElement = Union[ValueElement, ConceptElement, ShiftedElement, EdgeElement]


@dataclass(frozen=True, slots=True)
class Leq:
    """Atomic classical concept: value of lhs <= value of rhs.

    The hash is the dataclass's structural hash, computed once at
    construction because the elements can wrap deep concepts.
    """

    lhs: OrderElement
    rhs: OrderElement
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.lhs, self.rhs)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # string hashes differ between processes: rebuild, never copy, _hash
        return (Leq, (self.lhs, self.rhs))


def _quantified(c: Concept) -> bool:
    """Whether `c` or its negation is a quantified concept."""
    return role_of(c.sub if isinstance(c, Not) else c) is not None


def invert(e: OrderElement) -> OrderElement:
    """The involutive complement of an element (value 1-x)."""
    match e:
        case ValueElement(value):
            return ValueElement(ONE - value)
        case ConceptElement(concept):
            return ConceptElement(negate(concept))
        case ShiftedElement(concept):
            return ShiftedElement(negate(concept))
        case EdgeElement(positive):
            return EdgeElement(not positive)
    raise TypeError(f"not an order element: {e!r}")


def shift(e: OrderElement) -> OrderElement:
    """Move an element's reference one tree level up; constants are fixed."""
    match e:
        case ValueElement():
            return e
        case ConceptElement(concept):
            return ShiftedElement(concept)
    raise TypeError(f"cannot shift {e!r}")


@dataclass(frozen=True, slots=True)
class MinExpr:
    """min of two element values, usable on the right of a comparison."""

    a: OrderElement
    b: OrderElement


@dataclass(frozen=True, slots=True)
class ResExpr:
    """a => b (residuum of min), usable on the right of a comparison."""

    a: OrderElement
    b: OrderElement


OrderOperand = Union[OrderElement, MinExpr, ResExpr]


AtomFactory = Callable[[OrderElement, OrderElement], Leq]


def _positions(bits: int):
    """The set bits of `bits`, lowest first."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _le(alpha: OrderElement, e: OrderOperand, leq: AtomFactory) -> Concept:
    if isinstance(e, MinExpr):
        return And(_le(alpha, e.a, leq), _le(alpha, e.b, leq))
    if isinstance(e, ResExpr):
        return Or(leq(e.a, e.b), leq(alpha, e.b))
    return leq(alpha, e)


def _ge(alpha: OrderElement, e: OrderOperand, leq: AtomFactory) -> Concept:
    if isinstance(e, MinExpr):
        return Or(leq(e.a, alpha), leq(e.b, alpha))
    if isinstance(e, ResExpr):
        guard = leq(e.a, e.b)
        return And(
            Implies(guard, leq(ValueElement(ONE), alpha)),
            Implies(Not(guard), leq(e.b, alpha)),
        )
    return leq(e, alpha)


def order_concept(
    lhs: OrderElement, rel: str, rhs: OrderOperand, leq: AtomFactory = Leq
) -> Concept:
    """Classical concept expressing `lhs rel rhs` over Leq atoms.

    rel is one of < <= = >= >; strictness and equality are resolved by outer
    Boolean combination of the <= and >= expansions.  `leq` makes the atoms;
    the reduction passes `OrderStructure.leq` to take them from the table.
    """
    if rel == "<=":
        return _le(lhs, rhs, leq)
    if rel == ">=":
        return _ge(lhs, rhs, leq)
    if rel == "=":
        return And(_le(lhs, rhs, leq), _ge(lhs, rhs, leq))
    if rel == "<":
        return Not(_ge(lhs, rhs, leq))
    if rel == ">":
        return Not(_le(lhs, rhs, leq))
    raise ValueError(f"unknown relator {rel!r}")


@dataclass(frozen=True)
class OrderStructure:
    """The comparable quantities of an ontology, with their roles.

    `elements` enumerates, deterministically: one ValueElement per relevant
    constant, one ConceptElement and one ShiftedElement per closed
    subconcept, then the edge pair.  ShiftedElement never wraps a constant;
    shifting identifies shifted constants with the constants themselves.

    Derived on first use, by element position i:
      - `index` maps each element to its position;
      - `table[i][j]` is the one shared atom `Leq(elements[i], elements[j])`;
      - `inverse[i]` is the position of `invert(elements[i])`;
      - `up[i]` is the position of `shift(elements[i])`, for the longest
        prefix of the base elements (constants, then current-level
        subconcepts, which come first) whose shifted copy is an element:
        every base element of a full structure, the constants and the
        quantified subconcepts of its `cone`;
      - `cone` is the structure restricted to what some semantics axiom
        reads (see there).
    """

    values: ValueSet
    subconcepts: tuple[Concept, ...]
    roles: tuple[str, ...]
    elements: tuple[OrderElement, ...]

    @cached_property
    def index(self) -> dict[OrderElement, int]:
        return {e: i for i, e in enumerate(self.elements)}

    @cached_property
    def table(self) -> tuple[tuple[Leq, ...], ...]:
        elems = self.elements
        return tuple(tuple(Leq(a, b) for b in elems) for a in elems)

    @cached_property
    def inverse(self) -> tuple[int, ...]:
        return tuple(self.index[invert(e)] for e in self.elements)

    @cached_property
    def up(self) -> tuple[int, ...]:
        base = self.elements[: len(self.values) + len(self.subconcepts)]
        shifted = map(self.index.get, map(shift, base))
        return tuple(itertools.takewhile(lambda p: p is not None, shifted))

    @cached_property
    def cone(self) -> "OrderStructure":
        """The structure restricted to the elements some semantics axiom
        reads: the constants; the subconcepts, the quantified ones (`Forall`,
        `AtLeast` and their negations) first; the shifted copies of the
        quantified ones; and the edge pair if there is any.  Every other
        shifted copy, and the edge pair of a structure without quantifiers,
        is read only by the order families and transfer.  The cone's table
        holds this table's atoms; the cone of a cone is itself."""
        quantified = tuple(c for c in self.subconcepts if _quantified(c))
        subs = quantified + tuple(c for c in self.subconcepts if not _quantified(c))
        elements = (
            tuple(ValueElement(q) for q in self.values)
            + tuple(ConceptElement(c) for c in subs)
            + tuple(ShiftedElement(c) for c in quantified)
            + ((EDGE, EDGE_INV) if quantified else ())
        )
        if elements == self.elements:
            return self
        cone = OrderStructure(self.values, subs, self.roles, elements)
        at = [self.index[e] for e in elements]
        t = self.table
        # a cached property is read from the instance dict first
        cone.__dict__["table"] = tuple(tuple(t[i][j] for j in at) for i in at)
        return cone

    def _ranks(self, atoms) -> list[int]:
        """The class of each position in the total preorder that `atoms`
        give, lowest 0: in a total preorder a row is its class's up-set, so
        a lower class has more bits."""
        rows = self.rows(atoms)
        counts = sorted({row.bit_count() for row in rows}, reverse=True)
        rank = {count: k for k, count in enumerate(counts)}
        return [rank[row.bit_count()] for row in rows]

    def complete(self, atoms, above=None) -> frozenset:
        """`atoms`, a tree element's total preorder over the cone, with the
        atoms of the positions outside the cone added; `above` are its tree
        parent's atoms over the cone, None at the root.

        A dropped copy `up C` takes the place that the parent gives `C`
        among the anchors, the constants and quantified subconcepts, whose
        copies transfer orders at the element as the parent orders them:
        tied with an anchor, it joins the class of that anchor's copy;
        otherwise it gets a class of its own, ordered as the parent orders
        the dropped ones, just above the lower anchor's copy in a gap below
        1/2 and just below the upper anchor's copy in a gap above 1/2 (1/2
        is an anchor, so no gap straddles it), which keeps antitonicity.  At
        the root one copy of each pair {up C, up not C} goes to 0 and the
        other to 1, and a dropped edge pair goes to 1 and 0 everywhere."""
        cone = self.cone
        if cone is self:
            return atoms
        # an element's sort key: its class at the element, then, for a
        # dropped copy in a gap, its side of the anchor and the parent's
        # class of its concept
        here = cone._ranks(atoms)
        key = {e: (k, 0, 0) for e, k in zip(cone.elements, here)}
        up, anchors = cone.up, range(len(cone.up))
        zero, one = key[cone.elements[0]], key[cone.elements[len(self.values) - 1]]
        parent = None if above is None else cone._ranks(above)
        dropped = [p for p, e in enumerate(self.elements) if e not in key]
        for p in dropped:
            e = self.elements[p]
            if isinstance(e, EdgeElement):
                key[e] = one if e.positive else zero
                continue
            q = cone.index[ConceptElement(e.concept)]
            if parent is None:
                key[e] = zero if q < cone.inverse[q] else one
                continue
            level = parent[q]
            low = max((a for a in anchors if parent[a] <= level), key=parent.__getitem__)
            if parent[low] == level:
                key[e] = here[up[low]], 0, 0
                continue
            high = min((a for a in anchors if parent[a] > level), key=parent.__getitem__)
            if parent[high] <= parent[self.values.degrees.index(HALF)]:
                key[e] = here[up[low]], 1, level
            else:
                key[e] = here[up[high]], -1, level
        keys = [key[e] for e in self.elements]
        t = self.table
        added = set(atoms)
        for p in dropped:
            for j, kj in enumerate(keys):
                if keys[p] <= kj:
                    added.add(t[p][j])
                if kj <= keys[p]:
                    added.add(t[j][p])
        return frozenset(added)

    def leq(self, a: OrderElement, b: OrderElement) -> Leq:
        """The table atom `Leq(a, b)`; both elements must be in the structure."""
        return self.table[self.index[a]][self.index[b]]

    def rows(self, atoms) -> list[int]:
        """An element's order atoms as bit rows over the positions: bit j of
        row i is set iff `table[i][j] in atoms`."""
        return [
            sum(1 << j for j, a in enumerate(row) if a in atoms) for row in self.table
        ]

    def broken(self, rows) -> tuple[list, list, list, list, list]:
        """The instances of the preorder families that the bit rows `rows`,
        as `OrderStructure.rows` gives them, fail, by position.

        The five lists are the first five families of
        `classical_model.order_families`, each in its listing order and
        with its instance shapes.  All five are empty exactly when the
        rows are a bounded total preorder that orders the constants by
        value and that inversion reverses."""
        n, inv = len(rows), self.inverse
        last = len(self.values) - 1  # the constants come first, ascending
        full = (1 << n) - 1
        cols = [0] * n  # the transpose: bit x of cols[y] is leq(x, y)
        triples, totality, antitone = [], [], []
        for x, row in enumerate(rows):
            for y in _positions(row):
                cols[y] |= 1 << x
                # (x, y, z) fails iff bit z of rows[y] & ~rows[x]
                if missing := rows[y] & ~row:
                    triples += [(x, y, z) for z in _positions(missing)]
                if not rows[inv[y]] >> inv[x] & 1:
                    antitone.append((x, y))
        for x, row in enumerate(rows):
            totality += [(x, y) for y in _positions(full & ~(row | cols[x]))]
        bounds = [(x,) for x in _positions(full & ~(rows[0] & cols[last]))]
        constants = []
        for a in range(last + 1):
            for b in range(a, last + 1):
                if not rows[a] >> b & 1:
                    constants.append((a, b, False))
                if a < b and rows[b] >> a & 1:
                    constants.append((a, b, True))
        return triples, totality, bounds, constants, antitone

    @classmethod
    def from_ontology(cls, o: FuzzyOntology) -> "OrderStructure":
        values = value_closure(o)
        subs = sub_closure(o)
        elements = (
            tuple(ValueElement(q) for q in values)
            + tuple(ConceptElement(c) for c in subs)
            + tuple(ShiftedElement(c) for c in subs)
            + (EDGE, EDGE_INV)
        )
        return cls(values, subs, roles(o), elements)

    def __len__(self) -> int:
        return len(self.elements)
