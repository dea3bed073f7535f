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

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Union

from .algebra import ONE, ValueSet
from .concepts import And, Concept, Implies, Not, Or, negate
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
      - `up[i]` is the position of `shift(elements[i])`, for the base
        elements (constants and current-level subconcepts), which come first.
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
        return tuple(self.index[shift(e)] for e in base)

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
