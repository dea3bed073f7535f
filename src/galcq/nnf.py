"""Negation normal form for classical concepts.

Negation is pushed onto atoms; at-most restrictions are first-class and keep
their qualifier positive (the tableau's choose rule decides the qualifier
per neighbor).  And/Or are n-ary, flattened, deduplicated and sorted, so
structurally equal formulas are representationally equal.

Every node computes its sort key once and keeps it.  A `Literals` table
passed through `nnf`, `nnf_not` and `negate_nnf` shares one literal node per
atom, so the keys of literals, the bulk of every clause, are computed once
per table rather than once per occurrence.

`inclusion_nnf` is the one reader of a global axiom `C [= D` as the
formula nnf(not C or D); the tableau and the brute-force oracle both read
their inclusions through it.  The transitivity, totality, antitonicity
and transfer families of a reduction's order structure, nearly all of its
inclusions, never reach it: both read those by position (the oracle has
nothing to read from transfer, which is quantified).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

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
)
from .orders import (
    ConceptElement,
    EdgeElement,
    Leq,
    ShiftedElement,
    ValueElement,
)


def _key_slot():
    """Per-node cache of `sort_key`, invisible to equality, hash and repr."""
    return field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True, slots=True)
class NAtom:
    atom: object  # Name or Leq
    _key: tuple = _key_slot()


@dataclass(frozen=True, slots=True)
class NNegAtom:
    atom: object
    _key: tuple = _key_slot()


@dataclass(frozen=True, slots=True)
class NAnd:
    args: tuple
    _key: tuple = _key_slot()


@dataclass(frozen=True, slots=True)
class NOr:
    args: tuple
    _key: tuple = _key_slot()


@dataclass(frozen=True, slots=True)
class NForall:
    role: str
    sub: "NNFConcept"
    _key: tuple = _key_slot()


@dataclass(frozen=True, slots=True)
class NAtLeast:
    count: int
    role: str
    sub: "NNFConcept"
    _key: tuple = _key_slot()


@dataclass(frozen=True, slots=True)
class NAtMost:
    count: int
    role: str
    sub: "NNFConcept"
    _key: tuple = _key_slot()


NNFConcept = Union[NAtom, NNegAtom, NAnd, NOr, NForall, NAtLeast, NAtMost]

NTRUE = NAnd(())
NFALSE = NOr(())


class Literals:
    """One shared NAtom and one shared NNegAtom per atom.

    A table lives as long as the formulas built with it; the tableau keeps
    one per construction.
    """

    __slots__ = ("pos", "neg")

    def __init__(self):
        self.pos: dict = {}
        self.neg: dict = {}

    def atom(self, a) -> NAtom:
        n = self.pos.get(a)
        if n is None:
            n = self.pos[a] = NAtom(a)
        return n

    def negated(self, a) -> NNegAtom:
        n = self.neg.get(a)
        if n is None:
            n = self.neg[a] = NNegAtom(a)
        return n


def _element_key(e):
    match e:
        case ValueElement(value):
            return (0, str(value))
        case ConceptElement(concept):
            return (1, _concept_key(concept))
        case ShiftedElement(concept):
            return (2, _concept_key(concept))
        case EdgeElement(positive):
            return (3, positive)
    raise TypeError(f"not an order element: {e!r}")


def _concept_key(c):
    match c:
        case Top():
            return (0,)
        case Bot():
            return (1,)
        case Name(name):
            return (2, name)
        case Leq(lhs, rhs):
            return (3, _element_key(lhs), _element_key(rhs))
        case Not(sub):
            return (4, _concept_key(sub))
        case And(left, right):
            return (5, _concept_key(left), _concept_key(right))
        case Or(left, right):
            return (6, _concept_key(left), _concept_key(right))
        case Implies(left, right):
            return (7, _concept_key(left), _concept_key(right))
        case Exists(role, sub):
            return (8, role, _concept_key(sub))
        case Forall(role, sub):
            return (9, role, _concept_key(sub))
        case AtLeast(count, role, sub):
            return (10, count, role, _concept_key(sub))
        case AtMost(count, role, sub):
            return (11, count, role, _concept_key(sub))
    raise TypeError(f"not a concept: {c!r}")


def sort_key(n: NNFConcept):
    """Deterministic structural ordering key, computed once per node."""
    key = n._key
    if key is None:
        key = _structural_key(n)
        object.__setattr__(n, "_key", key)
    return key


def _structural_key(n: NNFConcept):
    match n:
        case NAtom(atom):
            return (0, _concept_key(atom))
        case NNegAtom(atom):
            return (1, _concept_key(atom))
        case NAnd(args):
            return (2, tuple(sort_key(a) for a in args))
        case NOr(args):
            return (3, tuple(sort_key(a) for a in args))
        case NForall(role, sub):
            return (4, role, sort_key(sub))
        case NAtLeast(count, role, sub):
            return (5, count, role, sort_key(sub))
        case NAtMost(count, role, sub):
            return (6, count, role, sort_key(sub))
    raise TypeError(f"not an NNF concept: {n!r}")


def mk_and(args) -> NNFConcept:
    flat = []
    for a in args:
        if isinstance(a, NAnd):
            flat.extend(a.args)
        elif isinstance(a, NOr) and not a.args:  # NFALSE
            return NFALSE
        else:
            flat.append(a)
    unique = sorted(set(flat), key=sort_key)
    if not unique:
        return NTRUE
    if len(unique) == 1:
        return unique[0]
    return NAnd(tuple(unique))


def mk_or(args) -> NNFConcept:
    flat = []
    for a in args:
        if isinstance(a, NOr):
            flat.extend(a.args)
        elif isinstance(a, NAnd) and not a.args:  # NTRUE
            return NTRUE
        else:
            flat.append(a)
    unique = sorted(set(flat), key=sort_key)
    if not unique:
        return NFALSE
    if len(unique) == 1:
        return unique[0]
    return NOr(tuple(unique))


def nnf(c: Concept, lits: Literals | None = None) -> NNFConcept:
    """Negation normal form of `c`; literals come from `lits` (default: a
    fresh table)."""
    if lits is None:
        lits = Literals()
    match c:
        case Top():
            return NTRUE
        case Bot():
            return NFALSE
        case Name() | Leq():
            return lits.atom(c)
        case Not(sub):
            return nnf_not(sub, lits)
        case And(left, right):
            return mk_and((nnf(left, lits), nnf(right, lits)))
        case Or(left, right):
            return mk_or((nnf(left, lits), nnf(right, lits)))
        case Implies(left, right):
            return mk_or((nnf_not(left, lits), nnf(right, lits)))
        case Exists(role, sub):
            return NAtLeast(1, role, nnf(sub, lits))
        case Forall(role, sub):
            return NForall(role, nnf(sub, lits))
        case AtLeast(count, role, sub):
            if count == 0:
                return NTRUE
            return NAtLeast(count, role, nnf(sub, lits))
        case AtMost(count, role, sub):
            return NAtMost(count, role, nnf(sub, lits))
    raise TypeError(f"not a concept: {c!r}")


def nnf_not(c: Concept, lits: Literals | None = None) -> NNFConcept:
    """Negation normal form of the complement of `c`."""
    if lits is None:
        lits = Literals()
    match c:
        case Top():
            return NFALSE
        case Bot():
            return NTRUE
        case Name() | Leq():
            return lits.negated(c)
        case Not(sub):
            return nnf(sub, lits)
        case And(left, right):
            return mk_or((nnf_not(left, lits), nnf_not(right, lits)))
        case Or(left, right):
            return mk_and((nnf_not(left, lits), nnf_not(right, lits)))
        case Implies(left, right):
            return mk_and((nnf(left, lits), nnf_not(right, lits)))
        case Exists(role, sub):
            return NAtMost(0, role, nnf(sub, lits))
        case Forall(role, sub):
            return NAtLeast(1, role, nnf_not(sub, lits))
        case AtLeast(count, role, sub):
            if count == 0:
                return NFALSE
            return NAtMost(count - 1, role, nnf(sub, lits))
        case AtMost(count, role, sub):
            return NAtLeast(count + 1, role, nnf(sub, lits))
    raise TypeError(f"not a concept: {c!r}")


def negate_nnf(n: NNFConcept, lits: Literals | None = None) -> NNFConcept:
    """Semantic complement, staying in NNF."""
    if lits is None:
        lits = Literals()
    match n:
        case NAtom(atom):
            return lits.negated(atom)
        case NNegAtom(atom):
            return lits.atom(atom)
        case NAnd(args):
            return mk_or(tuple(negate_nnf(a, lits) for a in args))
        case NOr(args):
            return mk_and(tuple(negate_nnf(a, lits) for a in args))
        case NForall(role, sub):
            return NAtLeast(1, role, negate_nnf(sub, lits))
        case NAtLeast(count, role, sub):
            if count == 0:
                return NFALSE
            return NAtMost(count - 1, role, sub)
        case NAtMost(count, role, sub):
            return NAtLeast(count + 1, role, sub)
    raise TypeError(f"not an NNF concept: {n!r}")


def inclusion_nnf(inc, lits: Literals) -> NNFConcept:
    """Read the inclusion `lhs [= rhs` as nnf(not lhs or rhs), its literals
    from `lits`."""
    return mk_or((nnf_not(inc.lhs, lits), nnf(inc.rhs, lits)))
