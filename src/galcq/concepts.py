"""Concept ASTs and normalization.

The same node types serve the fuzzy language and its classical target; the
classical side additionally uses order atoms (`orders.Leq`) as atomic
concepts.  Normalized fuzzy concepts contain only Top, Name, Not, And,
Implies, Forall and AtLeast; Bot, Or, Exists and AtMost are surface sugar
expanded by `normalize`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Union


@dataclass(frozen=True, slots=True)
class Top:
    pass


@dataclass(frozen=True, slots=True)
class Bot:
    pass


@dataclass(frozen=True, slots=True)
class Name:
    name: str


@dataclass(frozen=True, slots=True)
class Not:
    sub: "Concept"


@dataclass(frozen=True, slots=True)
class And:
    left: "Concept"
    right: "Concept"


@dataclass(frozen=True, slots=True)
class Or:
    left: "Concept"
    right: "Concept"


@dataclass(frozen=True, slots=True)
class Implies:
    left: "Concept"
    right: "Concept"


@dataclass(frozen=True, slots=True)
class Exists:
    role: str
    sub: "Concept"


@dataclass(frozen=True, slots=True)
class Forall:
    role: str
    sub: "Concept"


@dataclass(frozen=True, slots=True)
class AtLeast:
    count: int
    role: str
    sub: "Concept"


@dataclass(frozen=True, slots=True)
class AtMost:
    count: int
    role: str
    sub: "Concept"


# Classical concepts may additionally contain orders.Leq leaves.
Concept = Union[Top, Bot, Name, Not, And, Or, Implies, Exists, Forall, AtLeast, AtMost]

TOP = Top()
BOT = Bot()

AT_MOST_MODES = ("involutive", "residual")


def negate(c: Concept) -> Concept:
    """Involutive negation with double-negation collapse."""
    return c.sub if isinstance(c, Not) else Not(c)


def normalize(c: Concept, at_most: str = "involutive") -> Concept:
    """Expand abbreviations and collapse double negations, bottom-up.

    Rewrites: Bot -> Not(Top); C or D -> Not(And(Not C, Not D));
    Exists r.C -> AtLeast(1, r, C); AtLeast(0, r, C) -> Top; Not(Not(C)) -> C.
    AtMost expands per `at_most`: 'involutive' to Not(AtLeast(n+1, r, C)),
    'residual' to Implies(AtLeast(n+1, r, C), Not(Top)).
    """
    if at_most not in AT_MOST_MODES:
        raise ValueError(f"unknown at-most mode {at_most!r}")
    match c:
        case Top() | Name():
            return c
        case Bot():
            return Not(TOP)
        case Not(sub):
            return negate(normalize(sub, at_most))
        case And(left, right):
            return And(normalize(left, at_most), normalize(right, at_most))
        case Or(left, right):
            nl = normalize(left, at_most)
            nr = normalize(right, at_most)
            return negate(And(negate(nl), negate(nr)))
        case Implies(left, right):
            return Implies(normalize(left, at_most), normalize(right, at_most))
        case Exists(role, sub):
            return AtLeast(1, role, normalize(sub, at_most))
        case Forall(role, sub):
            return Forall(role, normalize(sub, at_most))
        case AtLeast(count, role, sub):
            if count == 0:
                return TOP
            return AtLeast(count, role, normalize(sub, at_most))
        case AtMost(count, role, sub):
            inner = AtLeast(count + 1, role, normalize(sub, at_most))
            if at_most == "residual":
                return Implies(inner, Not(TOP))
            return Not(inner)
    raise TypeError(f"not a concept: {c!r}")


def children(c: Concept) -> tuple:
    if isinstance(c, (And, Or, Implies)):
        return (c.left, c.right)
    if isinstance(c, (Not, Exists, Forall, AtLeast, AtMost)):
        return (c.sub,)
    # Top, Bot, Name, orders.Leq and other classical leaves
    return ()


def subconcepts(c: Concept) -> Iterator[Concept]:
    """All subconcepts in post-order (children first, then the node itself)."""
    for child in children(c):
        yield from subconcepts(child)
    yield c


def first_occurrences(concepts: Iterable[Concept], pick: Callable) -> tuple:
    """Distinct non-None `pick(s)` over all subconcepts `s` of `concepts`,
    in post-order of first occurrence."""
    out = {}
    for c in concepts:
        for s in subconcepts(c):
            value = pick(s)
            if value is not None:
                out[value] = None
    return tuple(out)


def role_of(c: Concept) -> Optional[str]:
    """The role of a quantified concept, None for any other concept."""
    return c.role if isinstance(c, (Exists, Forall, AtLeast, AtMost)) else None


def quantifier_depth(c: Concept) -> int:
    kids = children(c)
    inner = max((quantifier_depth(k) for k in kids), default=0)
    if isinstance(c, (Exists, Forall, AtLeast, AtMost)):
        return inner + 1
    return inner
