"""Exact truth-value algebra: min-based conjunction over rationals in [0, 1].

All degrees are `fractions.Fraction` values, so every operation in the
decision pipeline is exact; no floats appear anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator

Degree = Fraction

ZERO = Fraction(0)
HALF = Fraction(1, 2)
ONE = Fraction(1)

from .errors import DegreeRangeError


def as_degree(value) -> Fraction:
    """Coerce to an exact rational and check the [0, 1] range."""
    d = Fraction(value)
    if d < 0 or d > 1:
        raise DegreeRangeError(f"degree outside [0,1]: {d}")
    return d


# `Fraction` expands a decimal exponent into a power of ten ("0.5e99999999"
# would not return), so longer literals and larger exponents are refused.
MAX_DEGREE_LITERAL = 1000
MAX_DEGREE_EXPONENT = 1000


def parse_degree(text: str) -> Fraction:
    """Parse a decimal ('0.4') or ratio ('2/5') literal exactly."""
    if len(text) > MAX_DEGREE_LITERAL:
        raise DegreeRangeError(
            f"degree literal longer than {MAX_DEGREE_LITERAL} characters"
        )
    try:
        exponent = int(text.lower().partition("e")[2] or 0)
    except ValueError:  # not an exponent: Fraction rejects the literal
        exponent = 0
    if abs(exponent) > MAX_DEGREE_EXPONENT:
        raise DegreeRangeError(
            f"degree exponent larger than {MAX_DEGREE_EXPONENT}: {text!r}"
        )
    try:
        d = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DegreeRangeError(f"not a degree literal: {text!r}") from exc
    return as_degree(d)


def format_degree(d: Fraction) -> str:
    """Canonical text form: 'p/q', or plain 'p' for integral values."""
    return str(d)


def t_norm(x: Fraction, y: Fraction) -> Fraction:
    """Conjunction: min{x, y}."""
    return x if x <= y else y


def residuum(x: Fraction, y: Fraction) -> Fraction:
    """Implication adjoint to min: 1 if x <= y, else y."""
    return ONE if x <= y else y


def involutive_negation(x: Fraction) -> Fraction:
    """1 - x."""
    return ONE - x


def rel_holds(x: Fraction, rel: str, y: Fraction) -> bool:
    """Evaluate an order relator from {'<', '<=', '=', '>=', '>'}."""
    if rel == "<":
        return x < y
    if rel == "<=":
        return x <= y
    if rel == "=":
        return x == y
    if rel == ">=":
        return x >= y
    if rel == ">":
        return x > y
    raise ValueError(f"unknown relator {rel!r}")


class ValueSet:
    """Strictly ascending degrees, closed under x -> 1-x, containing 0, 1/2, 1.

    This is the set of relevant truth constants of an ontology: every degree
    it mentions, the complements of those degrees, and the three fixed
    landmarks.
    """

    __slots__ = ("degrees",)

    def __init__(self, degrees: Iterable[Fraction] = ()):
        closed = {ZERO, HALF, ONE}
        for d in degrees:
            d = as_degree(d)
            closed.add(d)
            closed.add(ONE - d)
        object.__setattr__(self, "degrees", tuple(sorted(closed)))

    def __setattr__(self, name, value):  # immutable after construction
        raise AttributeError("ValueSet is immutable")

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.degrees)

    def __len__(self) -> int:
        return len(self.degrees)

    def __contains__(self, d) -> bool:
        return d in self.degrees

    def __eq__(self, other) -> bool:
        return isinstance(other, ValueSet) and self.degrees == other.degrees

    def __hash__(self) -> int:
        return hash(self.degrees)

    def __repr__(self) -> str:
        return f"ValueSet({{{', '.join(format_degree(d) for d in self.degrees)}}})"

    def gaps(self) -> Iterator[tuple[Fraction, Fraction]]:
        """Adjacent pairs (q_i, q_{i+1})."""
        return zip(self.degrees, self.degrees[1:])

    def with_midpoints(self) -> "ValueSet":
        """Refine with the midpoint of every gap; still a valid ValueSet."""
        mids = [(a + b) / 2 for a, b in self.gaps()]
        return ValueSet(self.degrees + tuple(mids))
