"""Ontology types and their syntactic closures.

An ontology couples an ordered ABox (assertions comparing truth degrees of
concept memberships) with a TBox of graded concept inclusions.  Only local
ABoxes are supported: no role assertions and a single individual.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Union

from .algebra import ValueSet
from .concepts import (
    Concept,
    first_occurrences,
    negate,
    quantifier_depth,
    role_of,
)

RELATIONS = ("<", "<=", "=", ">=", ">")


@dataclass(frozen=True, slots=True)
class ConceptAssertion:
    individual: str
    concept: Concept


@dataclass(frozen=True, slots=True)
class RoleAssertion:
    subject: str
    object: str
    role: str


ClassicalAssertion = Union[ConceptAssertion, RoleAssertion]


@dataclass(frozen=True, slots=True)
class OrderAssertion:
    """left <rel> right, where right is a degree or a second assertion."""

    left: ClassicalAssertion
    rel: str
    right: Union[Fraction, ClassicalAssertion]


@dataclass(frozen=True, slots=True)
class FuzzyGCI:
    """lhs is included in rhs to at least `degree`."""

    lhs: Concept
    rhs: Concept
    degree: Fraction


@dataclass(frozen=True, slots=True)
class FuzzyOntology:
    abox: tuple[OrderAssertion, ...]
    tbox: tuple[FuzzyGCI, ...]
    individual: str = "a"

    def concepts(self) -> Iterator[Concept]:
        """Assertion concepts, then each inclusion's two sides, in order."""
        for assertion in self.abox:
            for side in (assertion.left, assertion.right):
                if isinstance(side, ConceptAssertion):
                    yield side.concept
        for gci in self.tbox:
            yield gci.lhs
            yield gci.rhs


def is_local(abox: Iterable[OrderAssertion]) -> bool:
    """True iff the ABox has no role assertions and at most one individual."""
    individuals = set()
    for assertion in abox:
        for side in (assertion.left, assertion.right):
            if isinstance(side, RoleAssertion):
                return False
            if isinstance(side, ConceptAssertion):
                individuals.add(side.individual)
    return len(individuals) <= 1


def close_under_negation(concepts: Iterable[Concept]) -> tuple[Concept, ...]:
    """Append the negation of each concept, collapsing double negations."""
    out = dict.fromkeys(concepts)
    for c in list(out):
        out.setdefault(negate(c))
    return tuple(out)


def sub_closure(o: FuzzyOntology) -> tuple[Concept, ...]:
    """Subconcepts of the ontology, closed under single negation.

    Order is deterministic: post-order traversal of the ABox then TBox
    concepts, duplicates dropped, negations appended afterwards.  Expects a
    normalized ontology.
    """
    return close_under_negation(first_occurrences(o.concepts(), lambda s: s))


def value_closure(o: FuzzyOntology) -> ValueSet:
    """Degrees of the ontology closed under 1-x, plus {0, 1/2, 1}."""
    degrees = [a.right for a in o.abox if isinstance(a.right, Fraction)]
    degrees.extend(gci.degree for gci in o.tbox)
    return ValueSet(degrees)


def roles(o: FuzzyOntology) -> tuple[str, ...]:
    """Role names in order of first occurrence."""
    return first_occurrences(o.concepts(), role_of)


def certification_margin(o: FuzzyOntology) -> int:
    """Distance from the truncated leaves beyond which an extracted model
    must satisfy the ontology: the largest quantifier depth of a concept in
    an assertion or an inclusion, 0 when there is none."""
    return max(map(quantifier_depth, o.concepts()), default=0)
