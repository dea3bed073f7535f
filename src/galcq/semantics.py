"""Exact fuzzy semantics on finite interpretations.

Evaluation follows the min-based equations: conjunction is min, implication
the residuum, negation 1-x, value restrictions are infima of edge-residua,
and at-least restrictions are suprema over tuples of pairwise-different
elements.  On a finite domain every infimum and supremum is attained, so
finite interpretations are witnessed by construction.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional

from .algebra import (
    ONE,
    ZERO,
    ValueSet,
    format_degree,
    involutive_negation,
    rel_holds,
    residuum,
    t_norm,
)
from .concepts import And, AtLeast, Concept, Forall, Implies, Name, Not, Top, first_occurrences
from .errors import BudgetExceededError, DegreeRangeError
from .ontology import ConceptAssertion, FuzzyOntology, roles as ontology_roles, value_closure
from .syntax import concept_to_sexpr


@dataclass
class FuzzyInterpretation:
    """Finite domain with rational-valued concept and role memberships.

    Unlisted values default to 0.  `individuals` maps each individual name
    to its domain element.
    """

    domain: tuple[int, ...]
    concept_values: dict[tuple[str, int], Fraction] = field(default_factory=dict)
    role_values: dict[tuple[str, int, int], Fraction] = field(default_factory=dict)
    individuals: dict[str, int] = field(default_factory=dict)
    _edges: Optional[dict] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for v in self.concept_values.values():
            if v < 0 or v > 1:
                raise DegreeRangeError(f"degree outside [0,1]: {v}")
        for v in self.role_values.values():
            if v < 0 or v > 1:
                raise DegreeRangeError(f"degree outside [0,1]: {v}")

    def concept_value(self, name: str, d: int) -> Fraction:
        return self.concept_values.get((name, d), ZERO)

    def role_value(self, role: str, d: int, e: int) -> Fraction:
        return self.role_values.get((role, d, e), ZERO)

    def edges(self, role: str, d: int) -> list[tuple[int, Fraction]]:
        """The `role`-successors e of d in the domain with a nonzero
        degree, as (e, degree) pairs; the index is built on first call."""
        if self._edges is None:
            domain = set(self.domain)
            self._edges = {}
            for (r, s, e), v in self.role_values.items():
                if v != 0 and e in domain:
                    self._edges.setdefault((r, s), []).append((e, v))
        return self._edges.get((role, d), [])


def evaluate_concept(
    i: FuzzyInterpretation, c: Concept, d: int, memo: Optional[dict] = None
) -> Fraction:
    """Exact degree of a normalized concept at element d."""
    if memo is None:
        memo = {}
    key = (c, d)
    if key in memo:
        return memo[key]
    match c:
        case Top():
            v = ONE
        case Name(name):
            v = i.concept_value(name, d)
        case Not(sub):
            v = involutive_negation(evaluate_concept(i, sub, d, memo))
        case And(left, right):
            v = t_norm(
                evaluate_concept(i, left, d, memo), evaluate_concept(i, right, d, memo)
            )
        case Implies(left, right):
            v = residuum(
                evaluate_concept(i, left, d, memo), evaluate_concept(i, right, d, memo)
            )
        case Forall(role, sub):
            # an element with degree 0 gives residuum(0, x) = 1, which no
            # infimum in [0, 1] moves, so only the nonzero edges are read
            v = min(
                (residuum(r, evaluate_concept(i, sub, e, memo)) for e, r in i.edges(role, d)),
                default=ONE,
            )
        case AtLeast(count, role, sub):
            # the best pairwise-different count-tuple takes the count largest
            # edge values, so the supremum of their minimum is the count-th
            # largest; an empty supremum (domain smaller than count) is 0.
            # An element with degree 0 gives t_norm(0, x) = 0, which cannot
            # raise the count-th largest above 0, so only the nonzero edges
            # are read, and fewer than count of them give 0 too
            top = heapq.nlargest(
                count,
                (t_norm(r, evaluate_concept(i, sub, e, memo)) for e, r in i.edges(role, d)),
            )
            v = top[-1] if len(top) == count else ZERO
        case _:
            raise TypeError(f"not a normalized fuzzy concept: {c!r}")
    memo[key] = v
    return v


@dataclass
class ModelReport:
    satisfied: bool
    violation: Optional[str] = None
    unchecked: tuple[int, ...] = ()


def check_fuzzy_model(
    i: FuzzyInterpretation,
    o: FuzzyOntology,
    elements: Optional[Iterable[int]] = None,
) -> ModelReport:
    """Check every assertion at the individual and every inclusion.

    Inclusions are checked at `elements` (default: the whole domain);
    skipped elements are reported as unchecked.
    """
    elems = tuple(elements) if elements is not None else i.domain
    checked = set(elems)
    unchecked = tuple(d for d in i.domain if d not in checked)
    memo: dict = {}
    root = i.individuals[o.individual]
    for a in o.abox:
        left = evaluate_concept(i, a.left.concept, root, memo)
        if isinstance(a.right, ConceptAssertion):
            right = evaluate_concept(i, a.right.concept, root, memo)
            desc = f"(inst {o.individual} {concept_to_sexpr(a.right.concept)})"
        else:
            right = a.right
            desc = format_degree(a.right)
        if not rel_holds(left, a.rel, right):
            violation = (
                f"assertion (inst {o.individual} {concept_to_sexpr(a.left.concept)}) "
                f"{a.rel} {desc} fails: {format_degree(left)} vs {format_degree(right)}"
            )
            return ModelReport(False, violation, unchecked)
    for g in o.tbox:
        for d in elems:
            lv = evaluate_concept(i, g.lhs, d, memo)
            rv = evaluate_concept(i, g.rhs, d, memo)
            if residuum(lv, rv) < g.degree:
                violation = (
                    f"inclusion (gci {concept_to_sexpr(g.lhs)} {concept_to_sexpr(g.rhs)} "
                    f">= {format_degree(g.degree)}) fails at {d}: residuum("
                    f"{format_degree(lv)}, {format_degree(rv)}) = "
                    f"{format_degree(residuum(lv, rv))}"
                )
                return ModelReport(False, violation, unchecked)
    return ModelReport(True, None, unchecked)


def default_grid(o: FuzzyOntology) -> ValueSet:
    """Ontology constants enriched with the midpoint of every gap.

    One fresh value strictly between adjacent constants suffices for the
    models this logic admits at small scale, so midpoints keep the search
    space small without losing easy models.
    """
    return value_closure(o).with_midpoints()


def concept_names(o: FuzzyOntology) -> tuple[str, ...]:
    """Concept names occurring in the ontology, in traversal order."""
    return first_occurrences(
        o.concepts(), lambda s: s.name if isinstance(s, Name) else None
    )


# Interpretations the grid oracle tries at one domain size, by default.
GRID_BUDGET = 300_000


def grid_search_fuzzy_model(
    o: FuzzyOntology,
    max_domain: int = 2,
    grid: Optional[ValueSet] = None,
    budget: int = GRID_BUDGET,
) -> Optional[FuzzyInterpretation]:
    """Search for a model with all values drawn from a finite grid.

    One-sided: a returned interpretation is a verified model; None only
    means no model exists with grid values and at most `max_domain`
    elements.  Raises BudgetExceededError before an unaffordable domain
    size, so None is never reported for a search that was not finished.
    """
    if grid is None:
        grid = default_grid(o)
    else:
        required = value_closure(o)
        if not all(q in grid for q in required):
            raise ValueError("grid must contain every ontology constant")
    names = concept_names(o)
    role_names = ontology_roles(o)
    g = len(grid)
    values = tuple(grid)
    for m in range(1, max_domain + 1):
        slots = len(names) * m
        edge_slots = len(role_names) * m * m
        total = (g ** slots) * (g ** edge_slots)
        if total > budget:
            raise BudgetExceededError(
                f"grid search at domain size {m} needs {total} interpretations"
            )
        domain = tuple(range(m))
        for concept_choice in itertools.product(values, repeat=slots):
            concept_values = {}
            k = 0
            for name in names:
                for d in domain:
                    concept_values[(name, d)] = concept_choice[k]
                    k += 1
            for role_choice in itertools.product(values, repeat=edge_slots):
                role_values = {}
                k = 0
                for role in role_names:
                    for d in domain:
                        for e in domain:
                            role_values[(role, d, e)] = role_choice[k]
                            k += 1
                interp = FuzzyInterpretation(
                    domain=domain,
                    concept_values=concept_values,
                    role_values=role_values,
                    individuals={o.individual: 0},
                )
                report = check_fuzzy_model(interp, o)
                if report.satisfied:
                    return interp
    return None
