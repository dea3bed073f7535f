"""Shared corpus of small ontologies and cached pipeline results.

Every entry stays within: at most 3 concept names, 2 roles, cardinalities
up to 3, and 4 distinct degrees.  The mix covers both at-most expansions,
comparisons between assertions, graded inclusions, and both verdicts.
"""

import time
from dataclasses import dataclass
from typing import Optional

import pytest

import galcq
from galcq.concepts import children
from galcq.tableau import Tableau

CORPUS = [
    # --- consistent -------------------------------------------------------
    ("empty", ""),
    ("assert-half", "(assert (inst a A) >= 0.5)"),
    ("godel-mid", "(assert (inst a (and A (not A))) >= 0.5)"),
    ("godel-above", "(assert (inst a (and A (not A))) > 0.3)"),
    ("cmp-lt", "(assert-cmp (inst a A) < (inst a B))"),
    ("cmp-eq-neg", "(assert-cmp (inst a A) = (inst a (not B)))"),
    ("implies-deg", "(assert (inst a (implies A B)) >= 0.6)"),
    ("gci-chain", "(gci A B >= 1/2)\n(assert (inst a A) >= 3/4)"),
    ("gci-top", "(gci top A >= 1/2)"),
    ("exists-half", "(assert (inst a (some r A)) = 1/2)"),
    ("forall-low", "(assert (inst a (all r B)) <= 1/2)"),
    ("atleast-two", "(assert (inst a (atleast 2 r A)) >= 1/2)"),
    ("atmost-inv", "(assert (inst a (atmost 1 r A)) >= 1/2)"),
    (
        "atmost-res",
        "(set-option :atmost residual)\n(assert (inst a (atmost 1 r A)) >= 1/2)",
    ),
    (
        "duality",
        "(assert-cmp (inst a (some r A)) < (inst a (not (all r (not A)))))",
    ),
    ("crisp-sat", "(assert (inst a A) >= 1)\n(gci A B >= 1)"),
    (
        "two-roles",
        "(assert (inst a (some r A)) >= 1/2)\n(assert (inst a (some s B)) >= 1/2)",
    ),
    ("loop-gci", "(gci A (some r A) >= 1/2)\n(assert (inst a A) >= 1/2)"),
    ("open-interval", "(assert (inst a A) > 0)\n(assert (inst a A) < 1)"),
    ("neg-forall", "(assert (inst a (not (all r A))) >= 1/2)"),
    # --- inconsistent -----------------------------------------------------
    ("godel-high", "(assert (inst a (and A (not A))) >= 0.6)"),
    ("squeeze", "(assert (inst a A) >= 3/4)\n(assert (inst a A) < 1/2)"),
    ("top-neg", "(gci top (not A) >= 1)\n(assert (inst a A) > 0)"),
    (
        "forall-clash",
        "(gci top (all r (not A)) >= 1)\n(assert (inst a (some r A)) >= 3/4)",
    ),
    (
        "count-clash",
        "(assert (inst a (and (atleast 2 r A) (atmost 1 r top))) >= 1)",
    ),
    ("self-implies", "(assert (inst a (implies A A)) < 1)"),
    ("top-low", "(assert (inst a top) < 1)"),
    ("below-zero", "(assert (inst a B) < 0)"),
    (
        "cmp-circle",
        "(assert-cmp (inst a A) < (inst a B))\n(assert-cmp (inst a B) < (inst a A))",
    ),
    (
        "res-atmost-midway",
        "(set-option :atmost residual)\n(assert (inst a (atmost 1 r top)) = 1/2)",
    ),
    ("gci-force", "(gci top A >= 1)\n(assert (inst a A) < 1)"),
    (
        "exists-zero",
        "(assert (inst a (some r top)) = 0)\n(assert (inst a (some r A)) >= 1/2)",
    ),
    (
        "chain-squeeze",
        "(gci A B >= 1)\n(gci B (not A) >= 1)\n(assert (inst a A) > 1/2)",
    ),
    (
        "count-squeeze",
        "(assert (inst a (atleast 3 r A)) >= 1/4)\n(assert (inst a (atmost 2 r A)) >= 1)",
    ),
]

NODE_BUDGET = 600
STEP_BUDGET = 40_000_000
GRID_BUDGET = 250_000
BRUTE_BUDGET = 25_000


def concept_size(c):
    """Number of AST nodes."""
    return 1 + sum(concept_size(k) for k in children(c))


def ontology_size(o):
    """Crude input-size measure: total AST nodes plus one per axiom."""
    return len(o.abox) + len(o.tbox) + sum(concept_size(c) for c in o.concepts())


def by_position_count(order):
    """The number of distinct clauses the tableau reads by position from
    the order structure `order` (None for none), over representatives:
    the triples over three distinct positions, those of (i, j, k) and of
    its image (inv k, inv j, inv i) being one; the clauses `r or not r
    or not leq(m, m)` of the triples (i, i, k) and (i, k, k), i != k, one
    per representative r of a self-partner pair (k = inv i) and two per
    other; the totality clause of every pair, that of {i, j} being that
    of {inv i, inv j}; and the two transfer clauses of every (i, j), i !=
    j, over base positions and role, those of (i, j) being those of (inv
    j, inv i).  The involution fixes at most one position (the constant
    1/2), and each count of images is halved after adding its
    self-images."""
    if order is None:
        return 0
    n, m = len(order), len(order.up)
    fixed = sum(order.inverse[p] == p for p in range(n))
    triples = (n * (n - 1) * (n - 2) + fixed * (n - 1)) // 2
    literals = (n * (n - 1) + n - fixed) // 2  # representatives off the diagonal
    tautologies = 2 * literals - (n - fixed)
    totality = (n * (n - 1) // 2 + (n - fixed) // 2) // 2
    transfer = (m * (m - 1) + m - fixed) // 2 * 2 * len(order.roles)
    return triples + tautologies + totality + transfer


def static_label(tab):
    """The concept ids that a tableau's static pass adds to its seed node
    after the base concepts, in label order."""
    return tuple(tab.seed.label)[len(tab.base_list) :]


def classical_concepts(o):
    """Both sides of every `ClassicalOntology.inclusions` entry, then the
    assertions' concepts."""
    for inc in o.inclusions:
        yield inc.lhs
        yield inc.rhs
    for _, c in o.assertions:
        yield c


@dataclass
class CorpusRun:
    name: str
    text: str
    ontology: object
    reduction: object
    consistent: bool
    graph: Optional[object]
    tableau_seconds: float
    # (verdict, base clauses, interned concepts, nodes created, steps,
    # clauses read by position, `by_position_count`)
    search: tuple
    grid_model: Optional[object] = None
    grid_skipped: bool = False
    brute: Optional[object] = None
    brute_skipped: bool = False
    # time spent in the grid and brute-force oracles
    oracle_seconds: float = 0.0


@pytest.fixture(scope="session")
def corpus_runs():
    runs = []
    for name, text in CORPUS:
        ontology = galcq.parse_ontology(text)
        reduction = galcq.reduce_ontology(ontology)
        start = time.monotonic()
        tab = Tableau(reduction, node_budget=NODE_BUDGET, step_budget=STEP_BUDGET)
        result = tab.run()
        elapsed = time.monotonic() - start
        run = CorpusRun(
            name=name,
            text=text,
            ontology=ontology,
            reduction=reduction,
            consistent=result.consistent,
            graph=result.graph,
            tableau_seconds=elapsed,
            search=(
                result.consistent,
                len(tab.base_list),
                len(tab.interner.objs),
                tab.created,
                tab.steps,
                by_position_count(reduction.order),
            ),
        )
        start = time.monotonic()
        try:
            run.grid_model = galcq.grid_search_fuzzy_model(
                ontology, max_domain=2, budget=GRID_BUDGET
            )
        except galcq.BudgetExceededError:
            run.grid_skipped = True
        try:
            run.brute = galcq.brute_force_consistency(
                reduction, max_domain=4, budget=BRUTE_BUDGET
            )
        except galcq.BudgetExceededError:
            run.brute_skipped = True
        run.oracle_seconds = time.monotonic() - start
        runs.append(run)
    return runs
