import itertools
import random
import time

import pytest
from conftest import CORPUS

from galcq import (
    AtLeast,
    AtMost,
    BudgetExceededError,
    ClassicalOntology,
    Exists,
    Inclusion,
    Name,
    Not,
    Or,
    brute_force_consistency,
    check_classical_model,
    parse_ontology,
    reduce_ontology,
)
from galcq.bruteforce import _candidate_labels, _masks, _value
from galcq.concepts import BOT, TOP, And
from galcq.nnf import Literals, NAtom, mk_and, mk_or

A = Name("A")
B = Name("B")


def test_disjunction_consistent_at_size_one():
    o = ClassicalOntology((Inclusion(TOP, Or(A, B)),), (), "a")
    result = brute_force_consistency(o, max_domain=1)
    assert result.consistent
    assert result.model.domain == (0,)
    assert check_classical_model(result.model, o) == []


def test_self_loop_satisfies_existential():
    o = ClassicalOntology((Inclusion(TOP, Exists("r", TOP)),), (), "a")
    result = brute_force_consistency(o, max_domain=1)
    assert result.consistent
    assert (0, 0) in result.model.role_edges["r"]


def test_inconsistent_up_to_bound():
    o = ClassicalOntology((Inclusion(TOP, A), Inclusion(TOP, Not(A))), (), "a")
    result = brute_force_consistency(o, max_domain=2)
    assert not result.consistent
    assert result.completed_domain == 2


def test_counting_needs_three_elements():
    # three distinct successors require a three-element domain, even with
    # a self-loop at the root
    o = ClassicalOntology(
        (),
        (("a", And(AtLeast(3, "r", TOP), AtMost(3, "r", TOP))),),
        "a",
    )
    assert not brute_force_consistency(o, max_domain=2).consistent
    result = brute_force_consistency(o, max_domain=3)
    assert result.consistent
    assert len(result.model.domain) == 3


def test_budget_guard_raises():
    atoms = [Name(f"P{i}") for i in range(8)]
    o = ClassicalOntology(
        tuple(Inclusion(a, Or(b, Exists("r", b))) for a, b in zip(atoms, atoms[1:])),
        (("a", atoms[0]),),
        "a",
    )
    with pytest.raises(BudgetExceededError):
        brute_force_consistency(o, max_domain=3, budget=10)


def test_root_assertion_prefilter():
    o = ClassicalOntology((), (("a", And(A, Not(B))),), "a")
    result = brute_force_consistency(o, max_domain=1)
    assert result.consistent
    assert A in result.model.true_atoms[0]
    assert B not in result.model.true_atoms[0]


def test_empty_clause_leaves_no_label():
    # `top [= bot` reads as the empty clause: no element label exists, so
    # no interpretation is enumerated at any domain size
    C = Name("C")
    o = ClassicalOntology(
        (Inclusion(TOP, BOT), Inclusion(A, Exists("r", B))),
        (("a", Or(A, C)),),
        "a",
    )
    start = time.monotonic()
    result = brute_force_consistency(o, max_domain=3)
    assert time.monotonic() - start < 1.0
    assert (result.consistent, result.completed_domain) == (False, 3)


def test_label_enumeration_is_deeper_than_the_recursion_limit():
    # chain k = 8 has 1,369 atoms; a recursive enumeration overflowed the
    # interpreter's stack on its first descent, before any budget fired
    atoms = [Name(f"P{i}") for i in range(1_200)]
    o = ClassicalOntology(tuple(Inclusion(a, TOP) for a in atoms), (), "a")
    with pytest.raises(BudgetExceededError, match="label enumeration budget"):
        brute_force_consistency(o, max_domain=1, budget=2_000)


# Label-enumeration visits of the corpus reductions whose enumeration
# finishes: at budget V - 1 it runs out, at budget V it completes.
LABEL_VISITS = {
    "empty": 80,
    "top-low": 1_027,
    "assert-half": 8_528,
    "open-interval": 8_528,
    "below-zero": 8_528,
    "gci-force": 13_206,
    "top-neg": 13_230,
}


def test_label_enumeration_visits_are_pinned():
    texts = dict(CORPUS)
    for name, visits in LABEL_VISITS.items():
        reduction = reduce_ontology(parse_ontology(texts[name]))
        with pytest.raises(BudgetExceededError, match="label enumeration budget"):
            brute_force_consistency(reduction, max_domain=1, budget=visits - 1)
        try:
            brute_force_consistency(reduction, max_domain=1, budget=visits)
        except BudgetExceededError as e:
            assert "label enumeration" not in str(e), name


# Brute force on every corpus reduction at max domain 4 and budget 25,000,
# as (verdict, completed domain) or "skipped" when the budget ran out,
# recorded by the session fixture's own oracle runs.
CORPUS_BRUTE = {
    "empty": (True, 4),
    "assert-half": (True, 4),
    "godel-mid": "skipped",
    "godel-above": "skipped",
    "cmp-lt": "skipped",
    "cmp-eq-neg": "skipped",
    "implies-deg": "skipped",
    "gci-chain": "skipped",
    "gci-top": "skipped",
    "exists-half": "skipped",
    "forall-low": "skipped",
    "atleast-two": "skipped",
    "atmost-inv": "skipped",
    "atmost-res": "skipped",
    "duality": "skipped",
    "crisp-sat": "skipped",
    "two-roles": "skipped",
    "loop-gci": "skipped",
    "open-interval": (True, 4),
    "neg-forall": "skipped",
    "godel-high": "skipped",
    "squeeze": "skipped",
    "top-neg": (False, 4),
    "forall-clash": "skipped",
    "count-clash": "skipped",
    "self-implies": "skipped",
    "top-low": (False, 4),
    "below-zero": (False, 4),
    "cmp-circle": "skipped",
    "res-atmost-midway": "skipped",
    "gci-force": (False, 4),
    "exists-zero": "skipped",
    "chain-squeeze": "skipped",
    "count-squeeze": "skipped",
}


def test_corpus_brute_force_is_pinned(corpus_runs):
    observed = {
        run_.name: "skipped"
        if run_.brute_skipped
        else (run_.brute.consistent, run_.brute.completed_domain)
        for run_ in corpus_runs
    }
    assert observed == CORPUS_BRUTE


def _outcome(o):
    try:
        return brute_force_consistency(o, max_domain=4, budget=25_000)
    except BudgetExceededError as e:
        return str(e)


@pytest.mark.parametrize("name", [name for name, _ in CORPUS])
def test_brute_force_reads_the_structure_like_its_inclusions(name):
    # the reduction hands the oracle its order structure, read by position;
    # the same inclusions built by hand have none, so every transitivity
    # triple is read as an ordinary inclusion
    red = reduce_ontology(parse_ontology(dict(CORPUS)[name]))
    plain = ClassicalOntology(red.inclusions, red.assertions, red.individual)
    assert plain.order is None
    # verdict, completed domain and the model, atom by atom and edge by edge
    observed = _outcome(red)
    assert _outcome(plain) == observed
    if observed == "label enumeration budget exhausted":
        return
    visits = LABEL_VISITS[name]  # enumeration finishes: same visits
    with pytest.raises(BudgetExceededError, match="label enumeration budget"):
        brute_force_consistency(plain, max_domain=1, budget=visits - 1)
    try:
        brute_force_consistency(plain, max_domain=1, budget=visits)
    except BudgetExceededError as e:
        assert "label enumeration" not in str(e)


def _naive_labels(atoms, clauses, formulas):
    """Every assignment in enumeration order, filtered by every constraint."""
    out = []
    for values in itertools.product((False, True), repeat=len(atoms)):
        value = dict(zip(atoms, values))
        if all(
            any(value[d.atom] is (type(d) is NAtom) for d in clause)
            for clause in clauses
        ) and all(_value(f, value.__getitem__) for f in formulas):
            out.append(frozenset(a for a in atoms if value[a]))
    return out


def _labels(atoms, clauses, formulas):
    position = {a: p for p, a in enumerate(atoms)}
    masks = [_masks(clause, position) for clause in clauses]
    return _candidate_labels(atoms, masks, formulas, budget=10_000)


def test_candidate_labels_match_a_naive_filter():
    lits = Literals()
    atoms = tuple(Name(x) for x in "ABCD")
    pa, pb, pc, pd = (lits.atom(x) for x in atoms)
    na, nb, nc, nd = (lits.negated(x) for x in atoms)
    cases = {
        "tautology": ([[pb, nb, pa], [nc, pd]], []),
        "lone tautology": ([[pc, nc]], []),
        "tautology at the last position": ([[pa, nd, pd]], []),
        "repeated literal": ([[nc, nc, pa], [pd, pd]], []),
        "units": ([[pa], [nd], [nb, pc, pd]], []),
        "units that clash": ([[pb], [nb]], []),
        "empty clause": ([[pa, pb], []], []),
        "non-flat formula": (
            [[na, pd]],
            [mk_or((mk_and((pa, pb)), mk_and((na, pc))))],
        ),
        "formula of one atom": ([], [mk_and((pb, mk_or((pb, nb))))]),
    }
    for name, (clauses, formulas) in cases.items():
        expected = _naive_labels(atoms, clauses, formulas)
        assert _labels(atoms, clauses, formulas) == expected, name
    # the fold of one clause into another's masks, over random clause sets
    rng = random.Random(7)
    literals = [pa, pb, pc, pd, na, nb, nc, nd]
    for _ in range(300):
        clauses = [
            [rng.choice(literals) for _ in range(rng.randint(1, 4))]
            for _ in range(rng.randint(1, 6))
        ]
        assert _labels(atoms, clauses, []) == _naive_labels(atoms, clauses, []), clauses
