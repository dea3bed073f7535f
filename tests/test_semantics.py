import heapq
import itertools
import random
from fractions import Fraction

import pytest

from galcq import (
    And,
    AtLeast,
    BudgetExceededError,
    Top,
    Forall,
    FuzzyInterpretation,
    Implies,
    Name,
    Not,
    check_consistency,
    check_fuzzy_model,
    default_grid,
    evaluate_concept,
    extract_classical_model,
    extract_fuzzy_model,
    grid_search_fuzzy_model,
    involutive_negation,
    parse_ontology,
    reduce_ontology,
    residuum,
    sub_closure,
    t_norm,
)
from galcq.algebra import ONE, ZERO
from galcq.concepts import TOP

F = Fraction
A = Name("A")
B = Name("B")


def _single(concept_values=None, role_values=None, domain=(0,)):
    return FuzzyInterpretation(
        domain=domain,
        concept_values=concept_values or {},
        role_values=role_values or {},
        individuals={"a": 0},
    )


def test_negation_value():
    i = _single({("A", 0): F(3, 10)})
    assert evaluate_concept(i, Not(A), 0) == F(7, 10)


def test_top_and_default_zero():
    i = _single()
    assert evaluate_concept(i, TOP, 0) == 1
    assert evaluate_concept(i, A, 0) == 0


def test_duality_gap_values():
    # one successor with r=4/5 and A=9/10: the existential evaluates to
    # 4/5 while the negated value restriction evaluates to 9/10
    i = _single(
        {("A", 1): F(9, 10)},
        {("r", 0, 1): F(4, 5)},
        domain=(0, 1),
    )
    assert evaluate_concept(i, AtLeast(1, "r", A), 0) == F(4, 5)
    assert evaluate_concept(i, Not(Forall("r", Not(A))), 0) == F(9, 10)


def test_atleast_empty_supremum():
    i = _single({("A", 0): F(1)}, {("r", 0, 0): F(1)})
    assert evaluate_concept(i, AtLeast(2, "r", A), 0) == 0


def test_atleast_counts_distinct_tuples():
    i = _single(
        {("A", 0): F(1), ("A", 1): F(1, 2)},
        {("r", 0, 0): F(3, 4), ("r", 0, 1): F(1)},
        domain=(0, 1),
    )
    # best pair is {0, 1}: min(min(3/4, 1), min(1, 1/2)) = 1/2
    assert evaluate_concept(i, AtLeast(2, "r", A), 0) == F(1, 2)


def _atleast_by_enumeration(i, count, role, sub, d):
    """Reference: supremum over pairwise-different count-tuples of the min."""
    return max(
        (
            min(t_norm(i.role_value(role, d, e), evaluate_concept(i, sub, e)) for e in combo)
            for combo in itertools.combinations(i.domain, count)
        ),
        default=F(0),
    )


def test_atleast_matches_tuple_enumeration():
    rng = random.Random(11)
    grid = [F(k, 6) for k in range(7)]
    subs = (A, Not(A), And(A, B), AtLeast(1, "r", B), Forall("r", A))
    for _ in range(200):
        domain = tuple(range(rng.randint(1, 4)))
        i = _single(
            {(n, d): rng.choice(grid) for n in "AB" for d in domain},
            {("r", d, e): rng.choice(grid) for d in domain for e in domain},
            domain=domain,
        )
        sub = rng.choice(subs)
        count = rng.randint(1, 5)
        d = rng.choice(domain)
        expected = _atleast_by_enumeration(i, count, "r", sub, d)
        assert evaluate_concept(i, AtLeast(count, "r", sub), d) == expected


def test_forall_infimum_attained():
    i = _single(
        {("A", 0): F(1, 4), ("A", 1): F(3, 4)},
        {("r", 0, 0): F(1, 2), ("r", 0, 1): F(1)},
        domain=(0, 1),
    )
    value = evaluate_concept(i, Forall("r", A), 0)
    witnesses = [
        residuum(i.role_value("r", 0, e), evaluate_concept(i, A, e))
        for e in i.domain
    ]
    assert value == min(witnesses)  # attained on the finite domain
    assert value == F(1, 4)


def test_evaluator_agrees_with_algebra():
    rng = random.Random(5)
    grid = [F(k, 8) for k in range(9)]
    for _ in range(50):
        i = _single(
            {("A", 0): rng.choice(grid), ("B", 0): rng.choice(grid)}
        )
        va = evaluate_concept(i, A, 0)
        vb = evaluate_concept(i, B, 0)
        assert evaluate_concept(i, And(A, B), 0) == t_norm(va, vb)
        assert evaluate_concept(i, Implies(A, B), 0) == residuum(va, vb)


def test_check_fuzzy_model_assertions():
    o = parse_ontology("(assert (inst a A) >= 0.5)")
    good = _single({("A", 0): F(3, 5)})
    assert check_fuzzy_model(good, o).satisfied
    bad = _single({("A", 0): F(2, 5)})
    report = check_fuzzy_model(bad, o)
    assert not report.satisfied
    assert "2/5" in report.violation


def test_check_fuzzy_model_gci_residuum():
    o = parse_ontology("(gci A B >= 0.8)")
    bad = _single({("A", 0): F(1, 2), ("B", 0): F(2, 5)})
    report = check_fuzzy_model(bad, o)
    assert not report.satisfied
    assert "residuum" in report.violation


def test_check_fuzzy_model_unchecked_elements():
    o = parse_ontology("(gci top A >= 1)")
    i = _single({("A", 0): F(1)}, domain=(0, 1))
    report = check_fuzzy_model(i, o, elements=(0,))
    assert report.satisfied
    assert report.unchecked == (1,)


def test_comparison_assertions():
    o = parse_ontology("(assert-cmp (inst a A) < (inst a B))")
    assert check_fuzzy_model(
        _single({("A", 0): F(1, 4), ("B", 0): F(3, 4)}), o
    ).satisfied
    assert not check_fuzzy_model(
        _single({("A", 0): F(3, 4), ("B", 0): F(1, 4)}), o
    ).satisfied


def test_default_grid_has_midpoints():
    o = parse_ontology("(assert (inst a A) >= 0.5)")
    grid = default_grid(o)
    assert F(1, 4) in grid and F(3, 4) in grid


def test_grid_search_finds_half():
    o = parse_ontology("(assert (inst a (and A (not A))) >= 0.5)")
    model = grid_search_fuzzy_model(o, max_domain=1)
    assert model is not None
    assert model.concept_value("A", 0) == F(1, 2)
    assert check_fuzzy_model(model, o).satisfied


def test_grid_search_exhausts_godel_bound():
    o = parse_ontology("(assert (inst a (and A (not A))) >= 0.6)")
    assert grid_search_fuzzy_model(o, max_domain=2) is None


def test_grid_search_empty_ontology():
    o = parse_ontology("")
    model = grid_search_fuzzy_model(o, max_domain=1)
    assert model is not None
    assert model.domain == (0,)


def test_grid_search_budget():
    o = parse_ontology(
        "(assert (inst a (some r (and A (and B C)))) >= 1/2)"
    )
    with pytest.raises(BudgetExceededError):
        grid_search_fuzzy_model(o, max_domain=2, budget=10)


def test_grid_search_requires_covering_grid():
    from galcq import ValueSet

    o = parse_ontology("(assert (inst a A) >= 0.3)")
    with pytest.raises(ValueError):
        grid_search_fuzzy_model(o, grid=ValueSet([F(1, 2)]))


def test_grid_search_verifies_before_returning():
    o = parse_ontology("(assert-cmp (inst a (some r A)) < (inst a (not (all r (not A)))))")
    model = grid_search_fuzzy_model(o, max_domain=1)
    assert model is not None
    assert check_fuzzy_model(model, o).satisfied


def _whole_domain(i, c, d, memo):
    """The degree of `c` at d by the defining equations, every quantifier
    scanning the whole domain through `role_value`."""
    key = (c, d)
    if key not in memo:
        match c:
            case Top():
                v = ONE
            case Name(name):
                v = i.concept_value(name, d)
            case Not(sub):
                v = involutive_negation(_whole_domain(i, sub, d, memo))
            case And(left, right):
                v = t_norm(*(_whole_domain(i, x, d, memo) for x in (left, right)))
            case Implies(left, right):
                v = residuum(*(_whole_domain(i, x, d, memo) for x in (left, right)))
            case Forall(role, sub):
                v = min(
                    (
                        residuum(i.role_value(role, d, e), _whole_domain(i, sub, e, memo))
                        for e in i.domain
                    ),
                    default=ONE,
                )
            case AtLeast(count, role, sub):
                top = heapq.nlargest(
                    count,
                    (
                        t_norm(i.role_value(role, d, e), _whole_domain(i, sub, e, memo))
                        for e in i.domain
                    ),
                )
                v = top[-1] if len(top) == count else ZERO
        memo[key] = v
    return memo[key]


def _assert_evaluators_agree(i, concepts):
    memo, reference = {}, {}
    for c in concepts:
        for d in i.domain:
            expected = _whole_domain(i, c, d, reference)
            assert evaluate_concept(i, c, d, memo) == expected, (c, d)


QUANTIFIED = (
    Forall("r", A),
    Forall("r", Not(Forall("s", B))),
    AtLeast(1, "r", A),
    AtLeast(2, "r", Implies(A, B)),
    AtLeast(3, "s", Not(AtLeast(1, "r", A))),
    And(AtLeast(2, "r", Forall("r", A)), Forall("s", AtLeast(2, "s", B))),
)


def test_successor_evaluation_matches_the_whole_domain():
    # on random interpretations with degree-0 edges, edges to elements
    # outside the domain and elements with fewer successors than a count
    rng = random.Random(18)
    grid = (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))
    for _ in range(200):
        domain = tuple(range(rng.randint(1, 4)))
        concepts = {(n, d): rng.choice(grid) for n in "AB" for d in domain}
        roles = {
            (r, d, e): rng.choice(grid)
            for r in "rs"
            for d in domain
            for e in domain + (len(domain),)
            if rng.random() < 0.6
        }
        i = _single(concepts, roles, domain)
        _assert_evaluators_agree(i, QUANTIFIED)


def test_successor_evaluation_matches_on_grid_models_and_trees(corpus_runs):
    grids = trees = 0
    for run_ in corpus_runs:
        o, red = run_.ontology, run_.reduction
        concepts = sub_closure(o)
        if run_.grid_model is not None:
            _assert_evaluators_agree(run_.grid_model, concepts + QUANTIFIED)
            grids += bool(red.order.roles)
        if run_.graph is not None:
            tree = extract_classical_model(run_.graph, 3)
            interp, _ = extract_fuzzy_model(tree, red.order, o.individual)
            _assert_evaluators_agree(interp, concepts)
            trees += len(interp.domain) > 1
    assert grids >= 3 and trees >= 5


def test_role_reads_grow_linearly_with_tree_size(monkeypatch):
    # each element reads its own edges once per quantified concept, so a
    # tree four times as large is read four times as often, not sixteen
    reads = [0]
    role_value, edges = FuzzyInterpretation.role_value, FuzzyInterpretation.edges

    def counted_role_value(self, role, d, e):
        reads[0] += 1
        return role_value(self, role, d, e)

    def counted_edges(self, role, d):
        out = edges(self, role, d)
        reads[0] += len(out)
        return out

    monkeypatch.setattr(FuzzyInterpretation, "role_value", counted_role_value)
    monkeypatch.setattr(FuzzyInterpretation, "edges", counted_edges)
    o = parse_ontology("(gci top (atleast 2 r A) >= 1/2)")
    red = reduce_ontology(o)
    graph = check_consistency(red).graph
    sizes, counts = [], []
    for depth in (6, 8):
        tree = extract_classical_model(graph, depth)
        interp, _ = extract_fuzzy_model(tree, red.order, o.individual)
        reads[0] = 0
        assert check_fuzzy_model(interp, o, tree.interior(1)).satisfied
        sizes.append(len(interp.domain))
        counts.append(reads[0])
    assert sizes[1] > 3.9 * sizes[0] and counts[0] > 0
    assert counts[1] <= 4.1 * counts[0]
