import hashlib
import random

import pytest
from conftest import CORPUS, NODE_BUDGET, STEP_BUDGET

from galcq import (
    And,
    AtLeast,
    AtMost,
    BudgetExceededError,
    ClassicalOntology,
    Exists,
    Forall,
    Implies,
    Inclusion,
    Leq,
    Name,
    Not,
    Or,
    brute_force_consistency,
    check_classical_model,
    check_consistency,
    classical_to_sexpr,
    extract_classical_model,
    parse_ontology,
    reduce_ontology,
)
from galcq.concepts import TOP, quantifier_depth
from galcq.orders import ValueElement
from galcq.nnf import inclusion_nnf, mk_or, nnf, nnf_not, sort_key
from galcq.tableau import Tableau, _Interner
from fractions import Fraction

A = Name("A")
B = Name("B")


def test_direct_clash():
    o = ClassicalOntology((Inclusion(TOP, A),), (("a", Not(A)),), "a")
    assert not check_consistency(o).consistent


def test_counting_clash():
    # two A-successors are top-successors, so at-most-one-top clashes
    o = ClassicalOntology(
        (), (("a", And(AtLeast(2, "r", A), AtMost(1, "r", TOP))),), "a"
    )
    assert not check_consistency(o).consistent
    assert not brute_force_consistency(o, max_domain=3).consistent


def test_tautological_order_atom():
    atom = Leq(ValueElement(Fraction(0)), ValueElement(Fraction(1)))
    o = ClassicalOntology((Inclusion(TOP, atom),), (("a", atom),), "a")
    assert check_consistency(o).consistent


def test_merge_keeps_consistency():
    # three successors forced, at most two allowed: two of them merge
    o = ClassicalOntology(
        (),
        (("a", And(AtLeast(2, "r", A), And(Exists("r", B), AtMost(2, "r", TOP)))),),
        "a",
    )
    result = check_consistency(o)
    assert result.consistent
    graph = result.graph
    root = graph.nodes[graph.root]
    assert len(root.children) == 2


def test_blocking_terminates_infinite_chain():
    o = ClassicalOntology((Inclusion(TOP, Exists("r", TOP)),), (), "a")
    result = check_consistency(o, node_budget=50)
    assert result.consistent
    graph = result.graph
    assert any(node.blocked_by is not None for node in graph.nodes.values())


def test_budget_exhaustion_is_distinct():
    o = ClassicalOntology(
        (Inclusion(TOP, AtLeast(2, "r", TOP)), Inclusion(TOP, A)), (), "a"
    )
    with pytest.raises(BudgetExceededError):
        check_consistency(o, node_budget=3)


def test_choose_rule_completes_counting():
    # every r-successor must decide B: at most one B plus at least two tops
    o = ClassicalOntology(
        (Inclusion(TOP, Or(B, Not(B))),),
        (("a", And(AtLeast(2, "r", TOP), AtMost(0, "r", B))),),
        "a",
    )
    result = check_consistency(o)
    assert result.consistent
    for node in result.graph.nodes.values():
        assert B not in node.atoms or node.id == result.graph.root


def test_trace_emits_lines():
    lines = []
    o = ClassicalOntology((Inclusion(TOP, Or(A, B)),), (("a", Not(A)),), "a")
    assert check_consistency(o, trace=lines.append).consistent
    assert lines


def test_model_readback_from_completion():
    text = "(assert (inst a (some r A)) = 1/2)"
    o = parse_ontology(text)
    red = reduce_ontology(o)
    result = check_consistency(red)
    assert result.consistent
    depth = 4
    tree = extract_classical_model(result.graph, depth)
    margin = max(
        [quantifier_depth(c) for c in red.concepts()] + [0]
    )
    violations = check_classical_model(tree, red, elements=tree.interior(margin))
    assert violations == []


def test_extract_identity_without_blocking():
    o = ClassicalOntology((), (("a", Exists("r", A)),), "a")
    result = check_consistency(o)
    tree = extract_classical_model(result.graph, depth=4)
    assert len(tree.domain) == 2
    assert tree.cut == frozenset()


def test_extract_root_only():
    o = ClassicalOntology((), (("a", A),), "a")
    tree = extract_classical_model(check_consistency(o).graph, depth=4)
    assert tree.domain == (0,)


def test_extract_unravels_blocked_loop():
    o = ClassicalOntology((Inclusion(TOP, Exists("r", TOP)),), (), "a")
    tree = extract_classical_model(check_consistency(o, node_budget=50).graph, 4)
    depths = sorted(tree.depth.values())
    assert depths[-1] == 4
    assert tree.cut  # truncated at the requested depth
    assert check_classical_model(tree, o, elements=tree.interior(1)) == []


def test_extract_depth_validation():
    o = ClassicalOntology((), (("a", A),), "a")
    graph = check_consistency(o).graph
    with pytest.raises(ValueError):
        extract_classical_model(graph, 0)


def _random_concept(rng, depth):
    if depth == 0:
        return rng.choice((A, B))
    k = rng.randrange(8)
    left = _random_concept(rng, depth - 1)
    right = _random_concept(rng, depth - 1)
    if k == 0:
        return Not(left)
    if k == 1:
        return And(left, right)
    if k == 2:
        return Or(left, right)
    if k == 3:
        return Implies(left, right)
    if k == 4:
        return Forall("r", left)
    if k == 5:
        return AtLeast(rng.randint(1, 3), "r", left)
    if k == 6:
        return AtMost(rng.randint(0, 2), "r", left)
    return left


def test_agreement_with_brute_force_on_random_ontologies():
    rng = random.Random(2024)
    checked = 0
    for _ in range(120):
        inclusions = []
        for _ in range(rng.randint(1, 3)):
            lhs = TOP if rng.random() < 0.5 else _random_concept(rng, 1)
            inclusions.append(Inclusion(lhs, _random_concept(rng, 2)))
        assertions = (
            (("a", _random_concept(rng, 2)),) if rng.random() < 0.7 else ()
        )
        o = ClassicalOntology(tuple(inclusions), assertions, "a")
        try:
            brute = brute_force_consistency(o, max_domain=2, budget=60_000)
        except BudgetExceededError:
            continue
        try:
            tableau = check_consistency(o, node_budget=80, step_budget=400_000)
        except BudgetExceededError:
            continue
        checked += 1
        if brute.consistent:
            assert tableau.consistent, f"oracle found a model, tableau refused: {o}"
        if tableau.consistent:
            # blockers must be active: unblocked with unblocked ancestors
            graph = tableau.graph
            for node in graph.nodes.values():
                blocker = node.blocked_by
                if blocker is None:
                    continue
                x = blocker
                while x is not None:
                    assert graph.nodes[x].blocked_by is None
                    x = graph.nodes[x].parent
            # and the unraveled tree must satisfy the ontology away from cuts
            margin = max((quantifier_depth(c) for c in o.concepts()), default=0)
            tree = extract_classical_model(graph, depth=margin + 2)
            violations = check_classical_model(
                tree, o, elements=tree.interior(margin)
            )
            assert violations == [], f"{o}: {violations[:2]}"
    assert checked >= 60


# Search behaviour on the heaviest corpus entries, as (verdict, inclusions,
# base clauses, interned concepts, nodes created, steps, sha256 prefix of
# the printed reduction).  Interning order, base clause order and disjunct
# order decide the search, so any change to them moves these numbers.
PINNED = {
    "two-roles": (True, 10659, 10445, 12284, 7, 3890, "f3194964bdce0744"),
    "count-clash": (False, 17251, 16947, 18858, 3, 1796, "d1b452b3b95c29d4"),
    "duality": (True, 5681, 5541, 6440, 37, 11168, "0404f426a9d5e3ea"),
    "atmost-res": (True, 10418, 10204, 11556, 11, 4833, "a9838d4e4a85d866"),
    "forall-clash": (False, 13615, 13356, 15063, 2, 697, "f66013164866c31b"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_search_behaviour_is_pinned(name):
    red = reduce_ontology(parse_ontology(dict(CORPUS)[name]))
    tab = Tableau(red, NODE_BUDGET, STEP_BUDGET)
    result = tab.run()
    digest = hashlib.sha256(classical_to_sexpr(red).encode("utf-8")).hexdigest()[:16]
    observed = (
        result.consistent,
        len(red.inclusions),
        len(tab.base_list),
        len(tab.interner.objs),
        tab.created,
        tab.steps,
        digest,
    )
    assert observed == PINNED[name]


# Search on every corpus entry, as (verdict, base clauses, interned
# concepts, nodes created, steps), recorded by the session fixture's own
# tableau runs.
CORPUS_SEARCH = {
    "empty": (True, 175, 214, 1, 10),
    "assert-half": (True, 869, 1016, 1, 54),
    "godel-mid": (True, 2476, 2797, 1, 125),
    "godel-above": (True, 3755, 4172, 1, 165),
    "cmp-lt": (True, 2475, 2794, 1, 130),
    "cmp-eq-neg": (True, 2475, 2796, 1, 131),
    "implies-deg": (True, 7449, 8138, 1, 294),
    "gci-chain": (True, 3755, 4170, 1, 171),
    "gci-top": (True, 2477, 2795, 1, 104),
    "exists-half": (True, 2574, 3099, 3, 479),
    "forall-low": (True, 2574, 3101, 3, 482),
    "atleast-two": (True, 2574, 3097, 5, 798),
    "atmost-inv": (True, 2574, 3097, 5, 798),
    "atmost-res": (True, 10204, 11556, 11, 4833),
    "duality": (True, 5541, 6440, 37, 11168),
    "crisp-sat": (True, 2476, 2795, 1, 131),
    "two-roles": (True, 10445, 12284, 7, 3890),
    "loop-gci": (True, 2575, 3098, 3, 478),
    "open-interval": (True, 869, 1016, 1, 54),
    "neg-forall": (True, 2574, 3101, 3, 482),
    "godel-high": (False, 3755, 4172, 1, 5),
    "squeeze": (False, 1548, 1759, 1, 1),
    "top-neg": (False, 2477, 2795, 1, 3),
    "forall-clash": (False, 13356, 15063, 2, 697),
    "count-clash": (False, 16947, 18858, 3, 1796),
    "self-implies": (False, 2476, 2801, 1, 0),
    "top-low": (False, 870, 1016, 1, 0),
    "below-zero": (False, 869, 1016, 1, 0),
    "cmp-circle": (False, 2475, 2794, 1, 1),
    "res-atmost-midway": (False, 5542, 6434, 1, 8),
    "gci-force": (False, 2477, 2795, 1, 1),
    "exists-zero": (False, 10204, 11560, 3, 1445),
    "chain-squeeze": (False, 2477, 2796, 1, 9),
    "count-squeeze": (False, 3917, 4662, 1, 2),
}


def test_corpus_search_is_pinned(corpus_runs):
    observed = {run_.name: run_.search for run_ in corpus_runs}
    assert observed == CORPUS_SEARCH


# Static seed of the same entries: (label size, extra disjunctions, label
# fingerprint) of the facts every node starts from.
STATIC = {
    "two-roles": (106, 0, 0x7956169EEF5985B9),
    "count-clash": (171, 1, 0xE930649611259CE8),
    "duality": (59, 0, 0xECC6055E8A175D51),
    "atmost-res": (137, 3, 0x942A9746F8AD6B4F),
    "forall-clash": (168, 0, 0x3C4CF50B539D38CF),
}


@pytest.mark.parametrize("name", sorted(STATIC))
def test_static_seed_is_pinned(name):
    tab = Tableau(reduce_ontology(parse_ontology(dict(CORPUS)[name])))
    observed = (len(tab.static_label), len(tab.static_extra_ors), tab.static_fp)
    assert observed == STATIC[name]
    assert not tab.static_clash
    assert (tab.steps, tab.created, tab.nodes, tab.trail) == (0, 0, [], [])


def test_static_clash_decides_inconsistency():
    tab = Tableau(ClassicalOntology((Inclusion(TOP, And(A, Not(A))),), (), "a"))
    assert tab.static_clash
    assert not tab.run().consistent


def test_static_pass_is_not_traced():
    C = Name("C")
    o = ClassicalOntology(
        (Inclusion(TOP, A), Inclusion(A, B), Inclusion(TOP, Or(B, C))),
        (("a", Not(C)),),
        "a",
    )
    lines = []
    assert Tableau(o, trace=lines.append).run().consistent
    assert lines == []


# ---------------------------------------------------------------------------
# clause-level base clauses against the NNF path


def _reference_base(ontology):
    """Every inclusion through `intern(mk_or((nnf_not(lhs), nnf(rhs))))`,
    sorted by sort key: the base clauses as the NNF path alone builds them."""
    interner = _Interner()
    lits = interner.lits
    base = {
        interner.intern(mk_or((nnf_not(inc.lhs, lits), nnf(inc.rhs, lits))))
        for inc in ontology.inclusions
    }
    return tuple(sorted(base, key=lambda cid: sort_key(interner.objs[cid]))), interner


def _assert_base_matches_reference(ontology):
    tab = Tableau(ontology)
    reference, ref = _reference_base(ontology)
    got = tab.interner
    n = len(ref.objs)  # the tableau interns assertions and negations after
    assert tab.base_list == reference
    assert got.kinds[:n] == ref.kinds
    assert got.parts[:n] == ref.parts
    assert got.or_negs[:n] == ref.or_negs
    assert got.fingerprints[:n] == ref.fingerprints
    assert [repr(o) for o in got.objs[:n]] == [repr(o) for o in ref.objs]
    watched = {nd: [c for c in cids if c < n] for nd, cids in got.watch.items()}
    assert {nd: cids for nd, cids in watched.items() if cids} == ref.watch


def _chain(k):
    axioms = ["(assert (inst a A1) >= 1/2)"]
    axioms += [f"(gci A{i} A{i + 1} >= 1/2)" for i in range(1, k)]
    return "\n".join(axioms)


@pytest.mark.parametrize(
    "text",
    [text for _, text in CORPUS] + [_chain(k) for k in (1, 2, 3)],
    ids=[name for name, _ in CORPUS] + [f"chain-{k}" for k in (1, 2, 3)],
)
def test_clause_path_matches_nnf_path(text):
    _assert_base_matches_reference(reduce_ontology(parse_ontology(text)))


def test_clause_path_literal_shapes():
    a, b, c, d = (
        Leq(ValueElement(Fraction(p)), ValueElement(Fraction(q)))
        for p, q in ((0, 1), (1, 0), (1, 1), (0, 0))
    )
    clauses = (
        Inclusion(And(a, b), c),  # transitivity
        Inclusion(And(a, a), a),  # i = j = k: dedups to (or a (not a))
        Inclusion(a, b),  # antitonicity
        Inclusion(c, c),
        Inclusion(TOP, Or(b, a)),  # totality
        Inclusion(TOP, Or(d, d)),  # i = j: one literal
        Inclusion(TOP, c),  # constant order: a one-literal base entry
        Inclusion(TOP, Not(d)),
        Inclusion(a, Not(c)),
        Inclusion(And(b, c), Not(d)),
        Inclusion(And(c, d), Or(a, b)),
    )
    lits = _Interner().lits
    assert all(isinstance(inclusion_nnf(inc, lits), list) for inc in clauses)
    others = (
        Inclusion(TOP, And(a, b)),  # bounds
        Inclusion(a, Forall("r", b)),  # transfer
        Inclusion(TOP, Or(Not(a), b)),  # the clause of (a [= b), by the NNF path
        Inclusion(A, B),
        Inclusion(TOP, Or(c, Not(c))),
    )
    assert not any(isinstance(inclusion_nnf(inc, lits), list) for inc in others)
    _assert_base_matches_reference(ClassicalOntology(clauses + others, (), "a"))
    _assert_base_matches_reference(ClassicalOntology(others + clauses, (), "a"))
