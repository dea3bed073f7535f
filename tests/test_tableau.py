import hashlib
import itertools
import pathlib
import random

import pytest
from hypothesis import assume, given, reject, settings
from conftest import (
    CORPUS,
    NODE_BUDGET,
    STEP_BUDGET,
    by_position_count,
    classical_concepts,
    static_label,
)
from test_differential import MAX_ELEMENTS, ONTOLOGIES, STEP_BUDGET as RANDOM_STEP_BUDGET

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
    OrderStructure,
    brute_force_consistency,
    certify,
    check_classical_model,
    check_consistency,
    classical_to_sexpr,
    extract_classical_model,
    parse_ontology,
    reduce_ontology,
)
from galcq.classical_model import fact_axioms
from galcq.concepts import TOP, quantifier_depth
from galcq.orders import ValueElement
from galcq.nnf import (
    NAtom,
    NForall,
    NNegAtom,
    NOr,
    inclusion_nnf,
    mk_or,
    negate_nnf,
    nnf,
    nnf_not,
    sort_key,
)
from galcq.tableau import (
    _KIND_AND,
    _KIND_ATOM,
    _KIND_ATLEAST,
    _KIND_ATMOST,
    _KIND_FORALL,
    _KIND_NEGATOM,
    _KIND_OR,
    _CLASHED,
    Tableau,
    _Clash,
    _Interner,
    _positions,
)
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


@pytest.mark.parametrize("disjoint", [False, True])
def test_merge_sends_universal_fillers_to_existing_successors(disjoint):
    # the two r-successors merge into n1, whose s-successor n3 exists
    # already: the absorbed `all s D` reaches n3 by the forall rule, and
    # with C [= not D it clashes there
    C, D = Name("C"), Name("D")
    o = ClassicalOntology(
        (Inclusion(C, Not(D)),) if disjoint else (),
        (
            ("a", Exists("r", And(A, Exists("s", C)))),
            ("a", Exists("r", And(B, Forall("s", D)))),
            ("a", AtMost(1, "r", TOP)),
        ),
        "a",
    )
    lines = []
    result = check_consistency(o, trace=lines.append)
    assert result.consistent == brute_force_consistency(o, max_domain=3).consistent
    assert result.consistent != disjoint
    merge = lines.index("merge n1 <- n2")
    if disjoint:
        # the forall rule's addition of D at n3 clashes, which is traced
        # instead of the forall line
        assert lines.index("unit n3 NNegAtom(atom=Name(name='D'))") < merge
        assert lines[merge + 1] == "clash n3 NAtom(atom=Name(name='D'))"
    else:
        assert lines.index("forall n3 NAtom(atom=Name(name='D'))") > merge
        assert D in result.graph.nodes[3].atoms


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
        [quantifier_depth(c) for c in classical_concepts(red)] + [0]
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
            margin = max((quantifier_depth(c) for c in classical_concepts(o)), default=0)
            tree = extract_classical_model(graph, depth=margin + 2)
            violations = check_classical_model(
                tree, o, elements=tree.interior(margin)
            )
            assert violations == [], f"{o}: {violations[:2]}"
    assert checked >= 60


# Search behaviour on the heaviest corpus entries, as (verdict, inclusions,
# base clauses, interned concepts, nodes created, steps, sha256 prefix of
# the printed reduction).  Interning order, base clause order and disjunct
# order decide the search, so any change to them moves these numbers.  The
# base clause and interned concept columns count every clause read by
# position over representatives (`by_position_count`) as one of each, as
# if it were interned, and none of the antitonicity clauses, the triples
# that hold a base fact leq(m, m) or the transfer clauses at i = j, which
# are not base clauses of the tableau (the inclusion column, from
# `ClassicalOntology.inclusions`, still counts them).
PINNED = {
    "two-roles": (True, 10659, 4797, 6208, 7, 2070, "f3194964bdce0744"),
    "count-clash": (False, 17251, 7869, 9482, 3, 944, "d1b452b3b95c29d4"),
    "duality": (True, 5681, 2495, 3260, 28, 4683, "0404f426a9d5e3ea"),
    "atmost-res": (True, 10418, 4678, 5822, 9, 1971, "a9838d4e4a85d866"),
    "forall-clash": (False, 13615, 6169, 7583, 2, 352, "f66013164866c31b"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_search_behaviour_is_pinned(name):
    red = reduce_ontology(parse_ontology(dict(CORPUS)[name]))
    tab = Tableau(red, NODE_BUDGET, STEP_BUDGET)
    result = tab.run()
    digest = hashlib.sha256(classical_to_sexpr(red).encode("utf-8")).hexdigest()[:16]
    by_position = by_position_count(red.order)
    observed = (
        result.consistent,
        len(red.inclusions),
        len(tab.base_list) + by_position,
        len(tab.interner.objs) + by_position,
        tab.created,
        tab.steps,
        digest,
    )
    assert observed == PINNED[name]


# Search on every corpus entry, as (verdict, base clauses, interned
# concepts, nodes created, steps), recorded by the session fixture's own
# tableau runs; the base clause and interned concept columns count every
# clause read by position as one of each, as `PINNED` does.
CORPUS_SEARCH = {
    "empty": (True, 67, 110, 1, 6),
    "assert-half": (True, 361, 514, 1, 30),
    "godel-mid": (True, 1080, 1409, 1, 67),
    "godel-above": (True, 1666, 2098, 1, 87),
    "cmp-lt": (True, 1079, 1406, 1, 70),
    "cmp-eq-neg": (True, 1079, 1408, 1, 71),
    "implies-deg": (True, 3380, 4086, 1, 154),
    "gci-chain": (True, 1666, 2096, 1, 91),
    "gci-top": (True, 1081, 1407, 1, 56),
    "exists-half": (True, 1128, 1577, 3, 263),
    "forall-low": (True, 1128, 1579, 3, 266),
    "atleast-two": (True, 1128, 1575, 5, 438),
    "atmost-inv": (True, 1128, 1575, 5, 438),
    "atmost-res": (True, 4678, 5822, 9, 1971),
    "duality": (True, 2495, 3260, 28, 4683),
    "crisp-sat": (True, 1080, 1407, 1, 71),
    "two-roles": (True, 4797, 6208, 7, 2070),
    "loop-gci": (True, 1129, 1576, 3, 262),
    "open-interval": (True, 361, 514, 1, 30),
    "neg-forall": (True, 1128, 1579, 3, 266),
    "godel-high": (False, 1666, 2098, 1, 1),
    "squeeze": (False, 663, 887, 1, 1),
    "top-neg": (False, 1081, 1407, 1, 1),
    "forall-clash": (False, 6169, 7583, 2, 352),
    "count-clash": (False, 7869, 9482, 3, 944),
    "self-implies": (False, 1080, 1413, 1, 0),
    "top-low": (False, 362, 514, 1, 0),
    "below-zero": (False, 361, 514, 1, 0),
    "cmp-circle": (False, 1079, 1406, 1, 1),
    "res-atmost-midway": (False, 2496, 3254, 1, 9),
    "gci-force": (False, 1081, 1407, 1, 1),
    "exists-zero": (False, 4678, 5826, 3, 767),
    "chain-squeeze": (False, 1081, 1408, 1, 10),
    "count-squeeze": (False, 1746, 2362, 1, 1),
}


def test_corpus_search_is_pinned(corpus_runs):
    observed = {}
    for run_ in corpus_runs:
        consistent, base, interned, created, steps, by_position = run_.search
        observed[run_.name] = (
            consistent,
            base + by_position,
            interned + by_position,
            created,
            steps,
        )
    assert observed == CORPUS_SEARCH


# Search on the benchmark's counting family F(k, q) and criterion-5 chain,
# as (verdict, nodes created, steps).
FAMILY_SEARCH = {
    ("counting", 1, "1/4"): (True, 13, 3941),
    ("counting", 1, "1/2"): (True, 11, 2747),
    ("counting", 1, "3/4"): (False, 3, 741),
    ("counting", 2, "1/4"): (True, 19, 5568),
    ("counting", 2, "1/2"): (True, 16, 3992),
    ("counting", 2, "3/4"): (False, 4, 863),
    ("counting", 3, "1/4"): (True, 25, 7195),
    ("counting", 3, "1/2"): (True, 21, 5237),
    ("counting", 3, "3/4"): (False, 5, 985),
    ("chain", 1, None): (True, 1, 30),
    ("chain", 2, None): (True, 1, 70),
    ("chain", 3, None): (True, 1, 126),
    ("chain", 4, None): (True, 1, 198),
    ("chain", 5, None): (True, 1, 286),
}


@pytest.mark.parametrize("family, k, q", list(FAMILY_SEARCH), ids=str)
def test_family_search_is_pinned(family, k, q):
    text = _counting_text(k, q) if family == "counting" else _chain(k)
    tab = Tableau(reduce_ontology(parse_ontology(text)), NODE_BUDGET, STEP_BUDGET)
    result = tab.run()
    assert (result.consistent, tab.created, tab.steps) == FAMILY_SEARCH[family, k, q]


# The q = 1/4 inputs are the counting ones whose search meets failed
# branches, so the order in which branches are tried decides their models;
# each certifies at the benchmark's depth 3.
@pytest.mark.parametrize("k", (1, 2, 3))
def test_counting_models_certify(k):
    ontology = parse_ontology(_counting_text(k, "1/4"))
    red = reduce_ontology(ontology)
    result = Tableau(red, NODE_BUDGET, STEP_BUDGET).run()
    assert result.consistent
    certify(ontology, red, result.graph, depth=3)


# Nested counting under the residual at-most reduces to 49 order elements.
# Tried in a fixed order at every node, the branches exhaust the default
# 2,000,000 steps; trying each clause's last branch first decides it in
# about 200,000.
RESIDUAL_49 = (
    "(set-option :atmost residual)\n"
    "(assert-cmp (inst a (atmost 1 s A)) <= (inst a (some s top)))\n"
    "(gci (atmost 0 s C) (some r (atmost 1 r C)) >= 1/2)"
)


def test_residual_atmost_49_element_input_is_decided():
    ontology = parse_ontology(RESIDUAL_49)
    red = reduce_ontology(ontology)
    assert len(red.order.elements) == 49
    result = Tableau(red, NODE_BUDGET, 300_000).run()
    assert result.consistent
    certify(ontology, red, result.graph, depth=4)


# Static seed of the same entries: (label size, extra disjunctions, sha256
# prefix of the label's concepts in label order) of the facts every node
# starts from.  The label order is what new nodes copy and merges iterate.
STATIC = {
    "two-roles": (58, 0, "7ffe3b47f11517fb"),
    "count-clash": (91, 1, "7ab8ee7203802bcb"),
    "duality": (33, 0, "f08877dddc11f403"),
    "atmost-res": (74, 3, "b0188455abd1f229"),
    "forall-clash": (90, 0, "c5535932e42b3960"),
}


@pytest.mark.parametrize("name", sorted(STATIC))
def test_static_seed_is_pinned(name):
    tab = Tableau(reduce_ontology(parse_ontology(dict(CORPUS)[name])))
    added = static_label(tab)
    label = "\n".join(repr(tab.interner.objs[cid]) for cid in added)
    digest = hashlib.sha256(label.encode("utf-8")).hexdigest()[:16]
    observed = (len(added), len(tab.seed.extra_ors), digest)
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


def _families(ontology):
    """The slices of `ontology.inclusions` that its order structure fixes,
    with the element positions of each entry: transitivity (i, j, k),
    totality (i, j), the bounds and constant facts (no positions),
    antitonicity (i, j) and transfer (i, j, role, negated); empty without
    a structure."""
    if ontology.order is None:
        return [], [], [], [], []
    u = ontology.order
    n, m = len(u), len(u.up)
    inclusions = ontology.inclusions
    facts = len(fact_axioms(u))
    transfer = 2 * m * m * len(u.roles)
    cut = list(itertools.accumulate((n**3, n * n, facts, n * n, transfer)))
    positions = (
        itertools.product(range(n), repeat=3),
        itertools.product(range(n), repeat=2),
        itertools.repeat(()),
        itertools.product(range(n), repeat=2),
        itertools.product(range(m), range(m), u.roles, (False, True)),
    )
    return [
        list(zip(inclusions[start:end], at))
        for start, end, at in zip([0] + cut, cut, positions)
    ]


def _representatives(order):
    """The rewriting of classical concepts that replaces every atom of the
    order structure `order` (None for none) by its representative: of
    `Leq(a, b)` and its antitone partner `Leq(inv b, inv a)`, the one of
    lower sort key."""
    if order is None:
        return lambda c: c
    t, inv = order.table, order.inverse
    rep = {}
    for i, j in itertools.product(range(len(t)), repeat=2):
        rep[t[i][j]] = min(t[i][j], t[inv[j]][inv[i]], key=lambda a: sort_key(NAtom(a)))

    def rewrite(c):
        match c:
            case Leq():
                return rep[c]
            case Not(sub):
                return Not(rewrite(sub))
            case And() | Or() | Implies():
                return type(c)(rewrite(c.left), rewrite(c.right))
            case Exists(role, sub) | Forall(role, sub):
                return type(c)(role, rewrite(sub))
            case AtLeast(count, role, sub) | AtMost(count, role, sub):
                return type(c)(count, role, rewrite(sub))
        return c

    return rewrite


def _rewritten(rewrite, inclusions):
    return tuple(Inclusion(rewrite(inc.lhs), rewrite(inc.rhs)) for inc in inclusions)


def _quotient(ontology):
    """The structure-less copy of `ontology`: its whole listing
    `ontology.inclusions` and its assertions with every order atom
    replaced by its representative."""
    rewrite = _representatives(ontology.order)
    return ClassicalOntology(
        _rewritten(rewrite, ontology.inclusions),
        tuple((ind, rewrite(c)) for ind, c in ontology.assertions),
        ontology.individual,
    )


def _read_inclusions(ontology):
    """The inclusions the tableau reads, every order atom replaced by its
    representative: all but the antitonicity clauses, each `not r or r`,
    the transfer clauses at i = j, and the transitivity triples (i, j, i),
    which hold the base fact leq(i, i); the triples (i, i, k) and (i, k,
    k), i != k, read `r or not r`, and not a base fact."""
    triples, totality, facts, antitone, transfer = _families(ontology)
    read = (
        *(inc for inc, (i, _, k) in triples if i != k),
        *(inc for inc, _ in totality + facts),
        *(inc for inc, (i, j, _, _) in transfer if i != j),
        *ontology.axioms,
    )
    return _rewritten(_representatives(ontology.order), read)


def _pair_clause(tab, entry):
    """The clause of an entry read by position, (None, disjuncts,
    complements), after checking that it has no id and that the
    complements are those of the disjuncts."""
    objs, lits = tab.interner.objs, tab.interner.lits
    oid, disjuncts, negs = entry
    assert oid is None
    assert [objs[d] for d in negs] == [negate_nnf(objs[d], lits) for d in disjuncts]
    return mk_or(objs[d] for d in disjuncts)


def _by_position_entries(tab):
    """The clause entries read by position in `tab.base_order`: neither an
    interned id nor a run of triples (i, k, j bits)."""
    return [e for e in tab.base_order if type(e) is not int and type(e[2]) is tuple]


def _reference_base(ontology):
    """Every inclusion the tableau reads through
    `intern(mk_or((nnf_not(lhs), nnf(rhs))))`, sorted by sort key: the base
    clauses as the NNF path alone builds them."""
    interner = _Interner()
    lits = interner.lits
    base = {
        interner.intern(mk_or((nnf_not(inc.lhs, lits), nnf(inc.rhs, lits))))
        for inc in _read_inclusions(ontology)
    }
    return tuple(sorted(base, key=lambda cid: sort_key(interner.objs[cid]))), interner


def _described(interner, cid):
    """Kind, parts and disjunct complements of concept `cid`, with every id
    replaced by its concept, after checking that a disjunction's clause
    entry holds its id and parts."""
    objs, kind, part = interner.objs, interner.kinds[cid], interner.parts[cid]
    clause = interner.clauses[cid]
    assert (clause is None) == (kind != _KIND_OR)
    if clause is not None:
        assert clause[:2] == (cid, part)
    if kind in (_KIND_AND, _KIND_OR):
        part = tuple(objs[x] for x in part)
    elif kind == _KIND_FORALL:
        part = (part[0], objs[part[1]])
    elif kind in (_KIND_ATLEAST, _KIND_ATMOST):
        part = (part[0], part[1], objs[part[2]])
    return kind, part, None if clause is None else tuple(objs[x] for x in clause[2])


def _assert_base_matches_reference(ontology):
    tab = Tableau(ontology)
    reference, ref = _reference_base(ontology)
    got = tab.interner
    objs, lits = got.objs, got.lits
    e = () if ontology.order is None else ontology.order.elements
    # the merged base order, every clause read by position written out by
    # the NNF path
    expanded, by_position = [], set()
    for entry in tab.base_order:
        if type(entry) is int:
            expanded.append(objs[entry])
            continue
        if type(entry[2]) is tuple:
            clause = _pair_clause(tab, entry)
            assert clause.args == tuple(objs[d] for d in entry[1])
            expanded.append(clause)
            by_position.add(clause)
            continue
        i, k, run = entry
        for j in tab._in_block_order(i, k, run):
            lhs = And(Leq(e[i], e[j]), Leq(e[j], e[k]))
            clause = mk_or((nnf_not(lhs, lits), nnf(Leq(e[i], e[k]), lits)))
            oid, disjuncts, negs = tab._triple(i, j, k)
            assert oid is None
            assert tuple(objs[d] for d in disjuncts) == clause.args
            assert [objs[d] for d in negs] == [negate_nnf(d, lits) for d in clause.args]
            assert len({i, j, k}) == 3
            expanded.append(clause)
            by_position.add(clause)
    assert expanded == [ref.objs[cid] for cid in reference]
    assert len(by_position) == by_position_count(ontology.order)
    assert tab.base_list == tuple(c for c in tab.base_order if type(c) is int)
    # the disjunctions of the base order, an interned one as its entry
    ors = [c for c in tab.base_order if type(c) is not int or got.kinds[c] == _KIND_OR]
    assert list(tab.base_ors) == [got.clauses[c] if type(c) is int else c for c in ors]
    # every other reference concept is interned, with the same parts, and
    # all but the literals, whose ids the clauses read by position no
    # longer assign, in the same relative id order
    known = {o: cid for cid, o in enumerate(objs)}
    for cid, o in enumerate(ref.objs):
        if o not in by_position:
            assert _described(got, known[o]) == _described(ref, cid)
    assert not by_position & set(objs)
    compound = [
        o for o in ref.objs if o not in by_position and type(o) not in (NAtom, NNegAtom)
    ]
    assert sorted(compound, key=known.__getitem__) == compound

    # the watch lists of interned clauses are the reference's, in the same
    # order, without the clauses read by position and those that hold a
    # concept and its complement; every interned one is filed as its entry
    def watching(interner, keep):
        lists = {}
        for nd, entries in interner.watch.items():
            assert all(x[0] is None or interner.clauses[x[0]] is x for x in entries)
            kept = [interner.objs[c] for c, _, _ in entries if c is not None and keep(c)]
            if kept:
                lists[interner.objs[nd]] = kept
        return lists

    def tautology(c):
        return set(ref.parts[c]) & set(ref.clauses[c][2])

    refs = set(ref.objs)
    assert watching(got, lambda c: objs[c] in refs) == watching(
        ref, lambda c: ref.objs[c] not in by_position and not tautology(c)
    )
    # each list holds the transfer entries read by position first, then the
    # interned clauses in id order
    for entries in got.watch.values():
        order = [-1 if c is None else c for c, _, _ in entries]
        assert order == sorted(order)


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


def test_name_atoms_merge_with_the_order_literals():
    # positive names rank before every order literal, negated ones between
    # the positive and the negated order literals, and quantified disjuncts
    # after them all, as their sort keys order them
    red = reduce_ontology(parse_ontology(dict(CORPUS)["assert-half"]))
    t = red.order.table
    given = (
        Inclusion(TOP, Or(A, Or(Not(B), t[1][2]))),
        Inclusion(A, Or(Not(t[2][1]), Forall("r", B))),
        Inclusion(B, Or(Not(A), t[0][1])),
    )
    mixed = ClassicalOntology(red.axioms + given, red.assertions, "a", red.order)
    _assert_base_matches_reference(mixed)
    _search_alike(mixed, _quotient(mixed))


def test_clause_path_literal_shapes():
    a, b, c, d = (
        Leq(ValueElement(Fraction(p)), ValueElement(Fraction(q)))
        for p, q in ((0, 1), (1, 0), (1, 1), (0, 0))
    )
    lits = _Interner().lits
    P, N = lits.atom, lits.negated
    shapes = {  # each clause of the preorder families, and its literals
        Inclusion(And(a, b), c): (N(a), N(b), P(c)),  # transitivity
        Inclusion(And(a, a), a): (N(a), P(a)),  # i = j = k: (or a (not a))
        Inclusion(a, b): (N(a), P(b)),  # antitonicity
        Inclusion(c, c): (N(c), P(c)),
        Inclusion(TOP, Or(b, a)): (P(b), P(a)),  # totality
        Inclusion(TOP, Or(d, d)): (P(d),),  # i = j: one literal
        Inclusion(TOP, c): (P(c),),  # constant order: a one-literal base entry
        Inclusion(TOP, Not(d)): (N(d),),
        Inclusion(a, Not(c)): (N(a), N(c)),
        Inclusion(And(b, c), Not(d)): (N(b), N(c), N(d)),
        Inclusion(And(c, d), Or(a, b)): (N(c), N(d), P(a), P(b)),
    }
    for inc, literals in shapes.items():
        read = inclusion_nnf(inc, lits)
        assert read == mk_or(literals), inc
        # the formula holds the table's shared literal nodes
        args = read.args if isinstance(read, NOr) else (read,)
        assert all(any(x is y for y in literals) for x in args), inc
    clauses = tuple(shapes)
    others = (
        Inclusion(TOP, And(a, b)),  # bounds
        Inclusion(a, Forall("r", b)),  # transfer
        Inclusion(TOP, Or(Not(a), b)),  # the clause of (a [= b), by the NNF path
        Inclusion(A, B),
        Inclusion(TOP, Or(c, Not(c))),
    )
    _assert_base_matches_reference(ClassicalOntology(clauses + others, (), "a"))
    _assert_base_matches_reference(ClassicalOntology(others + clauses, (), "a"))


# ---------------------------------------------------------------------------
# order bitsets and the transitivity presence tables


def _bitset_check(tab, elements):
    """A check, over the order structure's `elements`, that every live
    node's label holds every base concept with the node's own dependency,
    and that its order bitsets (P_row, P_col, N_row, N_col) equal those
    recomputed from its label plus the base atoms: `leq(i, j)`, i != j,
    sets bit j of P_row[i] and bit i of P_col[j] and the same for its
    partner `leq(inv j, inv i)`, and `not leq(i, j)` the same bits of N_row
    and N_col."""
    n = tab.order_n
    slots = {}  # concept id -> (row, row bit, column, column bit) or None

    inv = tab.inverse

    def bits_of(cids):
        bits = [0] * (4 * n)
        for cid in cids:
            if cid not in slots:
                slots[cid] = ()
                obj = tab.interner.objs[cid]
                if isinstance(obj, (NAtom, NNegAtom)) and isinstance(obj.atom, Leq):
                    i = elements.index(obj.atom.lhs)
                    j = elements.index(obj.atom.rhs)
                    offset = 2 * n if isinstance(obj, NNegAtom) else 0
                    if i != j:  # the atom and its antitone partner
                        slots[cid] = tuple(
                            (offset + a, 1 << b, offset + n + b, 1 << a)
                            for a, b in ((i, j), (inv[j], inv[i]))
                        )
            for row, row_bit, col, col_bit in slots[cid]:
                bits[row] |= row_bit
                bits[col] |= col_bit
        return bits

    base_bits = bits_of(tab.base_set)

    def with_base(cids):
        return [b | x for b, x in zip(base_bits, bits_of(cids))]

    assert tab.seed.bits == with_base(static_label(tab))
    assert tuple(tab.seed.label)[: len(tab.base_list)] == tab.base_list

    def check():
        for node in tab.nodes:
            if not node.pruned:
                assert node.bits == with_base(node.label), f"n{node.id}"
                # the label holds the base with the node's own dependency
                assert all(node.label.get(c) == node.dep for c in tab.base_set), f"n{node.id}"

    return check


def _counting_text(k, q):
    return (
        "(gci B C >= 1/2)\n"
        "(assert (inst a (all s (not C))) = 1)\n"
        f"(assert (inst a (atleast {k} s B)) >= {q})"
    )


BITSET_INPUTS = {
    name: text
    for name, text in CORPUS
    if name in ("duality", "atmost-res", "two-roles", "count-clash", "exists-zero")
}
BITSET_INPUTS["counting-k1-q1_4"] = _counting_text(1, "1/4")


def _checked_tableau(text, step_budget):
    """A tableau that checks its order bitsets after every backjump, its
    check, and the list its undo marks go to."""
    red = reduce_ontology(parse_ontology(text))
    tab = Tableau(red, NODE_BUDGET, step_budget)
    check = _bitset_check(tab, red.order.elements)
    undo, marks = tab._undo_to, []

    def checked_undo(mark):
        undo(mark)
        marks.append(mark)
        check()

    tab._undo_to = checked_undo
    return tab, check, marks


@pytest.mark.parametrize("name", sorted(BITSET_INPUTS))
def test_order_bitsets_match_labels(name):
    tab, check, _ = _checked_tableau(BITSET_INPUTS[name], STEP_BUDGET)
    tab.run()
    check()
    assert tab.nodes and tab.order_n


def test_order_bitsets_match_labels_when_cut_mid_search():
    tab, check, marks = _checked_tableau(_counting_text(1, "1/4"), 3000)
    with pytest.raises(BudgetExceededError):
        tab.run()
    assert len(marks) > 10 and tab.stack  # cut while backtracking
    check()


def _watched_by_position(tab, order):
    """Per literal id, the clause entries read by position that hold its
    complement, as interning and watching every clause of the listing
    over representatives would file them: built here from the structure
    `order`, each class of images once, at its first listing, in the
    order of the triples over distinct positions (i * n + j) * n + k, the
    totality clauses (i * n + j) and the transfer clauses ((i, j), role,
    sign), without the tautologies, which are never watched.  No
    antitonicity clause is examined: each is `not r or r`."""
    interner, n = tab.interner, tab.order_n
    nn, objs, negs, rep = n * n, interner.objs, interner.negs, interner.rep
    filed, seen = {}, set()

    def file(disjuncts):
        disjuncts = tuple(sorted(set(disjuncts), key=lambda d: sort_key(objs[d])))
        if disjuncts in seen or any(negs[d] in disjuncts for d in disjuncts):
            return
        seen.add(disjuncts)
        entry = None, disjuncts, tuple(negs[d] for d in disjuncts)
        for d in disjuncts:
            filed.setdefault(negs[d], []).append(entry)

    for i, j, k in itertools.product(range(n), repeat=3):
        if len({i, j, k}) == 3:
            file((rep[i * n + k], nn + rep[i * n + j], nn + rep[j * n + k]))
    for i, j in itertools.product(range(n), repeat=2):
        if i != j:
            file((rep[i * n + j], rep[j * n + i]))
    up = order.up
    for i, j in itertools.product(range(len(up)), repeat=2):
        a, there = rep[i * n + j], rep[up[i] * n + up[j]]
        for role in order.roles:
            file((nn + a, interner.ids[_KIND_FORALL, (role, there)]))
            file((a, interner.ids[_KIND_FORALL, (role, nn + there)]))
    return filed


def _reference_order_fact(tab, filed, nid, cid):
    """Process order literal `cid` at node `nid` of `tab` as watching every
    clause would: `_examine` on each entry of `_watched_by_position` filed
    under it, then on the interned clauses filed under it."""
    label = tab.nodes[nid].label
    neg = tab.interner.negs[cid]
    if neg in label:
        raise _Clash(label[cid] | label[neg])
    for entry in filed.get(cid, ()):
        tab._examine(nid, entry)
    for clause in tab.interner.watch.get(cid, ()):
        if clause[0] in label:
            tab._examine(nid, clause)


KERNEL_INPUTS = dict(CORPUS)
KERNEL_INPUTS.update({f"counting-k1-q{q}": _counting_text(1, q) for q in ("1/4", "1/2", "3/4")})
KERNEL_INPUTS["chain-2"] = _chain(2)


def test_order_facts_settle_as_watching_every_clause_would():
    # on a fresh node holding a random consistent set of order literals
    # (representatives) with random dependencies, processing one more
    # literal adds the same units with the same dependencies, in the same
    # order, and raises the same conflict as examining every clause over
    # representatives that holds its complement: the acting clauses, and
    # those a unit among them may make act, can be read off the bitsets up
    # front
    rng = random.Random(0x0C0DE)
    seen = {"unit": 0, "transfer": 0, "clash": 0}
    for name, text in KERNEL_INPUTS.items():
        red = reduce_ontology(parse_ontology(text))
        tab = Tableau(red)
        filed = _watched_by_position(tab, red.order)
        n = tab.order_n
        nn = n * n
        reps = [p for p in range(nn) if tab.interner.rep[p] == p]
        literals = reps + [nn + p for p in reps]
        for _ in range(12):
            start = len(tab.trail)
            nid = tab._new_node(None, frozenset(), rng.getrandbits(6) | 1)
            density = rng.uniform(0.01, 0.3)
            for lit in rng.sample(literals, len(literals)):
                if rng.random() < density:
                    try:
                        tab._add(nid, lit, rng.getrandbits(10))
                    except _Clash:
                        pass
            label, negs = tab.nodes[nid].label, tab.interner.negs
            fresh = [c for c in literals if c not in label and negs[c] not in label]
            if not fresh:
                tab._undo_to(start)
                continue
            cid = rng.choice(fresh)
            tab._add(nid, cid, rng.getrandbits(10))
            tab.queue.clear()
            mark = len(tab.trail)
            outcomes = []
            for kernel in (True, False):
                try:
                    if kernel:
                        tab._process(nid, cid)
                    else:
                        _reference_order_fact(tab, filed, nid, cid)
                    conflict = None
                except _Clash as clash:
                    conflict = clash.conflict
                label = tab.nodes[nid].label
                outcomes.append(([(c, label[c]) for _, c in tab.queue], conflict))
                tab._undo_to(mark)
            assert outcomes[0] == outcomes[1], (name, cid)
            added, conflict = outcomes[0]
            seen["unit"] += len(added)
            seen["transfer"] += sum(c >= 2 * nn for c, _ in added)
            seen["clash"] += conflict is not None
            tab._undo_to(start)
        assert not tab.nodes
    assert min(seen.values()) > 10, seen


def test_triple_table_holds_every_distinct_vertex_transitivity_clause():
    red = reduce_ontology(parse_ontology(dict(CORPUS)["duality"]))
    tab = Tableau(red)
    assert tab.order_n == len(red.order)
    # the inclusions it reads without the structure, over representatives:
    # every triple, totality and transfer clause is interned, and so are the
    # transfer clauses at i = j, of which the structure's tableau interns
    # the quantified parts only
    transfer = _families(red)[4]
    diagonal = tuple(inc for inc, (i, j, _, _) in transfer if i == j)
    assert diagonal
    diagonal = _rewritten(_representatives(red.order), diagonal)
    by_position = by_position_count(red.order) + len(set(diagonal))
    read = _read_inclusions(red) + diagonal
    # the block numbers the literals of every atom, the plain interner
    # those of the representatives only
    unused = 2 * sum(r != p for p, r in enumerate(tab.interner.rep))
    for inclusions in (read, read[::-1]):
        plain = Tableau(ClassicalOntology(inclusions, red.assertions, "a"))
        assert plain.order_n == 0
        assert len(plain.base_list) == len(tab.base_list) + by_position
        assert len(plain.interner.objs) == len(tab.interner.objs) - unused + by_position


def test_totality_is_read_by_position_and_antitonicity_is_quotiented(corpus_runs):
    # every totality clause over distinct positions, the self-image ones
    # ({i, inv i}) included, is a clause entry read by position over
    # representatives in the base order and is never interned, and so are
    # the triples (i, i, k) and (i, k, k), `r or not r` beside a refuted
    # base fact; the totality clauses at i = j are the base facts leq(m, m).
    # Every antitonicity clause, the self-partner ones (j = inv i) included,
    # reads `not r or r` over the representative r and is not read at all
    self_partners = 0
    for run_ in corpus_runs:
        red = run_.reduction
        tab = Tableau(red)
        inv, t = red.order.inverse, red.order.table
        lits = tab.interner.lits
        entries = [e for e in _by_position_entries(tab) if not _is_transfer(tab, e)]
        read = {_pair_clause(tab, e) for e in entries}
        assert len(read) == len(entries)
        units = {tab.interner.ids[_KIND_ATOM, t[m][m]] for m in range(len(t))}
        assert units <= tab.base_set, run_.name
        triples, totality, _, antitone, _ = _families(red)
        clauses = {
            inclusion_nnf(inc, lits) for inc, (i, j, k) in triples if i != k and (i == j or j == k)
        }
        for inc, (i, j) in totality:
            clause = inclusion_nnf(inc, lits)
            if i != j:
                clauses.add(clause)
            else:
                assert clause is lits.atom(t[i][i])
        for inc, (i, j) in antitone:
            r = lits.atom(t[i][j])
            assert inclusion_nnf(inc, lits) == NOr((r, lits.negated(t[i][j])))
            assert r is lits.atom(t[inv[j]][inv[i]])
            self_partners += i != j and inv[j] == i
        assert read == clauses, run_.name
        assert not clauses & set(tab.interner.objs), run_.name
    assert self_partners


def _is_transfer(tab, entry):
    """Whether a clause entry read by position is a transfer clause, the
    only ones with a quantified disjunct."""
    return tab.interner.kinds[entry[1][-1]] == _KIND_FORALL


def test_transfer_is_read_by_position(corpus_runs):
    # every transfer clause over distinct base positions is a clause entry
    # read by position in the base order and is never interned; every
    # clause, those at i = j too, is filed under its complements in the
    # order interning and watching the clauses would file it, ahead of
    # every interned clause there: in the one watch index under its
    # quantified complement, and as a unit of `transfer_units` under its
    # literal complement; the ones at
    # i = j hold by the base facts leq(i, i), at the node and, through the
    # static fact `all r leq(up i, up i)`, at every successor.  Over
    # representatives the clauses of (i, j) are those of (inv j, inv i),
    # filed once, at the one listed first
    with_roles = 0
    for run_ in corpus_runs:
        red = run_.reduction
        tab = Tableau(red)
        u, objs, lits = red.order, tab.interner.objs, tab.interner.lits
        t, up = u.table, u.up
        entries = _by_position_entries(tab)
        read = [_pair_clause(tab, e) for e in entries if _is_transfer(tab, e)]
        static = {objs[cid] for cid in static_label(tab)}
        clauses, filed = [], {}
        for inc, (i, j, role, negated) in _families(red)[4]:
            clause = inclusion_nnf(inc, lits)  # over representatives
            if clause in clauses or clause in filed.get(negate_nnf(clause.args[0], lits), ()):
                # the clause of (inv j, inv i), filed there
                assert (u.inverse[j], u.inverse[i]) < (i, j), run_.name
                continue
            for d in clause.args:
                filed.setdefault(negate_nnf(d, lits), []).append(clause)
            if i != j:
                clauses.append(clause)
            elif negated:
                assert lits.atom(t[i][i]) in clause.args
            else:
                forall = NForall(role, lits.atom(t[up[i]][up[i]]))
                assert clause.args == (lits.negated(t[i][i]), forall)
                assert clause.args[1] in static, run_.name
        assert sorted(read, key=sort_key) == sorted(clauses, key=sort_key), run_.name
        assert len(set(read)) == len(read)
        got = {}
        for nd, v in tab.interner.watch.items():
            transfers = [_pair_clause(tab, e) for e in v if e[0] is None]
            assert v[: len(transfers)] == [e for e in v if e[0] is None]
            if transfers:
                got[objs[nd]] = transfers
        negs = tab.interner.negs
        for cid, units in enumerate(tab.transfer_units):
            if units:
                assert objs[cid] not in got
                entries = [(None, (negs[cid], f), (cid, negs[f])) for f in units]
                got[objs[cid]] = [_pair_clause(tab, e) for e in entries]
        assert got == filed, run_.name
        assert not set(clauses) & set(objs), run_.name
        with_roles += bool(clauses)
    assert with_roles >= 10


def test_corpus_verdicts_do_not_depend_on_inclusion_order(corpus_runs):
    for run_ in corpus_runs:
        red = run_.reduction
        flipped = ClassicalOntology(red.inclusions[::-1], red.assertions, red.individual)
        tab = Tableau(flipped, NODE_BUDGET, STEP_BUDGET)
        assert tab.run().consistent == run_.consistent, run_.name


def test_dropped_triples_are_implied(corpus_runs):
    # a transitivity triple with two coinciding positions holds a literal and
    # its complement, or has the disjunct leq(m, m), which totality makes a
    # base fact: the tableau loses nothing by not reading it
    for run_ in corpus_runs:
        red = run_.reduction
        n, t = len(red.order), red.order.table
        lits = _Interner().lits
        family = red.inclusions[: n**3]
        for i, j, k in itertools.product(range(n), repeat=3):
            if len({i, j, k}) == 3:
                continue
            clause = inclusion_nnf(family[(i * n + j) * n + k], lits)
            assert isinstance(clause, NOr)
            args = clause.args
            assert any(negate_nnf(d, lits) in args for d in args) or any(
                NAtom(t[m][m]) in args for m in (i, j, k)
            ), (run_.name, i, j, k)
        tab = Tableau(red)
        units = {tab.interner.ids[_KIND_ATOM, t[m][m]] for m in range(n)}
        assert units <= tab.base_set, run_.name


SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "samples"
DIFFERENTIAL_INPUTS = dict(CORPUS)
DIFFERENTIAL_INPUTS.update({p.stem: p.read_text() for p in sorted(SAMPLES.glob("*.sexp"))})
DIFFERENTIAL_INPUTS.update(
    {
        f"counting-k{k}-q{q}": _counting_text(k, q)
        for k in (1, 2, 3)
        for q in ("1/4", "1/2", "3/4")
    }
)
DIFFERENTIAL_INPUTS.update({f"chain-{k}": _chain(k) for k in range(1, 6)})
BLOCK_INPUTS = dict(DIFFERENTIAL_INPUTS)
BLOCK_INPUTS.update({f"chain-{k}": _chain(k) for k in (6, 7, 8)})


@pytest.mark.parametrize("name", sorted(BLOCK_INPUTS))
def test_order_literals_are_numbered_by_position(name):
    # leq(i, j) is id i*n + j and its negation n*n + i*n + j, each other's
    # complements, and ranked by position in the order of their sort keys;
    # of an antitone pair, the atom of lower sort key is the literal of
    # both: its shared literal nodes and its ids are found by either atom
    red = reduce_ontology(parse_ontology(BLOCK_INPUTS[name]))
    tab = Tableau(red)
    interner, t, n, inv = tab.interner, red.order.table, len(red.order), red.order.inverse
    objs, lits, nn = interner.objs, interner.lits, n * n
    for i, j in itertools.product(range(n), repeat=2):
        p, q = i * n + j, inv[j] * n + inv[i]
        assert objs[p] == NAtom(t[i][j]) and objs[nn + p] == NNegAtom(t[i][j])
        assert (interner.negs[p], interner.negs[nn + p]) == (nn + p, p)
        r = min(p, q, key=lambda x: sort_key(objs[x]))
        assert interner.rep[p] == interner.rep[q] == r
        assert lits.atom(t[i][j]) is objs[r] and lits.negated(t[i][j]) is objs[nn + r]
        assert interner.ids[_KIND_ATOM, t[i][j]] == r
        assert interner.ids[_KIND_NEGATOM, t[i][j]] == nn + r
    ranks = tab._ranks(())
    by_key = sorted(range(2 * nn), key=lambda c: sort_key(objs[c]))
    assert sorted(range(2 * nn), key=ranks.__getitem__) == by_key


def _search_alike(red, plain):
    """Run `red` and `plain` and check that they search alike: verdict,
    nodes, steps, search counters and the static label; return the
    tableau of `red`."""
    observed, tabs = [], []
    for o in (red, plain):
        tab = Tableau(o, NODE_BUDGET, STEP_BUDGET)
        static = [tab.interner.objs[cid] for cid in static_label(tab)]
        result = tab.run()
        observed.append((result.consistent, tab.created, tab.steps, _counters(tab), static))
        tabs.append(tab)
    assert observed[0] == observed[1]
    return tabs[0]


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_INPUTS))
def test_structure_and_its_inclusions_search_alike(name):
    # the reduction hands the tableau its order structure; the same
    # inclusions built by hand over representatives have none, so every
    # transitivity, totality, antitonicity and transfer clause is read,
    # interned and watched as an ordinary clause
    red = reduce_ontology(parse_ontology(DIFFERENTIAL_INPUTS[name]))
    plain = _quotient(red)
    rewrite = _representatives(red.order)
    transfer = _rewritten(rewrite, [inc for inc, _ in _families(red)[4]])
    given = len(red.axioms)
    assert plain.axioms[-given - len(transfer) : -given] == transfer
    assert bool(transfer) == bool(red.order.roles)
    tab = _search_alike(red, plain)
    # nor does the search build a concept equal to a clause read by
    # position, which the tableau would not know as a base clause
    pairs = _by_position_entries(tab)
    assert not {_pair_clause(tab, e) for e in pairs} & set(tab.interner.objs)


@pytest.mark.filterwarnings("ignore:dropping inclusion with degree 0")
@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(ONTOLOGIES)
def test_random_structure_and_its_inclusions_search_alike(text):
    # beyond the corpus: random inputs within its envelope, decided within
    # the differential tests' budget, search as their structure-less copies
    ontology = parse_ontology(text)
    assume(len(OrderStructure.from_ontology(ontology).elements) <= MAX_ELEMENTS)
    red = reduce_ontology(ontology)
    try:
        Tableau(red, NODE_BUDGET, RANDOM_STEP_BUDGET).run()
    except BudgetExceededError:
        reject()
    _search_alike(red, _quotient(red))


@pytest.mark.parametrize("name", ["duality", "atmost-res", "counting-k1-q1/4"])
def test_given_clauses_equal_to_ones_read_by_position_search_alike(name):
    # a given inclusion equal to a totality or transfer clause is interned
    # besides the one read by position, which is merged in and examined
    # ahead of it, and a given antitonicity clause is the tautology `not r
    # or r`, which never branches; without a structure the two are one
    # clause
    red = reduce_ontology(parse_ontology(DIFFERENTIAL_INPUTS[name]))
    _, totality, _, antitone, transfer = _families(red)
    given = tuple(inc for inc, (i, j) in totality + antitone if i != j)
    given += tuple(inc for inc, _ in transfer)
    both = ClassicalOntology(given + red.axioms, red.assertions, red.individual, red.order)
    tab = _search_alike(both, _quotient(both))
    ref = Tableau(red, NODE_BUDGET, STEP_BUDGET)
    ref.run()
    assert (tab.created, tab.steps, _counters(tab)) == (ref.created, ref.steps, _counters(ref))
    # the given ones are interned, one clause per class of images: the
    # totality clause of {i, j} and {inv i, inv j}, `not r or r` for the
    # antitonicity clauses of each representative r, and the transfer
    # clauses of (i, j) and (inv j, inv i)
    n, lits = len(red.order), tab.interner.lits
    assert len(transfer) == 2 * len(red.order.up) ** 2 * len(red.order.roles) > 0
    read = {inclusion_nnf(inc, lits) for inc in given}
    assert n * (n - 1) // 2 < len(read) < len(given)
    assert len(tab.base_list) == len(ref.base_list) + len(read)


@pytest.mark.parametrize("name", ["two-roles", "count-clash", "counting-k1-q1/2"])
def test_given_transfer_clause_searches_like_its_plain_copy(name):
    # a TBox inclusion equal to a transfer clause, over distinct positions
    # or at i = j, of either sign, given beside the reduction's own axioms,
    # searches as the structure-less copy, where the two are one clause
    red = reduce_ontology(parse_ontology(DIFFERENTIAL_INPUTS[name]))
    last = red.order.roles[-1]
    given = [
        inc
        for inc, (i, j, r, _) in _families(red)[4]
        if (i, j, r) in ((0, 1, last), (1, 1, last))
    ]
    assert len(given) == 4
    rewrite = _representatives(red.order)
    for inc in given:
        axioms = red.axioms + (inc,)
        both = ClassicalOntology(axioms, red.assertions, red.individual, red.order)
        plain = _quotient(both)
        # the family holds it once, or twice: at (i, j) and at (inv j, inv i)
        family = _rewritten(rewrite, [x for x, _ in _families(red)[4]])
        assert plain.axioms.count(_rewritten(rewrite, [inc])[0]) == family.count(
            _rewritten(rewrite, [inc])[0]
        ) + 1
        tab = _search_alike(both, plain)
        assert len(tab.base_list) == len(Tableau(red).base_list) + 1


# ---------------------------------------------------------------------------
# search counters


def _counters(tab):
    """(or, choose and merge decisions, backjumps, peak stack depth)"""
    return (
        tab.or_decisions,
        tab.choose_decisions,
        tab.merge_decisions,
        tab.backjumps,
        tab.peak_depth,
    )


def test_search_counters_are_pinned():
    text = _counting_text(3, "1/4")
    tab = Tableau(reduce_ontology(parse_ontology(text)), NODE_BUDGET, STEP_BUDGET)
    assert tab.run().consistent
    assert _counters(tab) == (455, 21, 0, 1, 429)


def test_trace_shows_clashes_and_backjumps():
    # the blow-up search clashes and jumps back over unrelated decisions:
    # every clash the search meets ends a step, wherever the rule that
    # finds it is, and prints one `clash` line; each backjump has its
    # line, and the backjump lines count `backjumps`
    lines = []
    tab = Tableau(reduce_ontology(parse_ontology(BLOWUP)), 100, STEP_BUDGET, lines.append)
    clashes = []
    step = tab._step

    def counted(*args):
        outcome = step(*args)
        if isinstance(outcome, tuple) and outcome and outcome[0] is _CLASHED:
            clashes.append(outcome[1])
        return outcome

    tab._step = counted
    with pytest.raises(BudgetExceededError):
        tab.run()
    jumps = [line.split() for line in lines if line.startswith("backjump ")]
    assert len(jumps) == tab.backjumps > 0
    assert all(int(src) > int(dst) >= 1 for _, src, _, dst in jumps)
    traced = [line for line in lines if line.startswith("clash n")]
    assert len(traced) == len(clashes) > tab.backjumps


# Consistent (its one-element model has no r-successor), yet the search
# grows a deep tree, most of it blocked, until the node budget stops it.
BLOWUP = "(assert (inst a (atleast 2 r (all r A))) <= 0)"


def test_node_blowup_search_is_pinned():
    tab = Tableau(reduce_ontology(parse_ontology(BLOWUP)), 100, STEP_BUDGET)
    with pytest.raises(BudgetExceededError, match="node budget"):
        tab.run()
    assert (tab.created, tab.steps) == (101, 16958)
    assert _counters(tab) == (1551, 191, 22, 16, 1571)


# ---------------------------------------------------------------------------
# the node agenda against a walk over every node


def _reference_active(tab):
    """The active nodes, found by a walk over every node in creation order:
    a live node is active when its parent is (or it is the root) and no
    earlier active node has its label."""
    active, labels = set(), set()
    for node in tab.nodes:
        if node.pruned or not (node.parent is None or node.parent in active):
            continue
        key = frozenset(node.label)
        if key not in labels:
            active.add(node.id)
            labels.add(key)
    return active


def _has_choose_work(tab, node):
    """Whether a live successor of `node` has decided neither the qualifier
    of one of its at-mosts nor its complement (never interned: absent)."""
    for amid in node.atmosts:
        _, role, qid = tab.interner.parts[amid]
        nqid = tab.interner.negs[qid]
        for child_id in tab._live_children(node, role):
            label = tab.nodes[child_id].label
            if qid not in label and not (nqid is not None and nqid in label):
                return True
    return False


def _agenda_checked(tab):
    """Make `tab` check, on entering `_find_decision`, that every node off
    the agenda has its clause pointers at their ends and no choose work,
    and after every `_refresh`,
    the blocking classes, the active nodes and the unmet at-leasts against a
    walk over every node; returns the list of checked calls."""
    find, refresh = tab._find_decision, tab._refresh
    calls = []

    def checked_find():
        pending = tab.marked
        for node in tab.nodes:
            bit = node.bit
            if not pending & bit:
                crowding = None if node.pruned else tab._crowding(node)
                assert node.crowding == crowding, f"n{node.id}"
                assert bool(tab.crowded & bit) == (crowding is not None), f"n{node.id}"
            if node.pruned:
                continue
            if not (tab.agenda | pending) & bit:
                ends = (len(tab.base_ors), len(node.extra_ors))
                assert (node.base_ptr, node.extra_ptr) == ends, f"n{node.id}"
                assert not _has_choose_work(tab, node), f"n{node.id}"
        calls.append(len(tab.nodes))
        return find()

    def checked_refresh():
        refresh()
        live = [node for node in tab.nodes if not node.pruned]
        assert set(_positions(tab.active)) == _reference_active(tab)
        classes = {}
        for node in live:
            classes.setdefault(frozenset(node.label), set()).add(node.id)
        filed = [set(_positions(twins[0])) for twins in tab.classes.values()]
        assert sorted(map(sorted, filed)) == sorted(map(sorted, classes.values()))
        unmet = {node.id for node in live if tab._unmet_atleast(node) is not None}
        assert set(_positions(tab.unmet)) == unmet

    tab._find_decision = checked_find
    tab._refresh = checked_refresh
    return calls


# texts to reduce, or classical ontologies
AGENDA_INPUTS = dict(BITSET_INPUTS, blowup=BLOWUP)
# backjumps here restore scan pointers and labels of nodes that no later
# fact touches
AGENDA_INPUTS["restored"] = ClassicalOntology(
    (
        Inclusion(TOP, And(Exists("s", A), Exists("r", A))),
        Inclusion(TOP, AtMost(1, "r", Implies(Name("C"), Name("C")))),
        Inclusion(TOP, Exists("r", AtMost(0, "r", Name("C")))),
    ),
    (),
    "a",
)


@pytest.mark.parametrize("name", sorted(AGENDA_INPUTS))
def test_agenda_matches_a_walk_over_every_node(name):
    o = AGENDA_INPUTS[name]
    if isinstance(o, str):
        o = reduce_ontology(parse_ontology(o))
    tab = Tableau(o, 60 if name == "blowup" else NODE_BUDGET, STEP_BUDGET)
    calls = _agenda_checked(tab)
    try:
        tab.run()
    except BudgetExceededError:
        assert name == "blowup"
    assert max(calls) > 1


def test_activity_flips_reach_later_twins():
    # n2 blocks its later twin n3 until n1, relabelled like the root, is
    # blocked by it: then n2 is below a blocked node and n3 is active
    tab = Tableau(ClassicalOntology((), (), "a"))
    a, b, c = (tab.interner.intern(NAtom(Name(x))) for x in "ABC")
    root = tab._new_node(None, frozenset(), 1)
    tab._add(root, a, 1)
    tab._add(root, b, 1)
    n1 = tab._new_node(root, frozenset("r"), 1)
    tab._add(n1, b, 1)
    n2 = tab._new_node(n1, frozenset("r"), 1)
    tab._add(n2, c, 1)
    n3 = tab._new_node(root, frozenset("r"), 1)
    tab._add(n3, c, 1)
    observed = []
    for step in ("built", "relabelled", "undone"):
        if step == "relabelled":
            mark = len(tab.trail)
            tab._add(n1, a, 1)
        elif step == "undone":
            tab._undo_to(mark)
        tab._refresh()
        assert set(_positions(tab.active)) == _reference_active(tab), step
        observed.append(set(_positions(tab.active)))
    assert observed == [{root, n1, n2}, {root, n3}, {root, n1, n2}]


# ---------------------------------------------------------------------------
# the quotient by antitonicity


QUOTIENT_INPUTS = dict(CORPUS)
QUOTIENT_INPUTS.update({p.stem: p.read_text() for p in sorted(SAMPLES.glob("*.sexp"))})
QUOTIENT_INPUTS.update({f"chain-{k}": _chain(k) for k in range(1, 5)})
QUOTIENT_INPUTS.update(
    {f"counting-k{k}-q{q}": _counting_text(k, q) for k in (1, 2) for q in ("1/4", "1/2", "3/4")}
)


@pytest.mark.parametrize("name", sorted(QUOTIENT_INPUTS))
def test_labels_hold_representatives_and_graphs_both_atoms(name):
    # with the given axioms in a seeded order, no label ever holds the
    # literal of an atom that is not its pair's representative, and every
    # exported node's atoms are closed under Leq(a, b) <-> Leq(inv b, inv a)
    red = reduce_ontology(parse_ontology(QUOTIENT_INPUTS[name]))
    axioms = list(red.axioms)
    random.Random(f"quotient {name}").shuffle(axioms)
    red = ClassicalOntology(tuple(axioms), red.assertions, red.individual, red.order)
    tab = Tableau(red, NODE_BUDGET, STEP_BUDGET)
    rep, nn = tab.interner.rep, tab.order_n**2
    add = tab._add

    def checked_add(nid, cid, dep, rule=""):
        assert cid >= 2 * nn or rep[cid % nn] == cid % nn, (name, cid)
        add(nid, cid, dep, rule)

    tab._add = checked_add
    result = tab.run()
    for node in tab.nodes:
        assert all(cid >= 2 * nn or rep[cid % nn] == cid % nn for cid in node.label)
    if not result.consistent:
        return
    index, inv = red.order.index, red.order.inverse
    elements = red.order.elements
    leqs = 0
    for node in result.graph.nodes.values():
        for atom in node.atoms:
            if isinstance(atom, Leq):
                leqs += 1
                i, j = index[atom.lhs], index[atom.rhs]
                assert Leq(elements[inv[j]], elements[inv[i]]) in node.atoms, (name, atom)
    assert leqs
