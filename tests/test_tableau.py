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
from galcq.nnf import (
    NAtom,
    NNegAtom,
    inclusion_nnf,
    mk_or,
    negate_nnf,
    nnf,
    nnf_not,
    sort_key,
)
from galcq.tableau import (
    _KIND_AND,
    _KIND_ATLEAST,
    _KIND_ATMOST,
    _KIND_FORALL,
    _KIND_OR,
    Tableau,
    _Interner,
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
# order decide the search, so any change to them moves these numbers.  The
# base clause and interned concept columns count every distinct-position
# transitivity triple as one of each, as if it were interned.
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
    triples = _triple_count(tab)
    observed = (
        result.consistent,
        len(red.inclusions),
        len(tab.base_list) + triples,
        len(tab.interner.objs) + triples,
        tab.created,
        tab.steps,
        digest,
    )
    assert observed == PINNED[name]


# Search on every corpus entry, as (verdict, base clauses, interned
# concepts, nodes created, steps), recorded by the session fixture's own
# tableau runs; the base clause and interned concept columns count every
# distinct-position transitivity triple as one of each.
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
    observed = {}
    for run_ in corpus_runs:
        consistent, base, interned, created, steps, triples = run_.search
        observed[run_.name] = (consistent, base + triples, interned + triples, created, steps)
    assert observed == CORPUS_SEARCH


# Search on the benchmark's counting family F(k, q) and criterion-5 chain,
# as (verdict, nodes created, steps).
FAMILY_SEARCH = {
    ("counting", 1, "1/4"): (True, 58, 32551),
    ("counting", 1, "1/2"): (True, 11, 5167),
    ("counting", 1, "3/4"): (False, 3, 1478),
    ("counting", 2, "1/4"): (True, 128, 68778),
    ("counting", 2, "1/2"): (True, 16, 7512),
    ("counting", 2, "3/4"): (False, 4, 1706),
    ("counting", 3, "1/4"): (True, 224, 118433),
    ("counting", 3, "1/2"): (True, 21, 9857),
    ("counting", 3, "3/4"): (False, 5, 1934),
    ("chain", 1, None): (True, 1, 54),
    ("chain", 2, None): (True, 1, 130),
    ("chain", 3, None): (True, 1, 238),
    ("chain", 4, None): (True, 1, 378),
    ("chain", 5, None): (True, 1, 550),
}


@pytest.mark.parametrize("family, k, q", list(FAMILY_SEARCH), ids=str)
def test_family_search_is_pinned(family, k, q):
    text = _counting_text(k, q) if family == "counting" else _chain(k)
    tab = Tableau(reduce_ontology(parse_ontology(text)), NODE_BUDGET, STEP_BUDGET)
    result = tab.run()
    assert (result.consistent, tab.created, tab.steps) == FAMILY_SEARCH[family, k, q]


# Static seed of the same entries: (label size, extra disjunctions, label
# fingerprint, sha256 prefix of the label's concepts in label order) of the
# facts every node starts from.  Fingerprints are drawn per interned id, so
# they move whenever the interning order does; the label order is what new
# nodes copy and merges iterate.
STATIC = {
    "two-roles": (106, 0, 0x3184081A8A8087B8, "300f76addb573ec8"),
    "count-clash": (171, 1, 0x43DBC659391298E5, "c0495645b283f671"),
    "duality": (59, 0, 0x0A54C82EBE88FD36, "e2994ca21e07f9d3"),
    "atmost-res": (137, 3, 0xAFE8C5437BB41EC6, "79e8d8795b4d202f"),
    "forall-clash": (168, 0, 0xF3B99C2FA7E24B11, "91a71eeff58289a0"),
}


@pytest.mark.parametrize("name", sorted(STATIC))
def test_static_seed_is_pinned(name):
    tab = Tableau(reduce_ontology(parse_ontology(dict(CORPUS)[name])))
    label = "\n".join(repr(tab.interner.objs[cid]) for cid in tab.static_label)
    digest = hashlib.sha256(label.encode("utf-8")).hexdigest()[:16]
    observed = (len(tab.static_label), len(tab.static_extra_ors), tab.static_fp, digest)
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


def _described(interner, cid):
    """Kind, parts and disjunct complements of concept `cid`, with every id
    replaced by its concept."""
    objs, kind, part = interner.objs, interner.kinds[cid], interner.parts[cid]
    if kind in (_KIND_AND, _KIND_OR):
        part = tuple(objs[x] for x in part)
    elif kind == _KIND_FORALL:
        part = (part[0], objs[part[1]])
    elif kind in (_KIND_ATLEAST, _KIND_ATMOST):
        part = (part[0], part[1], objs[part[2]])
    negs = interner.or_negs[cid]
    return kind, part, None if negs is None else tuple(objs[x] for x in negs)


def _assert_base_matches_reference(ontology):
    tab = Tableau(ontology)
    reference, ref = _reference_base(ontology)
    got = tab.interner
    objs, lits, e, n = got.objs, got.lits, tab.order_elements, tab.order_n
    # the merged base order, every run of triples written out by the NNF path
    expanded, triples = [], set()
    for entry in tab.base_order:
        if type(entry) is int:
            expanded.append(objs[entry])
            continue
        i, k, run = entry
        for j in tab.by_rank:
            if run >> j & 1:
                lhs = And(Leq(e[i], e[j]), Leq(e[j], e[k]))
                clause = mk_or((nnf_not(lhs, lits), nnf(Leq(e[i], e[k]), lits)))
                disjuncts, negs = tab._triple(i, j, k)
                assert tuple(objs[d] for d in disjuncts) == clause.args
                assert [objs[d] for d in negs] == [negate_nnf(d, lits) for d in clause.args]
                assert tab.third[i * n + j] >> k & 1 and tab.first[j * n + k] >> i & 1
                expanded.append(clause)
                triples.add(clause)
    assert expanded == [ref.objs[cid] for cid in reference]
    assert sum(map(int.bit_count, tab.third)) == len(triples)
    assert sum(map(int.bit_count, tab.first)) == len(triples)
    assert tab.base_list == tuple(c for c in tab.base_order if type(c) is int)
    ors = [c for c in tab.base_order if type(c) is not int or got.kinds[c] == _KIND_OR]
    assert list(tab.base_ors) == ors
    # every other reference concept is interned, with the same parts, and
    # all but the literals, whose ids the triples no longer assign, in the
    # same relative id order
    known = {o: cid for cid, o in enumerate(objs)}
    for cid, o in enumerate(ref.objs):
        if o not in triples:
            assert _described(got, known[o]) == _described(ref, cid)
    assert not triples & set(objs)
    compound = [o for o in ref.objs if o not in triples and type(o) not in (NAtom, NNegAtom)]
    assert sorted(compound, key=known.__getitem__) == compound

    # the watch lists are the reference's, in the same order, without the
    # triples and the clauses that hold a concept and its complement
    def watching(interner, keep):
        lists = {}
        for nd, cids in interner.watch.items():
            kept = [interner.objs[c] for c in cids if keep(c)]
            if kept:
                lists[interner.objs[nd]] = kept
        return lists

    def tautology(c):
        return set(ref.parts[c]) & set(ref.or_negs[c])

    refs = set(ref.objs)
    assert watching(got, lambda c: objs[c] in refs) == watching(
        ref, lambda c: ref.objs[c] not in triples and not tautology(c)
    )
    assert all(cids == sorted(cids) for cids in got.watch.values())


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


# ---------------------------------------------------------------------------
# order bitsets and the transitivity presence tables


def _bitset_check(tab):
    """A check that every live node's order bitsets (P_row, P_col, N_row,
    N_col) equal those recomputed from its label plus the base atoms:
    `leq(i, j)`, i != j, sets bit j of P_row[i] and bit i of P_col[j], and
    `not leq(i, j)` the same bits of N_row and N_col."""
    n = tab.order_n
    slots = {}  # concept id -> (row, row bit, column, column bit) or None

    def bits_of(cids):
        bits = [0] * (4 * n)
        for cid in cids:
            if cid not in slots:
                slots[cid] = None
                obj = tab.interner.objs[cid]
                if isinstance(obj, (NAtom, NNegAtom)) and isinstance(obj.atom, Leq):
                    i = tab.order_elements.index(obj.atom.lhs)
                    j = tab.order_elements.index(obj.atom.rhs)
                    offset = 2 * n if isinstance(obj, NNegAtom) else 0
                    if i != j:
                        slots[cid] = (offset + i, 1 << j, offset + n + j, 1 << i)
            if slots[cid] is not None:
                row, row_bit, col, col_bit = slots[cid]
                bits[row] |= row_bit
                bits[col] |= col_bit
        return bits

    base_bits = bits_of(tab.base_set)

    def with_base(cids):
        return [b | x for b, x in zip(base_bits, bits_of(cids))]

    assert list(tab.static_bits) == with_base(tab.static_label)

    def check():
        for node in tab.nodes:
            if not node.pruned:
                assert node.bits == with_base(node.label), f"n{node.id}"

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
    tab = Tableau(reduce_ontology(parse_ontology(text)), NODE_BUDGET, step_budget)
    check = _bitset_check(tab)
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
    assert tab.nodes and tab.order_elements


def test_order_bitsets_match_labels_when_cut_mid_search():
    tab, check, marks = _checked_tableau(_counting_text(1, "1/4"), 3000)
    with pytest.raises(BudgetExceededError):
        tab.run()
    assert len(marks) > 10 and tab.stack  # cut while backtracking
    check()


def _triple_count(tab):
    return sum(map(int.bit_count, tab.middle))


def test_triple_table_holds_every_distinct_vertex_transitivity_clause():
    red = reduce_ontology(parse_ontology(dict(CORPUS)["duality"]))
    n = len(Tableau(red).order_elements)
    for o in (red, ClassicalOntology(red.inclusions[::-1], red.assertions, "a")):
        assert _triple_count(Tableau(o)) == n * (n - 1) * (n - 2)


def test_elements_beyond_the_radix_stay_watched():
    e = [ValueElement(Fraction(p, 7)) for p in range(6)]
    clauses = tuple(
        Inclusion(And(Leq(e[i], e[j]), Leq(e[j], e[k])), Leq(e[i], e[k]))
        for i, j, k in ((0, 1, 2), (0, 1, 3), (3, 4, 5))
    )
    o = ClassicalOntology(clauses, (), "a")
    tab = Tableau(o)
    # three inclusions give the radix 3: the last three elements are beyond it
    assert tab.order_n == 3 and tab.order_elements == e[:3]
    assert _triple_count(tab) == 1
    _assert_base_matches_reference(o)


def test_corpus_verdicts_do_not_depend_on_inclusion_order(corpus_runs):
    for run_ in corpus_runs:
        red = run_.reduction
        flipped = ClassicalOntology(red.inclusions[::-1], red.assertions, red.individual)
        tab = Tableau(flipped, NODE_BUDGET, STEP_BUDGET)
        assert tab.run().consistent == run_.consistent, run_.name


def test_corpus_verdicts_survive_skipping_trivial_transitivity(corpus_runs):
    for run_ in corpus_runs:
        red = reduce_ontology(run_.ontology, skip_trivial_transitivity=True)
        tab = Tableau(red, NODE_BUDGET, STEP_BUDGET)
        n = len(tab.order_elements)
        assert _triple_count(tab) == n * (n - 1) * (n - 2)
        assert tab.run().consistent == run_.consistent, run_.name
