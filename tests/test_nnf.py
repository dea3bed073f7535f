from galcq import (
    And,
    AtLeast,
    Forall,
    Implies,
    Name,
    Not,
    Or,
    parse_ontology,
    reduce_ontology,
)
from galcq.nnf import (
    Literals,
    NAtLeast,
    NAtMost,
    NAtom,
    NNegAtom,
    NTRUE,
    NFALSE,
    _element_key,
    _structural_key,
    leq_literals,
    mk_and,
    mk_or,
    negate_nnf,
    nnf,
    sort_key,
)

A = Name("A")
B = Name("B")


def test_de_morgan():
    assert nnf(Not(And(A, B))) == mk_or((NNegAtom(A), NNegAtom(B)))
    assert nnf(Not(Or(A, B))) == mk_and((NNegAtom(A), NNegAtom(B)))


def test_negated_atleast_becomes_atmost():
    assert nnf(Not(AtLeast(2, "r", A))) == NAtMost(1, "r", NAtom(A))


def test_negated_implication():
    assert nnf(Not(Implies(A, B))) == mk_and((NAtom(A), NNegAtom(B)))


def test_negated_forall_needs_witness():
    assert nnf(Not(Forall("r", A))) == NAtLeast(1, "r", NNegAtom(A))


def test_canonical_ordering_and_dedup():
    assert mk_and((NAtom(B), NAtom(A), NAtom(B))) == mk_and((NAtom(A), NAtom(B)))
    assert mk_or((NAtom(A),)) == NAtom(A)
    assert mk_and(()) == NTRUE
    assert mk_or(()) == NFALSE
    assert mk_and((NFALSE, NAtom(A))) == NFALSE
    assert mk_or((NTRUE, NAtom(A))) == NTRUE


def test_negate_nnf_involutive_on_booleans_and_counts():
    samples = [
        nnf(And(A, Or(B, Not(A)))),
        nnf(AtLeast(2, "r", A)),
        nnf(Not(AtLeast(1, "r", Implies(A, B)))),
    ]
    for n in samples:
        assert negate_nnf(negate_nnf(n)) == n


def test_negate_nnf_forall_round_trips_to_atmost_zero():
    # the complement of a value restriction is represented natively with
    # counting, so double negation lands on the at-most form
    n = nnf(Forall("r", Or(A, B)))
    twice = negate_nnf(negate_nnf(n))
    assert twice == NAtMost(0, "r", mk_and((NNegAtom(A), NNegAtom(B))))


def test_negate_nnf_counting_duals():
    n = NAtLeast(2, "r", NAtom(A))
    assert negate_nnf(n) == NAtMost(1, "r", NAtom(A))
    assert negate_nnf(NAtMost(1, "r", NAtom(A))) == n


def test_order_literal_keys_are_the_structural_ones():
    red = reduce_ontology(parse_ontology("(assert (inst a (some r (and A (not B)))) >= 1/3)"))
    u, lits = red.order, Literals()
    keys = [_element_key(e) for e in u.elements]
    for i, row in enumerate(u.table):
        for j, atom in enumerate(row):
            pos, neg = leq_literals(lits, atom, (keys[i], keys[j]))
            assert (pos, neg) == (lits.atom(atom), lits.negated(atom))
            assert sort_key(pos) == _structural_key(pos) and pos == NAtom(atom)
            assert sort_key(neg) == _structural_key(neg) and neg == NNegAtom(atom)
