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
    NAtLeast,
    NAtMost,
    NAtom,
    NNegAtom,
    NTRUE,
    NFALSE,
    _structural_key,
    mk_and,
    mk_or,
    negate_nnf,
    nnf,
    sort_key,
)
from galcq.tableau import Tableau

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
    # the tableau's block of order literals holds the shared literal nodes
    # of the representatives, and every key cached on them is the
    # structural one
    red = reduce_ontology(parse_ontology("(assert (inst a (some r (and A (not B)))) >= 1/3)"))
    interner = Tableau(red).interner
    objs, lits, n = interner.objs, interner.lits, len(red.order)
    for i, row in enumerate(red.order.table):
        for j, atom in enumerate(row):
            pos, neg = objs[i * n + j], objs[n * n + i * n + j]
            r = interner.rep[i * n + j]
            assert objs[r] is lits.atom(atom) and objs[n * n + r] is lits.negated(atom)
            assert sort_key(pos) == _structural_key(pos) and pos == NAtom(atom)
            assert sort_key(neg) == _structural_key(neg) and neg == NNegAtom(atom)
