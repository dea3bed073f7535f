from galcq import (
    TOP,
    And,
    AtLeast,
    AtMost,
    Bot,
    Exists,
    Forall,
    Implies,
    Name,
    Not,
    Or,
    negate,
    normalize,
    quantifier_depth,
    subconcepts,
)
from galcq.concepts import first_occurrences, role_of

A = Name("A")
B = Name("B")


def test_double_negation_collapses():
    assert normalize(Not(Not(A))) == A
    assert normalize(Not(Not(Not(A)))) == Not(A)


def test_exists_expands_to_atleast():
    assert normalize(Exists("r", A)) == AtLeast(1, "r", A)


def test_or_expands():
    assert normalize(Or(A, B)) == Not(And(Not(A), Not(B)))
    # inner negations collapse rather than stacking
    assert normalize(Or(Not(A), B)) == Not(And(A, Not(B)))


def test_bot_expands():
    assert normalize(Bot()) == Not(TOP)
    assert normalize(Not(Bot())) == TOP


def test_atleast_zero_is_top():
    assert normalize(AtLeast(0, "r", A)) == TOP
    assert normalize(Not(AtLeast(0, "r", A))) == Not(TOP)


def test_atmost_involutive():
    assert normalize(AtMost(2, "r", A)) == Not(AtLeast(3, "r", A))


def test_atmost_residual():
    assert normalize(AtMost(2, "r", A), at_most="residual") == Implies(
        AtLeast(3, "r", A), Not(TOP)
    )


def test_normalize_idempotent():
    samples = [
        Or(Exists("r", Bot()), AtMost(1, "s", Not(Not(A)))),
        Implies(Or(A, B), Forall("r", Or(Not(A), B))),
        AtLeast(2, "r", And(A, Not(B))),
    ]
    for c in samples:
        once = normalize(c)
        assert normalize(once) == once


def test_normalize_preserves_roles():
    c = Or(Exists("r", A), AtMost(1, "s", Forall("t", B)))
    assert set(first_occurrences((c,), role_of)) == set(
        first_occurrences((normalize(c),), role_of)
    )


def test_negate_collapses():
    assert negate(Not(A)) == A
    assert negate(A) == Not(A)


def test_subconcepts_postorder():
    c = And(A, Not(A))
    assert list(subconcepts(c)) == [A, A, Not(A), c]


def test_quantifier_depth():
    assert quantifier_depth(A) == 0
    assert quantifier_depth(Forall("r", Exists("s", A))) == 2
    assert quantifier_depth(And(Forall("r", A), B)) == 1
