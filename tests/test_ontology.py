from fractions import Fraction

from conftest import CORPUS, ontology_size

from galcq import (
    AtLeast,
    AtMost,
    ConceptAssertion,
    Exists,
    Forall,
    FuzzyGCI,
    FuzzyOntology,
    Name,
    Not,
    OrderAssertion,
    RoleAssertion,
    close_under_negation,
    Leq,
    is_local,
    parse_ontology,
    reduce_ontology,
    sub_closure,
    subconcepts,
    value_closure,
)
from galcq.concepts import negate
from galcq.ontology import roles
from galcq.semantics import concept_names

F = Fraction
A = Name("A")
B = Name("B")


def _assert_only(concept, degree="1/2", rel=">="):
    return FuzzyOntology(
        (OrderAssertion(ConceptAssertion("a", concept), rel, F(degree)),), ()
    )


def test_sub_closure_single_name():
    o = _assert_only(A)
    assert set(sub_closure(o)) == {A, Not(A)}


def test_sub_closure_gci_example():
    # hand enumeration: subconcepts of A and forall r.B, closed under negation
    o = FuzzyOntology((), (FuzzyGCI(A, Forall("r", B), F(1)),))
    expected = {A, Not(A), Forall("r", B), Not(Forall("r", B)), B, Not(B)}
    assert set(sub_closure(o)) == expected


def test_sub_closure_idempotent():
    o = FuzzyOntology((), (FuzzyGCI(A, Forall("r", B), F(1)),))
    closed = sub_closure(o)
    assert close_under_negation(closed) == closed


def test_sub_closure_deterministic_order():
    o = FuzzyOntology((), (FuzzyGCI(A, Forall("r", B), F(1)),))
    assert sub_closure(o) == sub_closure(o)
    assert sub_closure(o)[0] == A  # post-order of axioms, lhs first


def test_sub_closure_quadratic_bound():
    # nested value restrictions of growing depth: closure stays within
    # twice the number of distinct subconcepts, hence quadratic in the input
    for k in range(1, 9):
        c = A
        for _ in range(k):
            c = Forall("r", c)
        o = _assert_only(c)
        size = ontology_size(o)
        assert len(sub_closure(o)) <= 2 * size
        assert len(sub_closure(o)) <= 2 * size * size


def test_value_closure_examples():
    assert list(value_closure(_assert_only(A, "2/5"))) == [
        F(0),
        F(2, 5),
        F(1, 2),
        F(3, 5),
        F(1),
    ]
    empty = FuzzyOntology((), ())
    assert list(value_closure(empty)) == [F(0), F(1, 2), F(1)]
    o = FuzzyOntology(
        (
            OrderAssertion(ConceptAssertion("a", A), ">=", F(1, 2)),
            OrderAssertion(ConceptAssertion("a", B), ">=", F(1)),
        ),
        (),
    )
    assert list(value_closure(o)) == [F(0), F(1, 2), F(1)]


def test_value_closure_size_bound():
    degrees = [F(1, 3), F(1, 7), F(2, 9), F(1, 3)]
    o = FuzzyOntology(
        tuple(OrderAssertion(ConceptAssertion("a", A), ">=", d) for d in degrees),
        (),
    )
    assert len(value_closure(o)) <= 2 * len(degrees) + 3


def test_is_local():
    ok = (
        OrderAssertion(ConceptAssertion("a", A), ">=", F(1, 2)),
        OrderAssertion(ConceptAssertion("a", B), "<", ConceptAssertion("a", A)),
    )
    assert is_local(ok)
    assert not is_local(
        (OrderAssertion(RoleAssertion("a", "b", "r"), ">=", F(1, 2)),)
    )
    assert not is_local(
        (
            OrderAssertion(ConceptAssertion("a", A), ">=", F(1, 2)),
            OrderAssertion(ConceptAssertion("b", A), ">=", F(1, 2)),
        )
    )
    assert is_local(())


def test_roles_first_occurrence_order():
    # deterministic: post-order traversal of axiom concepts
    o = parse_ontology(
        "(assert (inst a (some s (all r A))) >= 1/2)"
        "(gci A (some q A) >= 1/2)"
    )
    assert roles(o) == ("r", "s", "q")


def _distinct(values):
    seen = set()
    out = []
    for v in values:
        if v not in seen:
            seen.add(v)
            out.append(v)
    return tuple(out)


def test_walkers_match_a_plain_subconcept_walk():
    quantified = (Exists, Forall, AtLeast, AtMost)
    for name, text in CORPUS:
        o = parse_ontology(text)
        sides = [
            side.concept
            for a in o.abox
            for side in (a.left, a.right)
            if isinstance(side, ConceptAssertion)
        ]
        sides += [c for g in o.tbox for c in (g.lhs, g.rhs)]
        subs = [s for c in sides for s in subconcepts(c)]
        base = _distinct(subs)
        assert sub_closure(o) == _distinct(base + tuple(negate(c) for c in base)), name
        assert roles(o) == _distinct(s.role for s in subs if isinstance(s, quantified))
        assert concept_names(o) == _distinct(s.name for s in subs if isinstance(s, Name))
        assert ontology_size(o) == len(o.abox) + len(o.tbox) + len(subs)

        red = reduce_ontology(o)
        sides = [c for inc in red.inclusions for c in (inc.lhs, inc.rhs)]
        sides += [c for _, c in red.assertions]
        subs = [s for c in sides for s in subconcepts(c)]
        assert red.atoms() == _distinct(s for s in subs if isinstance(s, (Name, Leq)))
        assert red.roles() == _distinct(s.role for s in subs if isinstance(s, quantified))
