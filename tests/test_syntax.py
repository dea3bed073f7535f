from fractions import Fraction

import pytest
from conftest import CORPUS

from galcq import (
    And,
    AtLeast,
    Implies,
    LocalityError,
    Name,
    Not,
    ParseError,
    parse_classical,
    parse_concept_text,
    parse_ontology,
    reduce_ontology,
)
from galcq.semantics import FuzzyInterpretation
from galcq.syntax import (
    classical_to_sexpr,
    concept_to_sexpr,
    model_to_sexpr,
    ontology_to_sexpr,
)

F = Fraction
A = Name("A")


def test_parse_simple_assertion():
    o = parse_ontology("(assert (inst a (and A (not A))) >= 0.6)")
    assert len(o.abox) == 1
    assertion = o.abox[0]
    assert assertion.rel == ">="
    assert assertion.right == F(3, 5)
    assert assertion.left.concept == And(A, Not(A))
    assert o.individual == "a"


def test_parse_expands_abbreviations():
    assert parse_concept_text("(atmost 2 r A)") == Not(AtLeast(3, "r", A))
    assert parse_concept_text("(some r A)") == AtLeast(1, "r", A)
    assert parse_concept_text("(or A B)") == Not(And(Not(A), Not(Name("B"))))


def test_atmost_residual_directive():
    o = parse_ontology(
        "(set-option :atmost residual)\n(assert (inst a (atmost 1 r A)) >= 1/2)"
    )
    concept = o.abox[0].left.concept
    assert concept == Implies(AtLeast(2, "r", A), Not(parse_concept_text("top")))


def test_atmost_override_beats_directive():
    o = parse_ontology(
        "(set-option :atmost residual)\n(assert (inst a (atmost 1 r A)) >= 1/2)",
        at_most="involutive",
    )
    assert o.abox[0].left.concept == Not(AtLeast(2, "r", A))


def test_degree_out_of_range():
    with pytest.raises(ParseError, match=r"degree outside \[0,1\]"):
        parse_ontology("(assert (inst a A) >= 1.2)")


def test_role_assertion_rejected():
    with pytest.raises(LocalityError, match="non-local ABox"):
        parse_ontology("(assert (inst (a b) r) >= 0.5)")


def test_second_individual_rejected():
    with pytest.raises(LocalityError, match="non-local ABox"):
        parse_ontology(
            "(assert (inst a A) >= 0.5)\n(assert (inst b A) >= 0.5)"
        )


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_ontology("(assert (inst a A) >= 0.5)\n(assert (inst a A) >! 1)")
    assert err.value.line == 2
    assert err.value.column is not None


def test_unbalanced_parens():
    with pytest.raises(ParseError):
        parse_ontology("(assert (inst a A) >= 0.5")


def test_gci_only_geq():
    with pytest.raises(ParseError, match="only >="):
        parse_ontology("(gci A B <= 1/2)")


def test_gci_degree_zero_dropped_with_warning():
    with pytest.warns(UserWarning):
        o = parse_ontology("(gci A B >= 0)\n(assert (inst a A) >= 1/2)")
    assert o.tbox == ()


def test_comments_and_whitespace():
    o = parse_ontology("; a comment\n(assert (inst a A) >= 1/2) ; trailing\n")
    assert len(o.abox) == 1


def test_round_trip_ontology():
    text = """
    (assert (inst a (or A (some r (atmost 2 s B)))) > 0.3)
    (assert-cmp (inst a (all r A)) < (inst a B))
    (gci (implies A B) (atleast 2 r (not B)) >= 2/5)
    """
    o = parse_ontology(text)
    printed = ontology_to_sexpr(o)
    assert parse_ontology(printed) == o
    # printing is stable
    assert ontology_to_sexpr(parse_ontology(printed)) == printed


def test_round_trip_classical():
    o = parse_ontology("(assert (inst a (some r A)) >= 1/2)")
    red = reduce_ontology(o)
    text = classical_to_sexpr(red)
    back = parse_classical(text)
    assert set(back.inclusions) == set(red.inclusions)
    assert set(back.assertions) == set(red.assertions)
    assert classical_to_sexpr(back) == text


@pytest.mark.parametrize("name", [name for name, _ in CORPUS])
def test_classical_printer_matches_per_axiom_rendering(name):
    # the printer renders each shared atom once; the text is that of
    # rendering every axiom on its own
    red = reduce_ontology(parse_ontology(dict(CORPUS)[name]))
    assertions = sorted(f"(assert (inst {i} {concept_to_sexpr(c)}))" for i, c in red.assertions)
    inclusions = sorted(
        f"(gci {concept_to_sexpr(inc.lhs)} {concept_to_sexpr(inc.rhs)})"
        for inc in red.inclusions
    )
    assert classical_to_sexpr(red) == "\n".join(assertions + inclusions) + "\n"


def test_reserved_words_rejected_as_names():
    with pytest.raises(ParseError):
        parse_concept_text("(and top not)")
    with pytest.raises(ParseError):
        parse_ontology("(assert (inst a (some 3 A)) >= 1/2)")


@pytest.mark.parametrize("name", ["top", "0", "leq"])
def test_both_readers_refuse_the_same_individual_names(name):
    with pytest.raises(ParseError, match="bad individual name"):
        parse_ontology(f"(assert (inst {name} A) >= 1/2)")
    with pytest.raises(ParseError, match="bad individual name"):
        parse_classical(f"(assert (inst {name} A))")


def test_model_printer_lists_role_edges_in_domain_order():
    # entries stored out of order, a zero degree and an element outside the
    # domain: the printer keeps the nonzero edges between domain elements,
    # ordered by the domain's order, as a scan of every pair would
    role_values = {
        ("r", 0, 2): F(1, 3),
        ("s", 2, 0): F(1),
        ("r", 2, 2): F(0),
        ("r", 2, 0): F(1, 2),
        ("r", 0, 7): F(1),
        ("r", 2, 1): F(2, 3),
    }
    interp = FuzzyInterpretation(
        domain=(2, 0, 1),
        concept_values={("A", 0): F(1, 2)},
        role_values=role_values,
        individuals={"a": 2},
    )
    text = model_to_sexpr(interp, ("A",), ("r", "s"))
    assert text == (
        "(model\n"
        "  (domain 2 0 1)\n"
        "  (individual a 2)\n"
        "  (concept A (2 0) (0 1/2) (1 0))\n"
        "  (role r (2 0 1/2) (2 1 2/3) (0 2 1/3))\n"
        "  (role s (2 0 1))\n"
        ")\n"
    )


MALFORMED_CLASSICAL = [
    ("(gci A)", 1),
    ("(frob A B)", 1),
    ("()", 1),
    ("(assert (inst a A B))", 9),
    ("(gci (leq 0) top)", 6),
    ("(gci (leq () 0) top)", 11),
    ("(gci top (leq 0 ()))", 17),
    ("(gci (leq (up A B) 0) top)", 11),
]


@pytest.mark.parametrize("text, column", MALFORMED_CLASSICAL)
def test_malformed_classical_inputs_raise_parse_error(text, column):
    with pytest.raises(ParseError) as err:
        parse_classical(text)
    assert (err.value.line, err.value.column) == (1, column)


def test_concept_printer_handles_value_atoms():
    o = parse_ontology("(assert (inst a A) >= 1/2)")
    red = reduce_ontology(o)
    text = classical_to_sexpr(red)
    assert "(leq " in text and "(up " in text and "edge" in text


def test_parse_concept_text_normalizes():
    assert parse_concept_text("(not (not A))") == A
    assert concept_to_sexpr(parse_concept_text("(some r (or A B))")) == (
        "(atleast 1 r (not (and (not A) (not B))))"
    )


# property: printing any generated concept reparses to the same tree
from hypothesis import given, settings
from hypothesis import strategies as st

from galcq import And, Exists, Forall, Or
from galcq.concepts import AtLeast, AtMost, Bot, Top
from galcq.syntax import parse_concept as _parse_concept, read_forms

names = st.sampled_from([Name("A"), Name("B"), Name("C")])
roles = st.sampled_from(["r", "s"])


def _concepts(depth):
    if depth == 0:
        return names
    sub = _concepts(depth - 1)
    return st.one_of(
        names,
        st.just(Top()),
        st.just(Bot()),
        st.builds(Not, sub),
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(Implies, sub, sub),
        st.builds(Exists, roles, sub),
        st.builds(Forall, roles, sub),
        st.builds(AtLeast, st.integers(1, 3), roles, sub),
        st.builds(AtMost, st.integers(0, 3), roles, sub),
    )


@given(_concepts(3))
@settings(max_examples=200, deadline=None)
def test_concept_print_parse_round_trip(concept):
    text = concept_to_sexpr(concept)
    (form,) = read_forms(text)
    assert _parse_concept(form) == concept
