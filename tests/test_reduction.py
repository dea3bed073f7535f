from fractions import Fraction

import pytest
from conftest import classical_concepts

from galcq import (
    And,
    AtLeast,
    Forall,
    Implies,
    Leq,
    LocalityError,
    MinExpr,
    Name,
    Not,
    ResExpr,
    check_consistency,
    order_concept,
    parse_ontology,
    reduce_ontology,
    semantics_axioms,
)
from galcq.classical_model import (
    Inclusion,
    antitonicity_axioms,
    bounds_axioms,
    fact_axioms,
    totality_axioms,
    transfer_axioms,
    value_order_axioms,
)
from galcq.concepts import TOP, subconcepts
from galcq.ontology import FuzzyOntology, OrderAssertion, RoleAssertion
from galcq.orders import EDGE, ConceptElement, OrderStructure, ShiftedElement, ValueElement
from galcq.reduction import tbox_axioms
from galcq.syntax import classical_to_sexpr

F = Fraction
A = Name("A")
B = Name("B")


def test_semantics_axioms_top():
    assert semantics_axioms(TOP) == (
        Inclusion(TOP, Leq(ValueElement(F(1)), ConceptElement(TOP))),
    )


def test_semantics_axioms_negation_and_names_empty():
    assert semantics_axioms(Not(A)) == ()
    assert semantics_axioms(A) == ()


def test_semantics_axioms_conjunction():
    c = And(A, B)
    (axiom,) = semantics_axioms(c)
    expected = order_concept(
        ConceptElement(c), "=", MinExpr(ConceptElement(A), ConceptElement(B))
    )
    assert axiom == Inclusion(TOP, expected)


def test_semantics_axioms_implication():
    c = Implies(A, B)
    (axiom,) = semantics_axioms(c)
    expected = order_concept(
        ConceptElement(c), "=", ResExpr(ConceptElement(A), ConceptElement(B))
    )
    assert axiom == Inclusion(TOP, expected)


def test_semantics_axioms_value_restriction():
    c = Forall("r", A)
    (axiom,) = semantics_axioms(c)
    up = ShiftedElement(c)
    bound = ResExpr(EDGE, ConceptElement(A))
    expected = And(
        AtLeast(1, "r", order_concept(up, ">=", bound)),
        Forall("r", order_concept(up, "<=", bound)),
    )
    assert axiom == Inclusion(TOP, expected)


def test_semantics_axioms_at_least():
    c = AtLeast(2, "r", A)
    (axiom,) = semantics_axioms(c)
    up = ShiftedElement(c)
    bound = MinExpr(EDGE, ConceptElement(A))
    expected = And(
        AtLeast(2, "r", order_concept(up, "<=", bound)),
        Not(AtLeast(2, "r", order_concept(up, "<", bound))),
    )
    assert axiom == Inclusion(TOP, expected)


def _structure(text="(assert (inst a A) >= 1/2)"):
    return OrderStructure.from_ontology(parse_ontology(text))


def test_transitivity_count_is_cubic():
    red = reduce_ontology(parse_ontology("(assert (inst a A) >= 1/2)"))
    n = len(red.order.elements)
    axioms = red.inclusions[: n**3]
    assert len(axioms) == n**3
    assert len(set(axioms)) == n**3  # all instances distinct


def test_family_counts():
    u = _structure()
    n = len(u.elements)
    assert len(totality_axioms(u)) == n * n
    assert len(bounds_axioms(u)) == n
    assert len(antitonicity_axioms(u)) == n * n


def test_bounds_mention_edge_element():
    u = _structure()
    zero, one = ValueElement(F(0)), ValueElement(F(1))
    assert Inclusion(TOP, And(Leq(zero, EDGE), Leq(EDGE, one))) in bounds_axioms(u)


def test_value_order_axioms():
    u = _structure()
    axioms = set(value_order_axioms(u.values))
    assert Inclusion(TOP, Leq(ValueElement(F(0)), ValueElement(F(1, 2)))) in axioms
    assert Inclusion(TOP, Not(Leq(ValueElement(F(1, 2)), ValueElement(F(0))))) in axioms
    # reflexive facts are present, strict converses only for strict pairs
    assert Inclusion(TOP, Leq(ValueElement(F(1)), ValueElement(F(1)))) in axioms


def test_antitonicity_instance():
    u = _structure()
    a = ConceptElement(A)
    up_b = ShiftedElement(Not(A))
    axioms = set(antitonicity_axioms(u))
    assert Inclusion(Leq(a, up_b), Leq(ShiftedElement(A), ConceptElement(Not(A)))) in axioms


def test_transfer_axioms_shape_and_count():
    o = parse_ontology("(assert (inst a (some r A)) >= 1/2)")
    u = OrderStructure.from_ontology(o)
    axioms = transfer_axioms(u)
    base = len(u.values) + len(u.subconcepts)
    assert len(axioms) == 2 * base * base * len(u.roles)
    a = ConceptElement(A)
    half = ValueElement(F(1, 2))
    assert Inclusion(Leq(a, half), Forall("r", Leq(ShiftedElement(A), half))) in set(
        axioms
    )
    assert Inclusion(
        Not(Leq(a, half)), Forall("r", Not(Leq(ShiftedElement(A), half)))
    ) in set(axioms)


def test_transfer_axioms_empty_without_roles():
    u = _structure("(assert (inst a A) >= 1/2)")
    assert transfer_axioms(u) == ()


def test_reduce_abox_and_tbox():
    o = parse_ontology("(assert (inst a A) >= 3/5)\n(gci A B >= 1/2)")
    red = reduce_ontology(o)
    a = ConceptElement(A)
    assert ("a", Leq(ValueElement(F(3, 5)), a)) in red.assertions
    gci_axiom = order_concept(
        ValueElement(F(1, 2)), "<=", ResExpr(a, ConceptElement(B))
    )
    assert Inclusion(TOP, gci_axiom) in red.inclusions


def test_reduce_comparison_assertion():
    o = parse_ontology("(assert-cmp (inst a A) < (inst a B))")
    red = reduce_ontology(o)
    expected = order_concept(ConceptElement(A), "<", ConceptElement(B))
    assert ("a", expected) in red.assertions


def test_reduce_rejects_non_local():
    bad = FuzzyOntology(
        (OrderAssertion(RoleAssertion("a", "b", "r"), ">=", F(1, 2)),), ()
    )
    with pytest.raises(LocalityError):
        reduce_ontology(bad)


def test_empty_ontology_reduces_and_is_consistent():
    o = parse_ontology("")
    red = reduce_ontology(o)
    u = OrderStructure.from_ontology(o)
    assert len(u.elements) == 5  # three constants plus the edge pair
    assert red.assertions == ()
    assert check_consistency(red).consistent


def test_every_atom_ranges_over_the_structure():
    o = parse_ontology("(assert (inst a (some r (and A B))) > 0.3)")
    red = reduce_ontology(o)
    u = set(OrderStructure.from_ontology(o).elements)
    for c in classical_concepts(red):
        for s in subconcepts(c):
            assert not isinstance(s, Name)
            if isinstance(s, Leq):
                assert s.lhs in u and s.rhs in u


def test_reduce_deterministic_bytes():
    text = "(assert (inst a (some r A)) >= 1/2)\n(gci A B >= 0.3)"
    first = classical_to_sexpr(reduce_ontology(parse_ontology(text)))
    second = classical_to_sexpr(reduce_ontology(parse_ontology(text)))
    assert first == second


def test_size_bound_polynomial():
    u = _structure("(assert (inst a (some r A)) >= 1/2)")
    o = parse_ontology("(assert (inst a (some r A)) >= 1/2)")
    red = reduce_ontology(o)
    n = len(u.elements)
    v = len(u.values)
    base = v + len(u.subconcepts)
    # transitivity + totality + antitonicity + bounds + constant facts +
    # transfer + graded inclusions + per-subconcept semantics
    bound = (
        n**3
        + 2 * n * n
        + 3 * n
        + 2 * v * v
        + 2 * base * base * len(u.roles)
        + len(o.tbox)
        + sum(len(semantics_axioms(c)) for c in u.subconcepts)
    )
    assert len(red.inclusions) <= bound


def test_deciding_a_reduction_leaves_its_inclusions_unbuilt():
    red = reduce_ontology(parse_ontology("(assert (inst a (some r A)) >= 1/2)"))
    assert check_consistency(red).consistent
    # `inclusions` is cached on first read: no entry means it was never built
    assert "inclusions" not in vars(red)


def test_inclusions_are_the_transitivity_family_then_the_rest():
    o = parse_ontology("(assert (inst a (some r A)) >= 1/2)\n(gci A B >= 0.3)")
    red = reduce_ontology(o)
    u = red.order
    assert u == OrderStructure.from_ontology(o)
    # the structure fixes the preorder families and transfer; only the
    # TBox and semantics axioms are given as objects
    assert red.axioms == tbox_axioms(o, u)
    assert fact_axioms(u) == bounds_axioms(u) + value_order_axioms(u.values, u.leq)
    t, span = u.table, range(len(u))
    family = tuple(
        Inclusion(And(t[i][j], t[j][k]), t[i][k]) for i in span for j in span for k in span
    )
    inclusions = red.inclusions
    assert inclusions == (
        family
        + totality_axioms(u)
        + bounds_axioms(u)
        + value_order_axioms(u.values, u.leq)
        + antitonicity_axioms(u)
        + transfer_axioms(u)
        + red.axioms
    )
    assert inclusions is red.inclusions  # built once
