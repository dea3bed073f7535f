import itertools
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
    Or,
    ResExpr,
    check_consistency,
    order_concept,
    parse_ontology,
    reduce_ontology,
    semantics_axioms,
)
from galcq.classical_model import Inclusion, fact_axioms, order_families
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


TRANSITIVITY, TOTALITY, BOUNDS, CONSTANTS, ANTITONICITY, TRANSFER = range(6)


def _family(u, k):
    """Family k of `order_families(u)` as (instance, inclusion) pairs."""
    instances, inclusion = order_families(u)[k]
    return [(p, inclusion(*p)) for p in instances]


def test_transitivity_count_is_cubic():
    red = reduce_ontology(parse_ontology("(assert (inst a A) >= 1/2)"))
    n = len(red.order.elements)
    axioms = red.inclusions[: n**3]
    assert len(axioms) == n**3
    assert len(set(axioms)) == n**3  # all instances distinct
    triples = _family(red.order, TRANSITIVITY)
    assert [p for p, _ in triples] == sorted(p for p, _ in triples)
    assert [inc for _, inc in triples] == list(axioms)


def test_family_counts():
    u = _structure()
    n = len(u.elements)
    counts = [len(_family(u, k)) for k in (TRANSITIVITY, TOTALITY, BOUNDS, ANTITONICITY)]
    assert counts == [n**3, n * n, n, n * n]
    assert fact_axioms(u) == tuple(inc for k in (BOUNDS, CONSTANTS) for _, inc in _family(u, k))


def test_bounds_mention_edge_element():
    u = _structure()
    zero, one = ValueElement(F(0)), ValueElement(F(1))
    bounds = dict(_family(u, BOUNDS))
    assert bounds[(u.index[EDGE],)] == Inclusion(TOP, And(Leq(zero, EDGE), Leq(EDGE, one)))


def test_value_order_axioms():
    u = _structure()
    family = _family(u, CONSTANTS)
    facts = dict(family)
    assert set(facts.values()) <= set(fact_axioms(u))
    zero, half, one = (ValueElement(F(q)) for q in ("0", "1/2", "1"))
    i = u.index
    assert facts[(i[zero], i[half], False)] == Inclusion(TOP, Leq(zero, half))
    assert facts[(i[zero], i[half], True)] == Inclusion(TOP, Not(Leq(half, zero)))
    # reflexive facts are present, strict converses only for strict pairs
    assert facts[(i[one], i[one], False)] == Inclusion(TOP, Leq(one, one))
    assert (i[one], i[one], True) not in facts
    values = len(u.values)
    assert len(family) == values * values  # (v + 1) v / 2 facts, (v - 1) v / 2 converses
    assert all(a <= b < values for a, b, _ in facts)


def test_antitonicity_instance():
    u = _structure()
    a, up_b = ConceptElement(A), ShiftedElement(Not(A))
    axioms = dict(_family(u, ANTITONICITY))
    assert axioms[(u.index[a], u.index[up_b])] == Inclusion(
        Leq(a, up_b), Leq(ShiftedElement(A), ConceptElement(Not(A)))
    )


def test_transfer_axioms_shape_and_count():
    o = parse_ontology("(assert (inst a (some r A)) >= 1/2)")
    u = OrderStructure.from_ontology(o)
    family = _family(u, TRANSFER)
    base = len(u.values) + len(u.subconcepts)
    assert len(family) == 2 * base * base * len(u.roles)
    axioms = dict(family)
    a = ConceptElement(A)
    half = ValueElement(F(1, 2))
    pair = (u.index[a], u.index[half], u.roles.index("r"))
    assert axioms[(*pair, False)] == Inclusion(
        Leq(a, half), Forall("r", Leq(ShiftedElement(A), half))
    )
    assert axioms[(*pair, True)] == Inclusion(
        Not(Leq(a, half)), Forall("r", Not(Leq(ShiftedElement(A), half)))
    )


def test_transfer_axioms_empty_without_roles():
    u = _structure("(assert (inst a A) >= 1/2)")
    assert _family(u, TRANSFER) == []


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
    # every family written out here, over the elements rather than the
    # structure's positions and shared atoms
    e, inv, up = u.elements, u.inverse, u.up
    span, base, values = range(len(e)), range(len(up)), range(len(u.values))
    assert [el.value for el in e[: len(values)]] == list(u.values.degrees)

    def leq(i, j):
        return Leq(e[i], e[j])

    triples = itertools.product(span, repeat=3)
    family = [Inclusion(And(leq(i, j), leq(j, k)), leq(i, k)) for i, j, k in triples]
    totality = [Inclusion(TOP, Or(leq(i, j), leq(j, i))) for i in span for j in span]
    bounds = [Inclusion(TOP, And(leq(0, i), leq(i, len(values) - 1))) for i in span]
    constants = []
    for a in values:
        for b in values:
            if a <= b:
                constants.append(Inclusion(TOP, leq(a, b)))
            if a < b:
                constants.append(Inclusion(TOP, Not(leq(b, a))))
    antitone = [Inclusion(leq(i, j), leq(inv[j], inv[i])) for i in span for j in span]
    transfer = []
    for i in base:
        for j in base:
            for r in u.roles:
                transfer.append(Inclusion(leq(i, j), Forall(r, leq(up[i], up[j]))))
                transfer.append(Inclusion(Not(leq(i, j)), Forall(r, Not(leq(up[i], up[j])))))
    assert transfer and u.roles == ("r",)
    written = family + totality + bounds + constants + antitone + transfer
    inclusions = red.inclusions
    assert inclusions == tuple(written) + red.axioms
    assert fact_axioms(u) == tuple(bounds + constants)
    assert inclusions is red.inclusions  # built once
