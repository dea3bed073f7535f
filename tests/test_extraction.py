from fractions import Fraction

import pytest

from galcq import (
    ClassicalInterpretation,
    Leq,
    MalformedModelError,
    Name,
    Not,
    OrderStructure,
    certification_margin,
    check_consistency,
    check_fuzzy_model,
    extract_classical_model,
    extract_fuzzy_model,
    parse_ontology,
    reduce_ontology,
)
from galcq.orders import ConceptElement, EdgeElement, ShiftedElement, ValueElement

F = Fraction
A = Name("A")
B = Name("B")


def _atoms_from_values(structure, values):
    return frozenset(
        Leq(a, b)
        for a in structure.elements
        for b in structure.elements
        if values[a] <= values[b]
    )


def _rank_values(structure, concept_values, edge=F(1, 2)):
    """Valuation of all elements from chosen concept values; the shifted
    copies mirror the current values (a self-similar node)."""
    from galcq.concepts import Not

    def cval(c):
        if isinstance(c, Not):
            return 1 - cval(c.sub)
        return concept_values[c]

    values = {}
    for e in structure.elements:
        if isinstance(e, ValueElement):
            values[e] = e.value
        elif isinstance(e, (ConceptElement, ShiftedElement)):
            values[e] = cval(e.concept)
        elif isinstance(e, EdgeElement):
            values[e] = edge if e.positive else 1 - edge
    return values


def _single_node_tree(structure, values):
    return ClassicalInterpretation(
        domain=(0,),
        true_atoms={0: _atoms_from_values(structure, values)},
        role_edges={},
        root=0,
        parent={0: None},
        depth={0: 0},
    )


def _structure(text):
    return OrderStructure.from_ontology(parse_ontology(text))


def test_single_anonymous_class_interpolates_to_midpoint():
    structure = _structure("(assert (inst a A) > 1/2)")
    # the encoded order puts A strictly between 1/2 and 1; the extraction
    # must reconstruct the canonical spaced value, not the 7/10 used here
    values = _rank_values(structure, {A: F(7, 10)})
    tree = _single_node_tree(structure, values)
    interp, assignment = extract_fuzzy_model(tree, structure)
    assert interp.concept_value("A", 0) == F(3, 4)
    assert assignment.check_properties() == []


def test_value_class_keeps_its_constant():
    structure = _structure("(assert (inst a A) >= 1/2)")
    values = _rank_values(structure, {A: F(1)})
    tree = _single_node_tree(structure, values)
    interp, _ = extract_fuzzy_model(tree, structure)
    assert interp.concept_value("A", 0) == F(1)


def test_two_anonymous_classes_are_spaced_by_thirds():
    structure = _structure(
        "(assert (inst a A) > 1/2)\n(assert (inst a B) > 1/2)"
    )
    values = _rank_values(structure, {A: F(6, 10), B: F(7, 10)})
    tree = _single_node_tree(structure, values)
    interp, assignment = extract_fuzzy_model(tree, structure)
    assert interp.concept_value("A", 0) == F(1, 2) + F(1, 3) * F(1, 2)
    assert interp.concept_value("B", 0) == F(1, 2) + F(2, 3) * F(1, 2)
    assert assignment.check_properties() == []


def test_totality_violation_diagnosed():
    structure = _structure("(assert (inst a A) >= 1/2)")
    values = _rank_values(structure, {A: F(1, 4)})
    atoms = _atoms_from_values(structure, values)
    broken = frozenset(
        atom
        for atom in atoms
        if not (atom.lhs == ConceptElement(A) or atom.rhs == ConceptElement(A))
    )
    tree = _single_node_tree(structure, values)
    tree.true_atoms[0] = broken
    with pytest.raises(MalformedModelError, match="totality"):
        extract_fuzzy_model(tree, structure)


def test_constant_order_violation_diagnosed():
    structure = _structure("(assert (inst a A) >= 1/2)")
    values = _rank_values(structure, {A: F(1, 4)})
    atoms = set(_atoms_from_values(structure, values))
    atoms.add(Leq(ValueElement(F(1)), ValueElement(F(0))))
    tree = _single_node_tree(structure, values)
    tree.true_atoms[0] = frozenset(atoms)
    with pytest.raises(MalformedModelError):
        extract_fuzzy_model(tree, structure)


def test_pipeline_assigns_coherent_values():
    text = "(assert (inst a (some r A)) = 1/2)"
    o = parse_ontology(text)
    red = reduce_ontology(o)
    result = check_consistency(red)
    assert result.consistent
    tree = extract_classical_model(result.graph, depth=4)
    structure = OrderStructure.from_ontology(o)
    interp, assignment = extract_fuzzy_model(tree, structure, o.individual)
    assert assignment.check_properties() == []
    elements = tree.interior(certification_margin(o))
    report = check_fuzzy_model(interp, o, elements=elements)
    assert report.satisfied


def test_anonymous_class_between_shifted_anchors():
    # below the root, classes carrying parent-known copies pin values too:
    # an anonymous class strictly between two shifted anchors is spaced
    # inside that gap, not inside a constants gap
    structure = _structure("(assert (inst a A) > 1/2)\n(assert (inst a B) > 1/2)")
    root_values = _rank_values(structure, {A: F(3, 5), B: F(9, 10)})
    child_values = dict(root_values)
    for e in structure.elements:
        if isinstance(e, ShiftedElement):
            child_values[e] = root_values[ConceptElement(e.concept)]
    # child's own A sits strictly between shifted-A (3/5 ~ 3/4 canonical)
    # and shifted-B; B collapses onto the constant 1/2
    child_values[ConceptElement(A)] = F(7, 10)
    child_values[ConceptElement(B)] = F(1, 2)
    child_values[ConceptElement(Not(A))] = F(3, 10)
    child_values[ConceptElement(Not(B))] = F(1, 2)
    tree = ClassicalInterpretation(
        domain=(0, 1),
        true_atoms={
            0: _atoms_from_values(structure, root_values),
            1: _atoms_from_values(structure, child_values),
        },
        role_edges={"r": frozenset({(0, 1)})},
        root=0,
        parent={0: None, 1: 0},
        depth={0: 0, 1: 1},
    )
    interp, assignment = extract_fuzzy_model(tree, structure)
    assert assignment.check_properties() == []
    # root: two anonymous classes in (1/2, 1) spaced by thirds
    root_a = interp.concept_value("A", 0)
    root_b = interp.concept_value("B", 0)
    assert root_a == F(1, 2) + F(1, 3) * F(1, 2)
    assert root_b == F(1, 2) + F(2, 3) * F(1, 2)
    # child: A interpolated halfway between the shifted anchors
    assert interp.concept_value("A", 1) == (root_a + root_b) / 2
    assert interp.concept_value("B", 1) == F(1, 2)


def test_pipeline_duality_case():
    text = "(assert-cmp (inst a (some r A)) < (inst a (not (all r (not A)))))"
    o = parse_ontology(text)
    red = reduce_ontology(o)
    result = check_consistency(red)
    assert result.consistent
    tree = extract_classical_model(result.graph, depth=4)
    structure = OrderStructure.from_ontology(o)
    interp, assignment = extract_fuzzy_model(tree, structure, o.individual)
    assert assignment.check_properties() == []
    report = check_fuzzy_model(interp, o, elements=tree.interior(1))
    assert report.satisfied
