from fractions import Fraction

import pytest

from galcq import (
    ClassicalInterpretation,
    Leq,
    MalformedModelError,
    Name,
    Not,
    OrderStructure,
    certify,
    check_consistency,
    extract_classical_model,
    extract_fuzzy_model,
    parse_ontology,
    reduce_ontology,
)
from galcq.extraction import _node_preorder
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


def test_malformed_label_raises_at_its_first_element():
    # two children share one label that breaks totality: the extraction
    # reads it once, and names the first of them in depth, then id, order
    structure = _structure("(assert (inst a A) >= 1/2)")
    values = _rank_values(structure, {A: F(1, 4)})
    atoms = _atoms_from_values(structure, values)
    broken = frozenset(a for a in atoms if ConceptElement(A) not in (a.lhs, a.rhs))
    tree = ClassicalInterpretation(
        domain=(0, 1, 2, 3),
        true_atoms={0: atoms, 1: atoms, 2: broken, 3: broken},
        role_edges={"r": frozenset({(0, 1), (0, 3), (1, 2)})},
        root=0,
        parent={0: None, 1: 0, 2: 1, 3: 0},
        depth={0: 0, 1: 1, 2: 2, 3: 1},
    )
    with pytest.raises(MalformedModelError, match="totality") as info:
        extract_fuzzy_model(tree, structure)
    assert info.value.node == 3


def test_each_distinct_label_is_read_once(monkeypatch):
    # the unravelled tree copies the labels of a few completion-graph
    # nodes, so the extraction validates one label per distinct atom set
    o = parse_ontology("(gci top (atleast 2 r A) >= 1/2)")
    red = reduce_ontology(o)
    tree = extract_classical_model(check_consistency(red).graph, 8)
    labels = set(tree.true_atoms.values())
    assert len(tree.domain) == 511 and len(labels) == 2
    calls = []
    broken = OrderStructure.broken

    def counted(self, rows):
        calls.append(rows)
        return broken(self, rows)

    monkeypatch.setattr(OrderStructure, "broken", counted)
    _, assignment = extract_fuzzy_model(tree, red.order)
    assert len(calls) == len(labels)
    monkeypatch.undo()
    assert assignment.check_properties() == []


def test_constant_order_violation_diagnosed():
    structure = _structure("(assert (inst a A) >= 1/2)")
    values = _rank_values(structure, {A: F(1, 4)})
    atoms = set(_atoms_from_values(structure, values))
    atoms.add(Leq(ValueElement(F(1)), ValueElement(F(0))))
    tree = _single_node_tree(structure, values)
    tree.true_atoms[0] = frozenset(atoms)
    with pytest.raises(MalformedModelError):
        extract_fuzzy_model(tree, structure)


def _diagnose(structure, values, atoms=None):
    """Run the extraction on a one-node tree whose atoms default to the
    order of `values`."""
    tree = _single_node_tree(structure, values)
    if atoms is not None:
        tree.true_atoms[0] = frozenset(atoms)
    return extract_fuzzy_model(tree, structure)


def test_transitivity_violation_diagnosed():
    structure = _structure("(assert (inst a A) >= 1/2)")
    values = _rank_values(structure, {A: F(1, 4)})
    # 1 <= A on top of a total order: A <= 1/2 then asks for 1 <= 1/2
    atoms = _atoms_from_values(structure, values) | {Leq(ValueElement(F(1)), ConceptElement(A))}
    with pytest.raises(MalformedModelError, match="transitivity fails"):
        _diagnose(structure, values, atoms)


def test_bounds_violation_diagnosed():
    structure = _structure("(assert (inst a A) >= 1/2)")
    # a total order in which A lies below 0 and its complement above 1
    values = _rank_values(structure, {A: F(-1, 4)})
    with pytest.raises(MalformedModelError, match="bounds fail"):
        _diagnose(structure, values)


def test_antitonicity_violation_diagnosed():
    structure = _structure("(assert (inst a A) >= 1/2)")
    values = _rank_values(structure, {A: F(1, 4)})
    # not A at 1/8 instead of 3/4: A <= 1/2 without 1/2 <= not A
    values[ConceptElement(Not(A))] = F(1, 8)
    with pytest.raises(MalformedModelError, match="antitonicity fails"):
        _diagnose(structure, values)


def test_tied_elements_form_classes_in_position_order():
    structure = _structure("(assert (inst a A) > 1/4)\n(assert (inst a B) >= 1/2)")
    values = _rank_values(structure, {A: F(1, 2), B: F(3, 4)}, edge=F(1, 4))
    atoms = _atoms_from_values(structure, values)
    V, C, S = ValueElement, ConceptElement, ShiftedElement
    classes = _node_preorder(structure, atoms, 0)
    assert [tuple(structure.elements[p] for p in cls) for cls in classes] == [
        (V(F(0)),),
        (V(F(1, 4)), C(Not(B)), S(Not(B)), EdgeElement(True)),
        (V(F(1, 2)), C(A), C(Not(A)), S(A), S(Not(A))),
        (V(F(3, 4)), C(B), S(B), EdgeElement(False)),
        (V(F(1)),),
    ]


def _certified_assignment(text):
    o = parse_ontology(text)
    red = reduce_ontology(o)
    result = check_consistency(red)
    assert result.consistent
    return certify(o, red, result.graph, depth=4)[1]


def test_pipeline_assigns_coherent_values():
    assignment = _certified_assignment("(assert (inst a (some r A)) = 1/2)")
    assert assignment.check_properties() == []


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
    assert _certified_assignment(text).check_properties() == []


def _corrupted(assignment, node, position, value):
    """The violations after `node`'s value at `position` becomes `value`."""
    row = list(assignment.values[node])
    row[position] = value
    assignment.values[node] = tuple(row)
    return assignment.check_properties()


def test_check_properties_reports_each_corrupted_property():
    # each case corrupts a freshly certified assignment
    text = "(assert (inst a (some r A)) = 1/2)"
    assignment = _certified_assignment(text)
    root, u = assignment.tree.root, assignment.structure
    elems, index = u.elements, u.index
    half, one = index[ValueElement(F(1, 2))], index[ValueElement(F(1))]
    a, shifted_a = index[ConceptElement(A)], index[ShiftedElement(A)]
    assert f"P1 fails at node {root} for constant 1/2" in _corrupted(
        assignment, root, half, F(2, 3)
    )
    # A moved past every constant: the order no longer matches the atoms,
    # and not A is no longer 1 - A
    assignment = _certified_assignment(text)
    violations = _corrupted(assignment, root, a, F(3, 2))
    assert f"P2 fails at node {root}: {elems[a]!r} vs {elems[one]!r}" in violations
    assert f"P3 fails at node {root}: {elems[a]!r}" in violations
    # a child's copy of the root's A no longer equals the root's A
    assignment = _certified_assignment(text)
    child = next(d for d in assignment.tree.domain if assignment.tree.parent[d] == root)
    below = assignment.values[child][shifted_a] + F(1, 1000)
    assert f"P4 fails at node {child}: {A!r}" in _corrupted(
        assignment, child, shifted_a, below
    )


def test_extraction_hashes_no_order_element_per_tree_element(monkeypatch):
    # the values are read by position: the order-element hashes of one call
    # do not grow with the tree
    o = parse_ontology("(gci top (atleast 2 r A) >= 1/2)")
    red = reduce_ontology(o)
    graph = check_consistency(red).graph
    trees = [extract_classical_model(graph, depth) for depth in (4, 8)]
    assert [len(t.domain) for t in trees] == [31, 511]
    calls = []
    for cls in (ConceptElement, ShiftedElement):
        def counted(self, _hash=cls.__hash__):
            calls.append(self)
            return _hash(self)

        monkeypatch.setattr(cls, "__hash__", counted)
    hash(ConceptElement(A)), hash(ShiftedElement(A))
    assert len(calls) == 2  # the counters are in place
    counts = []
    for tree in trees:
        calls.clear()
        extract_fuzzy_model(tree, red.order)
        counts.append(len(calls))
    assert counts[0] == counts[1]
