"""Order elements, inversion, and the macro expansion of comparisons.

The semantic oracle evaluates an expanded order concept classically under
a valuation of the elements and compares it against the direct arithmetic
meaning of the comparison; every relator and operand shape is checked over
all valuations from a small value grid.
"""

import itertools
import pickle
import random
from fractions import Fraction

import pytest
from conftest import CORPUS, classical_concepts

from galcq import (
    And,
    Implies,
    Leq,
    MinExpr,
    Name,
    Not,
    Or,
    OrderStructure,
    ResExpr,
    invert,
    order_concept,
    parse_ontology,
    reduce_ontology,
    rel_holds,
    residuum,
    shift,
    subconcepts,
    t_norm,
)
from galcq.orders import (
    EDGE,
    EDGE_INV,
    ConceptElement,
    ShiftedElement,
    ValueElement,
    _positions,
)

F = Fraction
A = Name("A")
VA = ValueElement(F(1, 2))


def test_invert_examples():
    assert invert(ValueElement(F(0))) == ValueElement(F(1))
    assert invert(ConceptElement(A)) == ConceptElement(Not(A))
    assert invert(ConceptElement(Not(A))) == ConceptElement(A)
    assert invert(ShiftedElement(A)) == ShiftedElement(Not(A))
    assert invert(EDGE) == EDGE_INV


def test_invert_involutive_over_structure():
    o = parse_ontology("(assert (inst a (some r (and A B))) >= 0.3)")
    u = OrderStructure.from_ontology(o)
    for e in u.elements:
        assert invert(invert(e)) == e
        assert invert(e) in u.elements


def test_shift_identifies_constants():
    assert shift(ValueElement(F(1, 4))) == ValueElement(F(1, 4))
    assert shift(ConceptElement(A)) == ShiftedElement(A)
    with pytest.raises(TypeError):
        shift(EDGE)


def test_structure_enumeration():
    o = parse_ontology("(assert (inst a A) >= 1/2)")
    u = OrderStructure.from_ontology(o)
    assert len(u) == len(u.values) + 2 * len(u.subconcepts) + 2
    expected = {
        ValueElement(F(0)),
        ValueElement(F(1, 2)),
        ValueElement(F(1)),
        ConceptElement(A),
        ConceptElement(Not(A)),
        ShiftedElement(A),
        ShiftedElement(Not(A)),
        EDGE,
        EDGE_INV,
    }
    assert set(u.elements) == expected


def test_macro_min_lower_bound():
    a, b, c = ConceptElement(A), EDGE, VA
    assert order_concept(a, ">=", MinExpr(b, c)) == Or(Leq(b, a), Leq(c, a))
    assert order_concept(a, "<=", MinExpr(b, c)) == And(Leq(a, b), Leq(a, c))


def test_macro_residuum():
    a, b, c = ConceptElement(A), EDGE, VA
    one = ValueElement(F(1))
    assert order_concept(a, ">=", ResExpr(b, c)) == And(
        Implies(Leq(b, c), Leq(one, a)),
        Implies(Not(Leq(b, c)), Leq(c, a)),
    )
    assert order_concept(a, "<=", ResExpr(b, c)) == Or(Leq(b, c), Leq(a, c))


def test_strict_and_equality_are_outer_combinations():
    a, b, c = ConceptElement(A), EDGE, VA
    ge = order_concept(a, ">=", MinExpr(b, c))
    le = order_concept(a, "<=", MinExpr(b, c))
    assert order_concept(a, "<", MinExpr(b, c)) == Not(ge)
    assert order_concept(a, ">", MinExpr(b, c)) == Not(le)
    assert order_concept(a, "=", MinExpr(b, c)) == And(le, ge)
    assert order_concept(a, "<", EDGE) == Not(Leq(EDGE, a))
    assert order_concept(a, "=", EDGE) == And(Leq(a, EDGE), Leq(EDGE, a))


def _holds(concept, value_of) -> bool:
    """Classical truth of an expanded order concept under a valuation."""
    match concept:
        case Leq(lhs, rhs):
            return value_of[lhs] <= value_of[rhs]
        case Not(sub):
            return not _holds(sub, value_of)
        case And(left, right):
            return _holds(left, value_of) and _holds(right, value_of)
        case Or(left, right):
            return _holds(left, value_of) or _holds(right, value_of)
        case Implies(left, right):
            return (not _holds(left, value_of)) or _holds(right, value_of)
    raise TypeError(concept)


GRID = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]
RELS = ("<", "<=", "=", ">=", ">")


def test_expansion_against_arithmetic_oracle():
    # brute force over all valuations of three abstract elements
    a = ConceptElement(Name("X"))
    b = ConceptElement(Name("Y"))
    c = EDGE
    one = ValueElement(F(1))
    for va, vb, vc in itertools.product(GRID, repeat=3):
        values = {a: va, b: vb, c: vc, one: F(1)}
        for rel in RELS:
            plain = order_concept(a, rel, b)
            assert _holds(plain, values) == rel_holds(va, rel, vb)
            mins = order_concept(a, rel, MinExpr(b, c))
            assert _holds(mins, values) == rel_holds(va, rel, t_norm(vb, vc))
            res = order_concept(a, rel, ResExpr(b, c))
            assert _holds(res, values) == rel_holds(va, rel, residuum(vb, vc))


def test_expansion_uses_only_leq_atoms():
    a = ConceptElement(A)
    for rel in RELS:
        for rhs in (VA, MinExpr(EDGE, VA), ResExpr(EDGE, VA)):
            stack = [order_concept(a, rel, rhs)]
            while stack:
                node = stack.pop()
                match node:
                    case Leq():
                        pass
                    case Not(sub):
                        stack.append(sub)
                    case And(left, right) | Or(left, right) | Implies(left, right):
                        stack.extend((left, right))
                    case _:
                        raise AssertionError(f"unexpected node {node!r}")


TWO_ROLES = "(assert (inst a (some r A)) >= 1/2)\n(assert (inst a (some s B)) >= 1/2)"


def test_reduction_shares_one_object_per_atom():
    red = reduce_ontology(parse_ontology(TWO_ROLES))
    by_id = {}
    for c in classical_concepts(red):
        for s in subconcepts(c):
            if isinstance(s, Leq):
                by_id[id(s)] = s
    assert len(by_id) == len(set(by_id.values()))


def test_table_atoms_behave_like_fresh_atoms():
    u = OrderStructure.from_ontology(parse_ontology(TWO_ROLES))
    for i, a in enumerate(u.elements):
        for j, b in enumerate(u.elements):
            atom, fresh = u.table[i][j], Leq(a, b)
            assert atom == fresh
            assert hash(atom) == hash(fresh)
            assert repr(atom) == repr(fresh) == f"Leq(lhs={a!r}, rhs={b!r})"
            assert u.leq(a, b) is atom
            match atom:
                case Leq(lhs, rhs):
                    assert (lhs, rhs) == (a, b)
        assert u.elements[u.inverse[i]] == invert(a)
    for i, up in enumerate(u.up):
        assert u.elements[up] == shift(u.elements[i])
    copied = pickle.loads(pickle.dumps(atom))
    assert copied == atom and hash(copied) == hash(atom)


def test_rows_read_the_atoms_by_position():
    u = OrderStructure.from_ontology(parse_ontology(TWO_ROLES))
    n = len(u)
    pairs = itertools.product(range(n), repeat=2)
    chosen = {(i, j) for i, j in pairs if (3 * i + j) % 4 != 0}
    atoms = frozenset({u.table[i][j] for i, j in chosen} | {A})
    rows = u.rows(atoms)
    assert len(rows) == n
    assert {(i, j) for i, row in enumerate(rows) for j in _positions(row)} == chosen
    assert u.rows(frozenset()) == [0] * n
    assert list(_positions(0b101001)) == [0, 3, 5]


def _broken_by_definition(u, rows):
    """The failing instances of each preorder family, read off its
    definition one instance at a time, in the families' listing order."""
    n, inv, last = len(u), u.inverse, len(u.values) - 1
    span = range(n)

    def leq(i, j):
        return bool(rows[i] >> j & 1)

    triples = [
        (i, j, k)
        for i, j, k in itertools.product(span, repeat=3)
        if leq(i, j) and leq(j, k) and not leq(i, k)
    ]
    totality = [(i, j) for i in span for j in span if not (leq(i, j) or leq(j, i))]
    bounds = [(i,) for i in span if not (leq(0, i) and leq(i, last))]
    constants = []  # the constant order: leq(a, b) if a <= b, not leq(b, a) if a < b
    for a in range(last + 1):
        for b in range(last + 1):
            if a <= b and not leq(a, b):
                constants.append((a, b, False))
            if a < b and leq(b, a):
                constants.append((a, b, True))
    antitone = [(i, j) for i in span for j in span if leq(i, j) and not leq(inv[j], inv[i])]
    return triples, totality, bounds, constants, antitone


def _valuation_rows(u, rng):
    """The rows of a random valuation of `u`'s elements, with a few bits
    flipped, some between constants: constants keep their value, an
    element's complement mostly takes 1 - its value, and a value is
    sometimes outside [0, 1]."""
    n, inv, m = len(u), u.inverse, len(u.values)
    grid = [F(k, 8) for k in range(9)] + [F(-1, 8), F(9, 8)]
    weights = [8] * 9 + [1, 1]
    value = {i: e.value for i, e in enumerate(u.elements) if isinstance(e, ValueElement)}
    for i in range(n):
        if i not in value:
            value[i] = rng.choices(grid, weights)[0]
            if inv[i] not in value:
                value[inv[i]] = 1 - value[i] if rng.random() < 0.8 else rng.choice(grid)
    rows = [sum(1 << j for j in range(n) if value[i] <= value[j]) for i in range(n)]
    for _ in range(rng.choice((0, 0, 1, 2, 3))):
        span = m if rng.random() < 0.3 else n
        rows[rng.randrange(span)] ^= 1 << rng.randrange(span)
    return rows


@pytest.mark.parametrize("name", ["squeeze", "godel-above", "duality"])
def test_broken_matches_the_family_definitions(name):
    u = OrderStructure.from_ontology(parse_ontology(dict(CORPUS)[name]))
    rng = random.Random(7)
    failing = [0] * 5
    samples = 60
    for _ in range(samples):
        rows = _valuation_rows(u, rng)
        got = u.broken(rows)
        assert got == _broken_by_definition(u, rows), name
        failing = [k + bool(family) for k, family in zip(failing, got)]
    # the rows exercise every family, both holding and failing
    assert all(0 < k < samples for k in failing), failing
