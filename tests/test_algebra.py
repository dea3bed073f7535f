from fractions import Fraction

import pytest

from galcq import (
    DegreeRangeError,
    ValueSet,
    format_degree,
    involutive_negation,
    parse_degree,
    residuum,
    t_norm,
)
from galcq.algebra import ZERO

F = Fraction
GRID = [F(i, 10) for i in range(11)]


def test_t_norm_is_min():
    assert t_norm(F(3, 10), F(7, 10)) == F(3, 10)
    assert t_norm(F(2, 5), F(2, 5)) == F(2, 5)
    for x in GRID:
        assert t_norm(F(1), x) == x


def test_residuum_cases():
    assert residuum(F(3, 10), F(7, 10)) == 1
    assert residuum(F(7, 10), F(3, 10)) == F(3, 10)
    assert residuum(F(1), F(0)) == 0


def residual_negation(x):
    """x => 0; collapses every positive degree to 0."""
    return residuum(x, ZERO)


def test_residual_negation():
    assert residual_negation(F(0)) == 1
    assert residual_negation(F(1, 2)) == 0
    assert residual_negation(F(1)) == 0


def test_involutive_negation():
    assert involutive_negation(F(3, 10)) == F(7, 10)
    assert involutive_negation(F(1, 2)) == F(1, 2)
    for x in GRID:
        assert involutive_negation(involutive_negation(x)) == x


def test_adjunction_on_grid():
    # t_norm(x,y) <= z iff x <= residuum(y,z), exhaustively on the 11-grid
    for x in GRID:
        for y in GRID:
            for z in GRID:
                assert (t_norm(x, y) <= z) == (x <= residuum(y, z))


def test_min_with_complement_at_most_half():
    for x in GRID:
        assert t_norm(x, involutive_negation(x)) <= F(1, 2)
    assert t_norm(F(1, 2), F(1, 2)) == F(1, 2)  # attained


def test_parse_degree_exact():
    assert parse_degree("0.4") == F(2, 5)
    assert parse_degree("3/10") == F(3, 10)
    assert parse_degree("1") == F(1)
    # chain of operations stays exact
    d = parse_degree("0.4")
    assert involutive_negation(residuum(d, t_norm(d, F(1, 4)))) == F(3, 4)


def test_parse_degree_range_errors():
    with pytest.raises(DegreeRangeError):
        parse_degree("1.2")
    with pytest.raises(DegreeRangeError):
        parse_degree("-1/2")
    with pytest.raises(DegreeRangeError):
        parse_degree("abc")


def test_format_degree_round_trips():
    for text in ("0", "1", "1/2", "2/5", "7/10"):
        assert format_degree(parse_degree(text)) == text


def test_value_set_contains_landmarks():
    vs = ValueSet()
    assert list(vs) == [F(0), F(1, 2), F(1)]


def test_value_set_closure_and_sort():
    vs = ValueSet([F(2, 5)])
    assert list(vs) == [F(0), F(2, 5), F(1, 2), F(3, 5), F(1)]
    assert F(3, 5) in vs


def test_value_set_matches_definition():
    inputs = [F(1, 4), F(2, 5), F(2, 5), F(9, 10)]
    vs = ValueSet(inputs)
    expected = {F(0), F(1, 2), F(1)}
    for d in inputs:
        expected.add(d)
        expected.add(1 - d)
    assert set(vs) == expected
    assert list(vs) == sorted(expected)
    assert len(vs) <= 2 * len(inputs) + 3


def test_value_set_closed_under_complement():
    vs = ValueSet([F(1, 8), F(3, 7)])
    for d in vs:
        assert 1 - d in vs


def test_value_set_midpoints():
    vs = ValueSet([F(1, 4)]).with_midpoints()
    for d in vs:
        assert 1 - d in vs
    assert F(1, 8) in vs


def test_value_set_rejects_out_of_range():
    with pytest.raises(DegreeRangeError):
        ValueSet([F(3, 2)])
