"""Exact geometry of augmented circle rows."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gasket.core import (Circle, InvalidCircleError, InvalidQuadrupleError,
                         PairRelation, Q_D, Q_W, W_STANDARD, canon,
                         circle_from_row, circle_to_row, config_of,
                         descartes_defect, divisor, extend_to_augmented,
                         line_to_row, mat_mul, orientation, pair_relation,
                         row_to_circle, transpose, validate_augmented,
                         validate_quadruple)
from gasket.group import ALL_LETTERS, act
from gasket.packing import translate_row


def test_descartes_defect_examples():
    assert descartes_defect((-1, 2, 2, 3)) == 0
    assert descartes_defect((0, 0, 1, 1)) == 0
    assert descartes_defect((-6, 11, 14, 15)) == 0
    assert descartes_defect((-6, 10, 11, 14)) == -65
    assert descartes_defect((1, 1, 1, 1)) == 8


def test_defect_is_exact_on_rationals():
    q = (Fraction(1, 3), Fraction(1, 3), Fraction(4, 3), Fraction(4, 3))
    s = sum(q)
    assert descartes_defect(q) == s * s - 2 * sum(x * x for x in q)


def test_validate_quadruple_sign_rules():
    validate_quadruple((-1, 2, 2, 3))
    validate_quadruple((1, -2, -2, -3))
    validate_quadruple((0, 0, 1, 1))
    with pytest.raises(InvalidQuadrupleError):
        validate_quadruple((0, 0, 0, 0))
    validate_quadruple((0, 0, -1, -1))
    with pytest.raises(InvalidQuadrupleError):
        validate_quadruple((-6, 10, 11, 14))


def test_divisor_and_orientation():
    assert divisor((0, 0, 3, 3)) == 3
    assert divisor((-6, 11, 14, 15)) == 1
    assert orientation((-1, 2, 2, 3)) == 1
    assert orientation((1, -2, -2, -3)) == -1
    with pytest.raises(InvalidQuadrupleError):
        divisor((0, 0, 0, 0))


def test_q_w_is_forced_by_the_standard_configuration():
    # Independent recomputation: the value of W^T Q_D W on the standard
    # strip matrix pins down the augmented form.
    assert mat_mul(mat_mul(transpose(W_STANDARD), Q_D), W_STANDARD) == Q_W


def test_validate_augmented():
    assert validate_augmented(W_STANDARD)
    assert not validate_augmented(tuple(tuple(0 for _ in range(4))
                                        for _ in range(4)))
    assert not validate_augmented(((1, 0, 0, 0),) * 4)


@given(st.lists(st.sampled_from(range(8)), max_size=12),
       st.fractions(max_denominator=7), st.fractions(max_denominator=7),
       st.integers(0, 16), st.sampled_from((0, 1, Fraction(1, 2))))
def test_validate_augmented_matches_descartes_form(word, dx, dy, spot, bump):
    # Valid matrices (moved and translated standard strips, with int or
    # Fraction entries) and copies with one entry changed, against the
    # definition W^T Q_D W = Q_W.
    w = W_STANDARD
    for k in word:
        w = act(ALL_LETTERS[k], w)
    w = tuple(translate_row(r, dx, dy) for r in w)
    if spot < 16:
        rows = [list(r) for r in w]
        rows[spot // 4][spot % 4] = canon(rows[spot // 4][spot % 4] + bump)
        w = tuple(map(tuple, rows))
    expected = mat_mul(mat_mul(transpose(w), Q_D), w) == Q_W
    assert validate_augmented(w) == expected
    if spot == 16 or bump == 0:
        assert expected


def test_circle_row_round_trip():
    c = circle_to_row(3, (Fraction(1, 3), Fraction(-2, 3)))
    assert c.row() == (Fraction(4, 3), 3, 1, -2)
    b, center = row_to_circle(c)
    assert b == 3 and center == (Fraction(1, 3), Fraction(-2, 3))
    assert c.radius() == Fraction(1, 3)


def test_line_row():
    l = line_to_row((0, 1), 1)
    assert l.row() == (2, 0, 0, 1)
    assert l.is_line
    with pytest.raises(InvalidCircleError):
        line_to_row((1, 1), 0)
    with pytest.raises(InvalidCircleError):
        l.center()


def test_circle_row_invariant_enforced():
    with pytest.raises(InvalidCircleError):
        circle_from_row((5, 1, 1, 0))
    circle_from_row((0, 1, 1, 0))


def test_extend_to_augmented_recovers_cocurvatures():
    assert extend_to_augmented(config_of(W_STANDARD)) == W_STANDARD
    m = ((0, 0, 1), (0, 0, -1), (1, 1, 0), (1, -1, 0))
    w = extend_to_augmented(m)
    assert validate_augmented(w)
    assert tuple(r[1:] for r in w) == m


def test_pair_relation_circles():
    unit = circle_to_row(1, (0, 0))
    assert pair_relation(unit, circle_to_row(1, (2, 0))) == \
        PairRelation.EXTERNALLY_TANGENT
    assert pair_relation(unit, circle_to_row(1, (3, 0))) == \
        PairRelation.DISJOINT
    assert pair_relation(unit, circle_to_row(1, (1, 0))) == \
        PairRelation.CROSSING
    assert pair_relation(unit, circle_to_row(2, (Fraction(1, 2), 0))) == \
        PairRelation.INTERNALLY_TANGENT
    assert pair_relation(unit, circle_to_row(2, (0, 0))) == \
        PairRelation.NESTED
    assert pair_relation(unit, circle_to_row(-1, (0, 0))) == \
        PairRelation.EQUAL
    assert pair_relation(unit, unit) == PairRelation.EQUAL


def test_pair_relation_lines():
    top = line_to_row((0, 1), 1)
    bottom = line_to_row((0, -1), 1)
    assert pair_relation(top, bottom) == PairRelation.EXTERNALLY_TANGENT
    assert pair_relation(top, line_to_row((1, 0), 0)) == PairRelation.CROSSING
    assert pair_relation(top, line_to_row((0, -1), -1)) == PairRelation.EQUAL
    unit = circle_to_row(1, (0, 0))
    assert pair_relation(top, unit) == PairRelation.EXTERNALLY_TANGENT
    assert pair_relation(line_to_row((0, 1), 2), unit) == PairRelation.DISJOINT
    assert pair_relation(line_to_row((0, 1), 0), unit) == PairRelation.CROSSING


_coords = st.fractions(min_value=-5, max_value=5, max_denominator=8)
_curv = st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=4)


@given(b1=_curv, x1=_coords, y1=_coords, b2=_curv, x2=_coords, y2=_coords)
def test_pair_relation_is_symmetric(b1, x1, y1, b2, x2, y2):
    c1 = circle_to_row(b1, (x1, y1))
    c2 = circle_to_row(b2, (x2, y2))
    assert pair_relation(c1, c2) == pair_relation(c2, c1)


@given(b=_curv, x=_coords, y=_coords)
def test_row_invariant_from_constructor(b, x, y):
    c = circle_to_row(b, (x, y))
    bbar, bb, bx, by = c.row()
    assert bbar * bb == bx * bx + by * by - 1
