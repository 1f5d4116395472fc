"""Exact geometry of augmented circle rows."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gasket.core import (Circle, InvalidCircleError, InvalidQuadrupleError,
                         PairRelation, Q_D, Q_W, W_STANDARD, canon,
                         canon_matrix, circle_from_row, circle_to_row,
                         config_of, descartes_defect, divisor,
                         extend_to_augmented, line_to_row, mat_mul,
                         orientation, pair_relation, quotient, row_to_circle,
                         transpose, validate_augmented, validate_quadruple)
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
    assert _extend_outcome(extend_to_augmented, m[:3]) == \
        "expected a 4x3 configuration matrix"
    lines = ((0, 0, 1), (0, 0, -1), (0, 1, 0), (0, -1, 0))
    assert _extend_outcome(extend_to_augmented, lines) == \
        "configuration has no proper circle row"


def test_quotient_is_exact():
    assert quotient(12, -4) == -3 and type(quotient(12, -4)) is int
    assert quotient(-7, 21) == Fraction(-1, 3)
    assert quotient(Fraction(9, 2), Fraction(3, 2)) == 3
    assert type(quotient(Fraction(9, 2), Fraction(3, 2))) is int
    assert quotient(Fraction(1, 2), 3) == Fraction(1, 6)


def test_canon_keeps_canonical_fractions(fractions_built):
    f = Fraction(5, 7)
    assert canon(f) is f
    assert canon(Fraction(6, 3)) == 2 and type(canon(Fraction(6, 3))) is int
    moved = tuple(translate_row(r, Fraction(1, 3), Fraction(1, 7))
                  for r in W_STANDARD)
    assert sum(type(x) is Fraction for r in moved for x in r) == 8
    before = fractions_built[0]
    assert validate_augmented(moved)
    # Copying each entry through Fraction(x) took 95 constructions here.
    assert fractions_built[0] - before < 95


# The body `extend_to_augmented` had before its closed forms, kept as the
# reference it is compared with: line rows are solved through Q_W^{-1}.
def _reference_extend(m):
    cfg = canon_matrix(m)
    if len(cfg) != 4 or any(len(r) != 3 for r in cfg):
        raise InvalidCircleError("expected a 4x3 configuration matrix")
    bbars = [None] * 4
    circle_rows = []
    for i, (b, bx, by) in enumerate(cfg):
        if b != 0:
            bbars[i] = canon(Fraction(bx * bx + by * by - 1) / b)
            circle_rows.append(i)
    if not circle_rows:
        raise InvalidCircleError("configuration has no proper circle row")
    j = circle_rows[0]
    wj = (bbars[j],) + cfg[j]
    for i in range(4):
        if bbars[i] is None:
            b, bx, by = cfg[i]
            rhs = canon(Q_D[i][j] - Fraction(1, 2) * (bx * wj[2] + by * wj[3]))
            bbars[i] = canon(rhs / (Fraction(-1, 4) * wj[1]))
    w = tuple((bbars[i],) + cfg[i] for i in range(4))
    if not validate_augmented(w):
        raise InvalidCircleError(
            "configuration does not extend to a tangent quadruple")
    return canon_matrix(w)


def _extend_outcome(extend, cfg):
    """Result with the type of every entry, or the error text."""
    try:
        w = extend(cfg)
    except InvalidCircleError as exc:
        return str(exc)
    return w, [[type(x) for x in r] for r in w]


@given(st.lists(st.integers(0, 7), max_size=12),
       st.fractions(min_value=-5, max_value=5, max_denominator=9),
       st.fractions(min_value=-5, max_value=5, max_denominator=9),
       st.permutations(range(4)), st.integers(0, 12),
       st.sampled_from((1, -1, 3, Fraction(1, 2))))
def test_extend_to_augmented_matches_reference(word, dx, dy, order, spot,
                                               bump):
    # Moved, translated and shuffled standard strips, and copies with one
    # entry changed, against the body solved through Q_W^{-1}.
    w = W_STANDARD
    for k in word:
        w = act(ALL_LETTERS[k], w)
    moved = tuple(translate_row(w[i], dx, dy) for i in order)
    cfg = [list(r[1:]) for r in moved]
    if spot < 12:
        cfg[spot // 3][spot % 3] = canon(cfg[spot // 3][spot % 3] + bump)
    expected = _extend_outcome(_reference_extend, cfg)
    assert _extend_outcome(extend_to_augmented, cfg) == expected
    if spot == 12:
        assert expected[0] == moved
    elif all(isinstance(x, int) for r in cfg for x in r):
        # An odd change to one entry of an integer configuration moves that
        # column's Descartes form by an odd amount, so nothing extends it.
        assert isinstance(expected, str)


def test_extend_to_augmented_builds_no_fraction_on_integers(fractions_built):
    configs = []
    w = W_STANDARD
    for k in (0, 5, 2, 7, 1, 4, 6, 3, 0, 6):
        w = act(ALL_LETTERS[k], w)
        configs.append((w, config_of(w)))
        configs.append((w[::-1], config_of(w[::-1])))
    before = fractions_built[0]
    results = [(w, extend_to_augmented(cfg)) for w, cfg in configs]
    assert fractions_built[0] == before
    assert all(w == got for w, got in results)


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
