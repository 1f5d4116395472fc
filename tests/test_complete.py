"""Completing three mutually tangent circles to a full configuration."""

import math
import random
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import given, strategies as st

from gasket.complete import (CompletionError, _check_triple, complete,
                             complex_descartes_linear_holds,
                             complex_descartes_quadratic_holds,
                             strong_integrality_from_three)
from gasket.core import (Circle, Scalar, W_STANDARD, canon, canon_row,
                         circle_from_row, curvatures, validate_augmented)
from gasket.group import ALL_LETTERS, GroupWord, act, apply
from gasket.packing import translate_row


def random_tangent_triple(rng):
    """Three rows of a random image of the standard configuration."""
    letters = []
    last = None
    for _ in range(rng.randrange(0, 12)):
        pick = rng.choice([l for l in ALL_LETTERS if l != last])
        last = pick
        letters.append(pick)
    mat = apply(GroupWord(tuple(reversed(letters))), W_STANDARD)
    drop = rng.randrange(4)
    kept = tuple(circle_from_row(mat[i]) for i in range(4) if i != drop)
    return kept, mat[drop]


def test_complete_two_lines():
    # Lines x = 0 and x = 2 with the unit circle pinched between them.
    a = circle_from_row((0, 0, -1, 0))
    b = circle_from_row((4, 0, 1, 0))
    c = circle_from_row((0, 1, 1, 0))
    sols = complete(a, b, c)
    for mat in sols:
        assert validate_augmented(mat)
        assert sorted(curvatures(mat)) == [0, 0, 1, 1]
    # The two completions differ in the fourth row only.
    rows = {m[3] for m in sols}
    assert rows == {(4, 1, 1, 2), (4, 1, 1, -2)}


def test_complete_double_root():
    # Curvatures (-1, 2, 2) complete with fourth curvature 3 both ways.
    a = circle_from_row((1, -1, 0, 0))
    b = circle_from_row((0, 2, 1, 0))
    c = circle_from_row((0, 2, -1, 0))
    sols = complete(a, b, c)
    fourth = sorted(m[3] for m in sols)
    assert fourth == [(1, 3, 0, -2), (1, 3, 0, 2)]


def test_complete_builds_few_fractions(fractions_built):
    # The elimination this closed form replaced built 303 Fractions on this
    # integer triple; (2 s +- d) / 2 is exact in int and builds none.
    circles = (circle_from_row((1, -1, 0, 0)), circle_from_row((0, 2, 1, 0)),
               circle_from_row((0, 2, -1, 0)))
    before = fractions_built[0]
    complete(*circles)
    assert fractions_built[0] - before == 0


def test_complete_recovers_dropped_row():
    rng = random.Random(11)
    for _ in range(200):
        kept, dropped = random_tangent_triple(rng)
        sols = complete(*kept)
        assert any(dropped in m for m in sols)
        for m in sols:
            assert validate_augmented(m)


def test_strong_integrality_propagates():
    rng = random.Random(13)
    for _ in range(200):
        kept, _ = random_tangent_triple(rng)
        assert strong_integrality_from_three(kept)
        for m in complete(*kept):
            for row in m:
                for x in row[1:]:
                    assert x == int(x)


def test_strong_integrality_detects_fractions():
    kept = tuple(circle_from_row(r) for r in
                 ((0, 0, 0, 1),
                  (2, 0, 0, 1),
                  (Fraction(1, 8), 2, Fraction(1, 2), 1)))
    assert not strong_integrality_from_three(kept)


def _bumped(m, i, k):
    rows = [list(r) for r in m]
    rows[i][k] += 1
    return tuple(map(tuple, rows))


def test_complex_descartes_identities():
    rng = random.Random(17)
    for _ in range(100):
        kept, _ = random_tangent_triple(rng)
        for m in complete(*kept):
            assert complex_descartes_quadratic_holds(m)
            assert complex_descartes_linear_holds(m)
            sb, sx, sy = (sum(r[k] for r in m) for k in (1, 2, 3))
            for i in range(4):
                # bx_i + 1 breaks the quadratic identity on integer rows
                # (only an even change of bx_i can keep it), and the linear
                # one unless 2 b_i = sum b.
                moved = _bumped(m, i, 2)
                assert not complex_descartes_quadratic_holds(moved)
                assert complex_descartes_linear_holds(moved) == \
                    (2 * m[i][1] == sb)
                # b_i + 1 leaves the quadratic identity, which has no b, and
                # breaks the linear one unless 2 b_i z_i = sum b z.
                moved = _bumped(m, i, 1)
                assert complex_descartes_quadratic_holds(moved)
                assert complex_descartes_linear_holds(moved) == \
                    (2 * m[i][2] == sx and 2 * m[i][3] == sy)


def test_complete_rejects_non_tangent_input():
    a = circle_from_row((1, -1, 0, 0))
    far = circle_from_row((Fraction(399, 2), 2, 20, 0))
    c = circle_from_row((0, 2, -1, 0))
    with pytest.raises(CompletionError):
        complete(a, far, c)


def test_complete_rejects_common_point_triple():
    # A line and two circles all tangent to each other at the origin.
    rows = ((0, 0, 0, 1), (0, 2, 0, 1), (0, 4, 0, 1))
    with pytest.raises(CompletionError):
        complete(*map(circle_from_row, rows))
    assert _outcome(complete, rows) == _outcome(_reference_complete, rows) \
        == "degenerate triple: the circles share a common tangency point"


def sqrt_fraction(x: Scalar) -> Optional[Scalar]:
    """Exact nonnegative square root of a rational, or None."""
    f = Fraction(x)
    if f < 0:
        return None
    rn = math.isqrt(f.numerator)
    rd = math.isqrt(f.denominator)
    if rn * rn != f.numerator or rd * rd != f.denominator:
        return None
    return canon(Fraction(rn, rd))


def test_sqrt_fraction():
    assert sqrt_fraction(Fraction(9, 4)) == Fraction(3, 2)
    assert sqrt_fraction(0) == 0
    assert sqrt_fraction(49) == 7
    assert sqrt_fraction(Fraction(2)) is None
    assert sqrt_fraction(Fraction(-1, 4)) is None


# The Gaussian elimination that `complete` used before its closed form,
# kept as the reference it is compared with.
_Q_W_INV = ((0, Fraction(-1, 4), 0, 0), (Fraction(-1, 4), 0, 0, 0),
            (0, 0, Fraction(1, 2), 0), (0, 0, 0, Fraction(1, 2)))


def _qw_inv_pair(u, v):
    return canon(sum(u[i] * sum(_Q_W_INV[i][j] * v[j] for j in range(4))
                     for i in range(4)))


def _reference_complete(c1, c2, c3):
    rows = _check_triple((c1, c2, c3))
    a = [tuple(sum(_Q_W_INV[k][j] * w[k] for k in range(4)) for j in range(4))
         for w in rows]
    mat = [list(map(Fraction, row)) + [Fraction(-1, 2)] for row in a]
    pivots = []
    r = 0
    for col in range(4):
        piv = next((i for i in range(r, 3) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = 1 / mat[r][col]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(3):
            if i != r and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == 3:
            break
    if r < 3:
        raise CompletionError(
            "degenerate triple: the circles share a common tangency point")
    free = next(c for c in range(4) if c not in pivots)
    p = [Fraction(0)] * 4
    d = [Fraction(0)] * 4
    d[free] = Fraction(1)
    for i, col in enumerate(pivots):
        p[col] = mat[i][4]
        d[col] = -mat[i][free]
    alpha = _qw_inv_pair(d, d)
    beta = canon(2 * _qw_inv_pair(p, d))
    gamma = canon(_qw_inv_pair(p, p) - Fraction(1, 2))
    if alpha == 0:
        raise CompletionError("degenerate triple: completion family collapses")
    disc = canon(beta * beta - 4 * alpha * gamma)
    root = sqrt_fraction(disc)
    if root is None:
        raise CompletionError("completions are not rational for this triple")
    sols = []
    for sgn in (1, -1):
        t = canon(Fraction(-beta + sgn * root) / (2 * alpha))
        x = canon_row(tuple(p[j] + t * d[j] for j in range(4)))
        w = rows + (x,)
        if not validate_augmented(w):
            raise CompletionError("internal check failed: invalid completion")
        sols.append(w)
    sols.sort(key=lambda w: (w[3][1], w[3]))
    return sols[0], sols[1]


def _outcome(solve, rows):
    """Result with the type of every entry, or the CompletionError text."""
    try:
        sols = solve(*(Circle(*r) for r in rows))
    except CompletionError as exc:
        return str(exc)
    return sols, [[type(x) for x in r] for w in sols for r in w]


@given(st.lists(st.integers(0, 7), max_size=12), st.integers(0, 3),
       st.fractions(min_value=-5, max_value=5, max_denominator=9),
       st.fractions(min_value=-5, max_value=5, max_denominator=9),
       st.sampled_from(("none", "one", "all")), st.integers(0, 2))
def test_complete_matches_elimination(word, drop, dx, dy, negate, which):
    # Word images of the standard strip, translated by rationals, with one
    # row or all rows negated: same matrices, entry types and errors.
    w = W_STANDARD
    for k in word:
        w = act(ALL_LETTERS[k], w)
    rows = [translate_row(r, dx, dy) for i, r in enumerate(w) if i != drop]
    if negate != "none":
        rows = [tuple(-x for x in r) if negate == "all" or i == which else r
                for i, r in enumerate(rows)]
    expected = _outcome(_reference_complete, rows)
    assert _outcome(complete, rows) == expected
    # One negated row breaks the orientation the completion must share.
    assert isinstance(expected, str) == (negate == "one")
