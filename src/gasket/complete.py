"""Completing three mutually tangent circles to tangent quadruples.

Given three pairwise tangent circles (with distinct tangency points),
there are exactly two circles tangent to all three.  Each completion is
found exactly: the missing augmented row satisfies three linear pairing
constraints against the known rows plus one quadratic normalization, all
with rational coefficients, so the two solutions are rational whenever
the discriminant is a rational square.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .core import (Circle, GasketError, HALF, Matrix, Q_W_INV, Row, Scalar,
                   TANGENT_RELATIONS, canon, canon_row, pair_relation,
                   validate_augmented)


class CompletionError(GasketError):
    """The triple is not in completable tangent position."""


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


def _qw_inv_pair(u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    return canon(sum(u[i] * sum(Q_W_INV[i][j] * v[j] for j in range(4))
                     for i in range(4)))


def _check_triple(circles: Sequence[Circle]) -> Tuple[Row, Row, Row]:
    if len(circles) != 3:
        raise CompletionError("expected exactly three circles")
    rows = tuple(c.validate().row() for c in circles)
    for i in range(3):
        for j in range(i + 1, 3):
            rel = pair_relation(circles[i], circles[j])
            if rel not in TANGENT_RELATIONS:
                raise CompletionError(
                    f"circles {i} and {j} are not tangent ({rel.value})")
    return rows


def complete(c1: Circle, c2: Circle, c3: Circle) -> Tuple[Matrix, Matrix]:
    """Both tangent quadruples extending a pairwise tangent triple.

    Returns two augmented matrices whose first three rows are the inputs;
    the completion with the smaller curvature comes first, ties broken by
    row order.  Raises CompletionError when the triple is degenerate
    (all tangent at one point) or the completions are irrational.
    """
    rows = _check_triple((c1, c2, c3))

    # Linear part: the unknown row x pairs to -1/2 against each input row.
    a = [tuple(sum(Q_W_INV[k][j] * w[k] for k in range(4)) for j in range(4))
         for w in rows]
    rhs = [Fraction(-1, 2)] * 3

    # Gaussian elimination to a particular solution plus kernel direction.
    mat = [list(map(Fraction, row)) + [rhs[i]] for i, row in enumerate(a)]
    pivots: List[int] = []
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

    # Quadratic normalization: x Q_W^{-1} x^T = 1/2.
    alpha = _qw_inv_pair(d, d)
    beta = canon(2 * _qw_inv_pair(p, d))
    gamma = canon(_qw_inv_pair(p, p) - HALF)
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


def strong_integrality_from_three(circles: Sequence[Circle]) -> bool:
    """True when all three circles have integer (b, b*x, b*y) entries."""
    if len(circles) != 3:
        raise CompletionError("expected exactly three circles")
    for c in circles:
        for x in (c.curvature, c.cx, c.cy):
            if not isinstance(canon(x), int):
                return False
    return True


# ---------------------------------------------------------------------------
# Exact complex-coordinate identities satisfied by tangent quadruples.


def _cadd(a, b):
    return (canon(a[0] + b[0]), canon(a[1] + b[1]))


def _cmul(a, b):
    return (canon(a[0] * b[0] - a[1] * b[1]), canon(a[0] * b[1] + a[1] * b[0]))


def complex_descartes_quadratic_holds(w: Matrix) -> bool:
    """sum (b_i z_i)^2 = (1/2) (sum b_i z_i)^2 + ... combined identity.

    Checks the quadratic curvature-center identity
    sum (b_i z_i)^2 = (1/2)(sum b_i z_i)^2 over exact complex arithmetic.
    """
    bz = [(r[2], r[3]) for r in w]
    lhs = (0, 0)
    for z in bz:
        lhs = _cadd(lhs, _cmul(z, z))
    s = (0, 0)
    for z in bz:
        s = _cadd(s, z)
    rhs = _cmul(s, s)
    return (canon(2 * lhs[0]), canon(2 * lhs[1])) == rhs


def complex_descartes_linear_holds(w: Matrix) -> bool:
    """sum b_i (b_i z_i) = (1/2)(sum b_i)(sum b_i z_i), exactly."""
    lhs = (0, 0)
    for r in w:
        lhs = _cadd(lhs, (canon(r[1] * r[2]), canon(r[1] * r[3])))
    sb = canon(sum(r[1] for r in w))
    sz = (0, 0)
    for r in w:
        sz = _cadd(sz, (r[2], r[3]))
    rhs = (canon(HALF * sb * sz[0]), canon(HALF * sb * sz[1]))
    return (canon(2 * lhs[0]), canon(2 * lhs[1])) == (canon(2 * rhs[0]), canon(2 * rhs[1]))
