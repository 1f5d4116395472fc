"""Completing three mutually tangent circles to tangent quadruples.

Given three pairwise tangent circles (with distinct tangency points),
there are exactly two circles tangent to all three, found in closed form.
Pair rows by <u, v> = u Q_W^{-1} v^T, that is
(u2 v2 + u3 v3) / 2 - (u0 v1 + u1 v0) / 4; the rows of an augmented
matrix satisfy <w_i, w_j> = delta_ij - 1/2.  So
the missing row x pairs to -1/2 with each known row and to 1/2 with
itself.  The sum s = w1 + w2 + w3 already meets the three linear
conditions, as <s, w_k> = 1/2 - 1 = -1/2, and so every solution is
s + t d.  Here d = (-2 n1, -2 n0, n2, n3), with n the 4-D cross product
of the three rows, pairs to 0 with each of them and with s.  Then
<s, s> = 3/2 - 3 = -3/2 turns <x, x> = 1/2 into t^2 <d, d> = 2.

Tangent rows pair to +-1/2, so the triple has Gram matrix
G = 1/2 [[1, a, b], [a, 1, c], [b, c, 1]], a, b, c = +-1, and
det G = (abc - 1) / 4.  If abc = 1, G has rank 1; under a form of
signature (3, 1) three independent rows give rank 2 at least, so n = 0,
the common-point case.  Otherwise det G = -1/2, d lies outside the span
of the rows, and M = [w1; w2; w3; d] has M Q_W^{-1} M^T = diag(G, <d, d>)
and det M = -(n . d) = -2 <d, d>.  With det Q_W^{-1} = -1/64 that gives
-<d, d>^2 / 16 = -<d, d> / 2, so <d, d> = 8, t = 1/2, and the
completions are (2 s +- d) / 2: integer rows stay int.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from .core import (Circle, GasketError, Matrix, Row, Scalar, TANGENT_RELATIONS,
                   canon, pair_relation, quotient, validate_augmented)


class CompletionError(GasketError):
    """The triple is not in completable tangent position."""


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


def _det3(a: Sequence[Scalar], b: Sequence[Scalar],
          c: Sequence[Scalar]) -> Scalar:
    return (a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0]))


def complete(c1: Circle, c2: Circle, c3: Circle) -> Tuple[Matrix, Matrix]:
    """Both tangent quadruples extending a pairwise tangent triple.

    Returns two augmented matrices whose first three rows are the inputs;
    the completion with the smaller curvature comes first, ties broken by
    row order.  Raises CompletionError when the triple is degenerate
    (all tangent at one point).
    """
    rows = _check_triple((c1, c2, c3))
    # Signed 3x3 minors: n . w == 0 for each input row w.
    n = [(-1) ** i * _det3(*(r[:i] + r[i + 1:] for r in rows))
         for i in range(4)]
    if not any(n):
        raise CompletionError(
            "degenerate triple: the circles share a common tangency point")
    d = (-2 * n[1], -2 * n[0], n[2], n[3])
    s = [sum(col) for col in zip(*rows)]
    sols = []
    for sgn in (1, -1):
        x = tuple(quotient(2 * s[j] + sgn * d[j], 2) for j in range(4))
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
    """sum b_i (b_i z_i) = (1/2)(sum b_i)(sum b_i z_i), exactly.

    Tested doubled, 2 sum b_i (b_i z_i) == (sum b_i)(sum b_i z_i), one
    coordinate of b_i z_i at a time.
    """
    sb = sum(r[1] for r in w)
    return all(2 * sum(r[1] * r[k] for r in w) == sb * sum(r[k] for r in w)
               for k in (2, 3))
