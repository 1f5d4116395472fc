"""Exact rational geometry of circles in curvature-center coordinates.

A circle (or straight line) is stored as an augmented row of four rational
numbers (bbar, b, b*x, b*y) where b is the oriented curvature, (x, y) the
center, and bbar the curvature of the image under inversion in the unit
circle.  Lines carry b = 0; their third and fourth entries form the unit
normal pointing into the region they bound, and bbar is twice the signed
distance of the line from the origin along that normal.

Quadruples of mutually tangent circles become 4x4 matrices of such rows,
characterized exactly by a quadratic-form identity.  Everything here is
exact: all arithmetic is integer or ``fractions.Fraction``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple, Union

Scalar = Union[int, Fraction]
Row = Tuple[Scalar, Scalar, Scalar, Scalar]
Matrix = Tuple[Row, ...]


class GasketError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidQuadrupleError(GasketError):
    """A curvature quadruple fails the Descartes relation or sign rules."""


class InvalidCircleError(GasketError):
    """Circle data violates the row invariant."""


def canon(x) -> Scalar:
    """Coerce to an exact scalar, collapsing integral fractions to int.

    A Fraction is always in lowest terms, so one that is not integral is
    already canonical and comes back as it is.
    """
    if isinstance(x, int):
        return x
    if type(x) is Fraction:
        return x.numerator if x.denominator == 1 else x
    f = Fraction(x)
    if f.denominator == 1:
        return f.numerator
    return f


def quotient(num: Scalar, den: Scalar) -> Scalar:
    """Exact num / den, an int whenever the quotient is integral.

    Two int operands are divided with divmod, so a Fraction is built only
    for a quotient that is not an integer.
    """
    if isinstance(num, int) and isinstance(den, int):
        q, r = divmod(num, den)
        return q if r == 0 else Fraction(num, den)
    return canon(num / den)


def canon_row(row: Sequence) -> Row:
    vals = tuple(canon(x) for x in row)
    return vals


def canon_matrix(rows: Sequence[Sequence]) -> Matrix:
    return tuple(canon_row(r) for r in rows)


def scalars_text(values: Sequence[Scalar]) -> str:
    """Scalars as error messages print them: (1/2, -3, 0), not
    (Fraction(1, 2), -3, 0)."""
    return "(" + ", ".join(map(str, values)) + ")"


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Exact matrix product; works for any compatible rectangular shapes."""
    cols = len(b[0])
    inner = len(b)
    out = []
    for ra in a:
        out.append(tuple(
            canon(sum(ra[k] * b[k][j] for k in range(inner)))
            for j in range(cols)))
    return tuple(out)


def mat_vec(a: Matrix, v: Sequence[Scalar]) -> Tuple[Scalar, ...]:
    return tuple(canon(sum(ra[k] * v[k] for k in range(len(v)))) for ra in a)


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def identity_matrix(n: int = 4) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_neg(a: Matrix) -> Matrix:
    return tuple(tuple(canon(-x) for x in row) for row in a)


HALF = Fraction(1, 2)

# Quadratic form on curvature quadruples: Q_D = I - (1/2) * ones.
Q_D: Matrix = tuple(
    tuple(canon((1 if i == j else 0) - HALF) for j in range(4))
    for i in range(4))

# Lorentz form of signature (3, 1).
Q_L: Matrix = ((-1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))

# Form satisfied by augmented matrices: W^T Q_D W = Q_W.
Q_W: Matrix = ((0, -4, 0, 0), (-4, 0, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2))

# The standard strip configuration: lines y = 1 and y = -1 plus unit
# circles centered at (1, 0) and (-1, 0).
W_STANDARD: Matrix = ((2, 0, 0, 1), (2, 0, 0, -1), (0, 1, 1, 0), (0, 1, -1, 0))


def descartes_defect(q: Sequence[Scalar]) -> Scalar:
    """Value of (sum b_i)^2 - 2 * sum b_i^2; zero on tangent quadruples."""
    if len(q) != 4:
        raise InvalidQuadrupleError("expected four curvatures")
    vals = canon_row(q)
    s = sum(vals)
    return canon(s * s - 2 * sum(x * x for x in vals))


def is_descartes_quadruple(q: Sequence[Scalar]) -> bool:
    return descartes_defect(q) == 0


def validate_quadruple(q: Sequence[Scalar]) -> Tuple[Scalar, ...]:
    """Check the Descartes relation and sign constraints, return the tuple.

    A geometrically realizable quadruple has defect zero, at most one
    negative entry and at most two zero entries (and is not all zero).
    """
    vals = canon_row(q)
    if descartes_defect(vals) != 0:
        raise InvalidQuadrupleError(f"nonzero defect for {scalars_text(vals)}")
    if all(x == 0 for x in vals):
        raise InvalidQuadrupleError("all-zero quadruple")
    s = sum(vals)
    if s == 0:
        raise InvalidQuadrupleError(
            f"zero curvature sum in {scalars_text(vals)}")
    wrong_sign = sum(1 for x in vals if (x < 0 if s > 0 else x > 0))
    if wrong_sign > 1:
        raise InvalidQuadrupleError(
            "more than one curvature against the orientation in "
            + scalars_text(vals))
    if sum(1 for x in vals if x == 0) > 2:
        raise InvalidQuadrupleError(
            f"more than two zero curvatures in {scalars_text(vals)}")
    return vals


def divisor(q: Sequence[Scalar]) -> int:
    """gcd of the absolute curvatures of an integer quadruple."""
    vals = canon_row(q)
    ints = []
    for x in vals:
        if not isinstance(x, int):
            raise InvalidQuadrupleError(f"divisor needs integer curvatures, got {x}")
        ints.append(abs(x))
    g = 0
    for x in ints:
        g = math.gcd(g, x)
    if g == 0:
        raise InvalidQuadrupleError("divisor undefined for the zero quadruple")
    return g


def orientation(q: Sequence[Scalar]) -> int:
    """Sign of the curvature sum: +1 or -1.  Zero sum is not realizable."""
    s = sum(canon_row(q))
    if s > 0:
        return 1
    if s < 0:
        return -1
    raise InvalidQuadrupleError("curvature sum is zero; no orientation")


@dataclass(frozen=True)
class Circle:
    """An oriented circle or line in augmented coordinates.

    Fields mirror the row (bbar, b, b*x, b*y).  For a line, ``curvature``
    is 0, (cx, cy) is the unit normal on the interior side and
    ``cocurvature`` is twice the signed offset of the line.
    """

    cocurvature: Scalar
    curvature: Scalar
    cx: Scalar
    cy: Scalar

    def __post_init__(self):
        if type(self.cocurvature) is type(self.curvature) is type(self.cx) \
                is type(self.cy) is int:
            return  # already exact; enumeration builds many of these
        object.__setattr__(self, "cocurvature", canon(self.cocurvature))
        object.__setattr__(self, "curvature", canon(self.curvature))
        object.__setattr__(self, "cx", canon(self.cx))
        object.__setattr__(self, "cy", canon(self.cy))

    @property
    def is_line(self) -> bool:
        return self.curvature == 0

    def row(self) -> Row:
        return (self.cocurvature, self.curvature, self.cx, self.cy)

    def center(self) -> Tuple[Scalar, Scalar]:
        if self.is_line:
            raise InvalidCircleError("a line has no center")
        b = self.curvature
        return (canon(Fraction(self.cx) / b), canon(Fraction(self.cy) / b))

    def radius(self) -> Scalar:
        if self.is_line:
            raise InvalidCircleError("a line has no radius")
        return canon(1 / Fraction(abs(self.curvature)))

    def validate(self) -> "Circle":
        if not row_is_valid(self.row()):
            raise InvalidCircleError(
                f"row invariant fails for {scalars_text(self.row())}")
        return self


def row_is_valid(row: Sequence[Scalar]) -> bool:
    """Single-row invariant: bbar*b = |b z|^2 - 1, unit normal for lines."""
    bbar, b, bx, by = canon_row(row)
    if b == 0:
        return bx * bx + by * by == 1
    return bbar * b == bx * bx + by * by - 1


def circle_from_row(row: Sequence[Scalar]) -> Circle:
    c = Circle(*canon_row(row))
    return c.validate()


def circle_to_row(curvature: Scalar, center: Tuple[Scalar, Scalar]) -> Circle:
    """Build the augmented row of a proper circle from curvature and center."""
    b = canon(curvature)
    if b == 0:
        raise InvalidCircleError("curvature zero; use line_to_row")
    x, y = canon(center[0]), canon(center[1])
    bx, by = canon(b * x), canon(b * y)
    bbar = canon(Fraction(bx * bx + by * by - 1) / b)
    return Circle(bbar, b, bx, by).validate()


def line_to_row(normal: Tuple[Scalar, Scalar], offset: Scalar) -> Circle:
    """Line {p : normal . p = offset} with interior on the + normal side."""
    nx, ny = canon(normal[0]), canon(normal[1])
    if nx * nx + ny * ny != 1:
        raise InvalidCircleError(
            f"normal {scalars_text((nx, ny))} is not a unit vector")
    return Circle(canon(2 * canon(offset)), 0, nx, ny).validate()


def row_to_circle(circle: Circle) -> Tuple[Scalar, Tuple[Scalar, Scalar]]:
    """Inverse of circle_to_row: recover (curvature, center)."""
    if circle.is_line:
        raise InvalidCircleError("lines have no curvature-center pair")
    return circle.curvature, circle.center()


def validate_augmented(w: Sequence[Sequence[Scalar]]) -> bool:
    """True when W is a genuine augmented matrix: W^T Q_D W = Q_W.

    Q_D = I - (1/2) 1 1^T, so W^T Q_D W = W^T W - (1/2) c c^T with c the
    column sums of W; the test 2 W^T W - c c^T == 2 Q_W has no halves and
    stays in integers on an integer matrix.
    """
    m = canon_matrix(w)
    if len(m) != 4 or any(len(r) != 4 for r in m):
        return False
    cols = tuple(zip(*m))
    c = [sum(col) for col in cols]
    return all(2 * sum(x * y for x, y in zip(cols[i], cols[j])) - c[i] * c[j]
               == 2 * Q_W[i][j] for i in range(4) for j in range(i, 4))


def augmented_from_circles(circles: Sequence[Circle]) -> Matrix:
    if len(circles) != 4:
        raise InvalidCircleError("an augmented matrix needs four circles")
    w = tuple(c.validate().row() for c in circles)
    if not validate_augmented(w):
        raise InvalidCircleError("circles do not form a tangent quadruple")
    return w


def config_of(w: Matrix) -> Matrix:
    """Drop the cocurvature column, keeping the 4x3 (b, bx, by) part."""
    return tuple(r[1:] for r in canon_matrix(w))


def curvatures(m: Matrix) -> Tuple[Scalar, ...]:
    """Curvature column of a 4x3 config or 4x4 augmented matrix."""
    idx = 0 if len(m[0]) == 3 else 1
    return tuple(r[idx] for r in m)


def extend_to_augmented(m: Sequence[Sequence[Scalar]]) -> Matrix:
    """Recover the unique augmented matrix of a 4x3 configuration.

    A circle row's cocurvature follows from the row invariant,
    bbar = (bx^2 + by^2 - 1) / b.  Rows of an augmented matrix pair as
    <w_i, w_j> = delta_ij - 1/2 under <u, v> = u Q_W^{-1} v^T
    = (u2 v2 + u3 v3) / 2 - (u0 v1 + u1 v0) / 4, so a line row i (b_i = 0,
    unit normal n_i) and the first circle row j give
    bbar_i = (2 (n_i . (bz)_j) + 2) / b_j.
    """
    cfg = canon_matrix(m)
    if len(cfg) != 4 or any(len(r) != 3 for r in cfg):
        raise InvalidCircleError("expected a 4x3 configuration matrix")
    j = next((i for i, r in enumerate(cfg) if r[0] != 0), None)
    if j is None:
        raise InvalidCircleError("configuration has no proper circle row")
    bj, xj, yj = cfg[j]
    w = tuple((quotient(bx * bx + by * by - 1, b) if b != 0
               else quotient(2 * (bx * xj + by * yj) + 2, bj), b, bx, by)
              for b, bx, by in cfg)
    if not validate_augmented(w):
        raise InvalidCircleError("configuration does not extend to a tangent quadruple")
    return w


class PairRelation(enum.Enum):
    EQUAL = "equal"
    DISJOINT = "disjoint"
    EXTERNALLY_TANGENT = "externally_tangent"
    INTERNALLY_TANGENT = "internally_tangent"
    NESTED = "nested"
    CROSSING = "crossing"


def pair_relation(c1: Circle, c2: Circle) -> PairRelation:
    """Unoriented geometric relation between two circle/line point sets.

    All comparisons are cross-multiplied so no division happens; on
    integer rows this stays in machine integers.
    """
    r1, r2 = c1.row(), c2.row()
    b1, b2 = r1[1], r2[1]
    if b1 == 0 and b2 == 0:
        n1 = (r1[2], r1[3])
        n2 = (r2[2], r2[3])
        h1, h2 = r1[0], r2[0]
        if (n1 == n2 and h1 == h2) or (n1 == (-n2[0], -n2[1]) and h1 == -h2):
            return PairRelation.EQUAL
        if n1[0] * n2[1] - n1[1] * n2[0] == 0:
            return PairRelation.EXTERNALLY_TANGENT
        return PairRelation.CROSSING
    if b1 == 0 or b2 == 0:
        line, circ = (r1, r2) if b1 == 0 else (r2, r1)
        nx, ny, hb2 = line[2], line[3], line[0]
        bbar, b, bx, by = circ
        t = 2 * (nx * bx + ny * by) - hb2 * b
        if t == 2 or t == -2:
            return PairRelation.EXTERNALLY_TANGENT
        if -2 < t < 2:
            return PairRelation.CROSSING
        return PairRelation.DISJOINT
    dx = r1[2] * b2 - r2[2] * b1
    dy = r1[3] * b2 - r2[3] * b1
    e = dx * dx + dy * dy
    a1, a2 = abs(b1), abs(b2)
    outer = (a1 + a2) ** 2
    inner = (a1 - a2) ** 2
    if e == 0 and a1 == a2:
        return PairRelation.EQUAL
    if e > outer:
        return PairRelation.DISJOINT
    if e == outer:
        return PairRelation.EXTERNALLY_TANGENT
    if e > inner:
        return PairRelation.CROSSING
    if e == inner:
        return PairRelation.INTERNALLY_TANGENT
    return PairRelation.NESTED


TANGENT_RELATIONS = frozenset(
    {PairRelation.EXTERNALLY_TANGENT, PairRelation.INTERNALLY_TANGENT})
