"""Breadth-first enumeration of packings and super-packings.

Starting from a tangent quadruple, the swap generators sweep out an
Apollonian packing and the full generator set sweeps out the
super-packing.  Words are enumerated in normal form, so every
configuration is visited once; each step emits only the circles the last
letter created.  Pruning is monotone and therefore sound:

* a swap that replaces a circle by a strictly larger-curvature one can
  only be followed (without backtracking) by moves that grow curvatures
  further, so the branch dies once the new curvature passes the bound;
* a transpose move into a positive-curvature circle only ever produces
  circles nested inside it, with strictly larger curvature and inside
  its bounding box;
* a transpose move into a line confines the rest of the branch to the
  closed half plane on the line's interior side;
* a swap walk along a two-line ground configuration translates by a
  fixed step, so each step confines the branch beyond the tangency point
  of the two circles involved.

Each branch therefore carries a rectangular region (possibly unbounded)
that contains all circles it can still emit, and is cut when the region
misses the requested window.  Region bounds are exact rationals kept as
``(num, den)`` pairs with ``den > 0`` and compared by cross-multiplying,
and the window test works over the window's common denominator.

Every base runs in integer arithmetic alone.  The generators act on rows
by integer matrices, so every row in the orbit of a base lies in
(1/D) Z^4, with D the lcm of the base's denominators.  Rows are carried
scaled by D, an integer base being the case D = 1: a scaled row
(B', B, X, Y) has the invariant B' B = X^2 + Y^2 - D^2, a disk's box is
((X -+ D)/B, (Y -+ D)/B), an axis-parallel line has normal (0, +-D) or
(+-D, 0) and offset B'/(2D), and the ground walk's tangency point, of
degree 0 in D, is unchanged.  The curvature bound is the one integer
floor(max_curvature D).  A circle nested in one of scaled curvature at
least that bound has a larger integer curvature, so it is past the bound.
Dedup and the final sort run on scaled rows, whose order is that of the
rows since D > 0, and a row is divided by D only when it is stored.

One step pays only for the children it keeps.  Each frontier entry
carries its matrix's column sums c, so a swap's new curvature
2 Σb - 3 b_i is known before any row is built, and an away swap past
the bound is dropped as a scalar.  A kept swap builds one row,
2c - 3 row_i, and the child's sums are c - row_i + that row, which is
3c - 4 row_i; a transpose builds its child directly, with sums
c + 4 row_i.  Words are parent links, (letter, parent cell), with the
length and the transpose count (the depth) carried beside them, and a
letter tuple is built only for a witness that is stored.  The base is
validated once, and a stored row gets one exact invariant test.  A
circle keeps the first witness offered, the first shortest normal-form
word in ``_NEXT_LETTERS`` order.  No two words were seen to offer one
row (all words from ``W_STANDARD`` of up to 11 swaps, or of up to 7
letters with transposes); that is evidence, not a proof.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, Optional, Sequence, Tuple

from .core import (Circle, GasketError, InvalidCircleError, Matrix, Row,
                   Scalar, W_STANDARD, canon, canon_matrix, canon_row,
                   divisor, orientation, quotient, scalars_text,
                   validate_augmented)
from .classify import _ground_runs, _replay, is_root_quadruple, root_quadruple
from .group import ALL_LETTERS, GeneratorLetter, GroupWord, is_normal_form


class EnumerationError(GasketError):
    """The budget does not bound the requested enumeration."""


@dataclass(frozen=True)
class Window:
    """Closed axis-aligned rectangle used for spatial filtering.

    ``scaled`` is the same rectangle over one common denominator: integers
    (X0, X1, Y0, Y1, D), where D is the lcm of the corner denominators and
    xmin = X0/D, xmax = X1/D, ymin = Y0/D, ymax = Y1/D.
    """

    xmin: Scalar
    xmax: Scalar
    ymin: Scalar
    ymax: Scalar
    scaled: Tuple[int, int, int, int, int] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("xmin", "xmax", "ymin", "ymax"):
            object.__setattr__(self, name, canon(getattr(self, name)))
        if self.xmin > self.xmax or self.ymin > self.ymax:
            raise GasketError("empty window")
        corners = (self.xmin, self.xmax, self.ymin, self.ymax)
        d = math.lcm(*(v.denominator for v in corners))
        object.__setattr__(self, "scaled", tuple(
            v.numerator * (d // v.denominator) for v in corners) + (d,))


@dataclass(frozen=True)
class EnumerationBudget:
    """Stopping rules for enumeration; max_curvature is always required."""

    max_curvature: Scalar
    max_word_length: Optional[int] = None
    window: Optional[Window] = None

    def __post_init__(self):
        object.__setattr__(self, "max_curvature", canon(self.max_curvature))
        if self.max_curvature <= 0:
            raise GasketError("max_curvature must be positive")
        if self.max_word_length is not None and self.max_word_length < 0:
            raise GasketError("max_word_length must be nonnegative")


@dataclass(frozen=True)
class PackedCircle:
    """An enumerated circle with its nesting depth and witness: the first
    shortest normal-form word, in ``_NEXT_LETTERS`` order, that makes it."""

    circle: Circle
    depth: int
    witness: GroupWord


# Region boxes: (xmin, xmax, ymin, ymax).  Each bound is an exact
# rational (num, den) with den > 0, or None for an unbounded side.
Bound = Optional[Tuple[Scalar, Scalar]]
Box = Tuple[Bound, Bound, Bound, Bound]
FULL_PLANE: Box = (None, None, None, None)


def _box_intersect(a: Box, b: Box) -> Optional[Box]:
    def lo(x, y):  # the larger lower bound
        if x is None or (y is not None and x[0] * y[1] < y[0] * x[1]):
            return y
        return x

    def hi(x, y):  # the smaller upper bound
        if x is None or (y is not None and y[0] * x[1] < x[0] * y[1]):
            return y
        return x

    out = (lo(a[0], b[0]), hi(a[1], b[1]), lo(a[2], b[2]), hi(a[3], b[3]))
    for low, high in ((out[0], out[1]), (out[2], out[3])):
        if low is not None and high is not None and \
                high[0] * low[1] < low[0] * high[1]:
            return None
    return out


def _window_box(w: Window) -> Box:
    x0, x1, y0, y1, d = w.scaled
    return ((x0, d), (x1, d), (y0, d), (y1, d))


def _circle_bbox(row: Row, scale: int = 1) -> Box:
    """Bounding box of a positive-curvature circle's disk; the row is
    scaled by ``scale``."""
    bbar, b, bx, by = row
    return ((bx - scale, b), (bx + scale, b), (by - scale, b), (by + scale, b))


def _line_halfplane_box(row: Row, scale: int = 1) -> Box:
    """Bounding box of a line's interior half plane, for a row scaled by
    ``scale``; exact only when the line is axis parallel, otherwise the
    full plane."""
    bbar, b, nx, ny = row
    if nx == 0 and ny == scale:
        return (None, None, (bbar, 2 * scale), None)
    if nx == 0 and ny == -scale:
        return (None, None, None, (-bbar, 2 * scale))
    if ny == 0 and nx == scale:
        return ((bbar, 2 * scale), None, None, None)
    if ny == 0 and nx == -scale:
        return (None, (-bbar, 2 * scale), None, None)
    return FULL_PLANE


def window_touches(row: Row, window: Window, scale: int = 1) -> bool:
    """Closed intersection test between a row's disk (for circles) or
    line (for b = 0) and the window rectangle.  Orientation-independent:
    a row and its negation describe the same geometric object.  The row
    may be scaled by a positive integer ``scale``.  Everything is
    cross-multiplied by the window's common denominator D (and by |b| for
    a circle), so integer rows need no rational arithmetic."""
    bbar, b, bx, by = row
    x0, x1, y0, y1, d = window.scaled
    if b == 0:
        # The line {p . n = bbar/2} meets the rectangle iff the corner
        # values of D p . n straddle D bbar/2; both sides carry the scale.
        lo = min(bx * x0, bx * x1) + min(by * y0, by * y1)
        hi = max(bx * x0, bx * x1) + max(by * y0, by * y1)
        return 2 * lo <= bbar * d <= 2 * hi
    # In units of 1/(|b| D): the centre is sign(b) (bx, by) D, the window
    # is |b| times the scaled one, and the radius is D times the scale.
    a = abs(b)
    if b < 0:
        bx, by = -bx, -by
    cx, cy = bx * d, by * d
    ex = cx - min(max(cx, x0 * a), x1 * a)
    ey = cy - min(max(cy, y0 * a), y1 * a)
    r = d * scale
    return ex * ex + ey * ey <= r * r


# The letters that may follow each last letter (None at the start), in
# enumeration order, for swaps only and for the full generator set.
_NEXT_LETTERS = {
    (last, super_moves): tuple(
        l for l in ALL_LETTERS
        if (super_moves or l.kind == "s")
        and is_normal_form(GroupWord((l,) if last is None else (l, last))))
    for last in (None,) + ALL_LETTERS for super_moves in (False, True)}


def _letters(cell) -> Tuple[GeneratorLetter, ...]:
    """The letters of a parent-linked word, latest first."""
    out = []
    while cell is not None:
        l, cell = cell
        out.append(l)
    return tuple(out)


_EXPANSION_GUARD = 5_000_000


def _enumerate(base: Matrix, budget: EnumerationBudget,
               super_moves: bool) -> Tuple[PackedCircle, ...]:
    w0 = canon_matrix(base)
    if not validate_augmented(w0):
        raise GasketError("base matrix is not a tangent quadruple")
    if orientation(tuple(r[1] for r in w0)) < 0:
        raise GasketError("enumeration needs a positively oriented base")
    maxlen = budget.max_word_length
    window = budget.window
    wbox = _window_box(window) if window is not None else None
    if window is None and maxlen is None:
        # A curvature bound alone only terminates for packings that stay
        # inside a bounding circle.  Super moves always reach quadruples
        # with lines, and those walk sideways forever.
        if super_moves:
            raise EnumerationError(
                "super-packing enumeration needs a window or a word-length"
                " bound: the orbit meets every region of the plane")
        root = root_quadruple(tuple(r[1] for r in w0))
        if min(root) == 0:
            raise EnumerationError(
                "packings containing lines need a window or a word-length"
                " bound: they extend along the lines forever")
    # Rows are carried as integers scaled by the lcm of the base's
    # denominators; the group keeps them integral.  Scaled curvatures are
    # integers, so the bound is one int.
    scale = math.lcm(*(x.denominator for r in w0 for x in r))
    w0 = tuple(tuple(x.numerator * (scale // x.denominator) for x in r)
               for r in w0)
    cap = math.floor(budget.max_curvature * scale)

    emitted: Dict[Row, PackedCircle] = {}

    def emit(row: Row, cell, depth: int):
        if window is not None and not window_touches(row, window, scale):
            return
        # Keep the first witness, which breadth-first order offers at the
        # shortest length, and one orientation of each circle.
        bbar, b, bx, by = row
        if row in emitted or (-bbar, -b, -bx, -by) in emitted:
            return
        # The scaled invariant; b = 0 makes it a normal of length scale.
        out = row if scale == 1 else tuple(quotient(x, scale) for x in row)
        if bbar * b != bx * bx + by * by - scale * scale:
            raise InvalidCircleError(
                f"row invariant fails for {scalars_text(out)}")
        emitted[row] = PackedCircle(Circle(*out), depth,
                                    GroupWord(_letters(cell)))

    for row in w0:
        emit(row, None, 0)

    # State: (matrix, column sums, last letter, word cell, word length,
    # depth, region box); a word cell is (letter, parent cell) or None.
    frontier = deque()
    frontier.append((w0, tuple(map(sum, zip(*w0))), None, None, 0, 0,
                     FULL_PLANE))
    expansions = 0
    while frontier:
        wm, cs, last, cell, n, depth, region = frontier.popleft()
        if maxlen is not None and n >= maxlen:
            continue
        expansions += 1
        if expansions > _EXPANSION_GUARD:
            raise EnumerationError(
                "the budget does not bound this enumeration")
        n += 1  # the children's word length
        c0, c1, c2, c3 = cs
        for l in _NEXT_LETTERS[last, super_moves]:
            i = l.index - 1
            x0, b_old, x2, x3 = wm[i]
            region2 = region
            if l.kind == "s":
                b_new = 2 * c1 - 3 * b_old
                keep = abs(b_new) <= cap
                if not keep and b_new >= b_old:
                    continue  # away move past the bound: subtree only grows
                new_row = (2 * c0 - 3 * x0, b_new, 2 * c2 - 3 * x2,
                           2 * c3 - 3 * x3)
                child_cs = (3 * c0 - 4 * x0, 3 * c1 - 4 * b_old,
                            3 * c2 - 4 * x2, 3 * c3 - 4 * x3)
                child_cell = (l, cell)
                if keep:
                    emit(new_row, child_cell, depth)
                child = wm[:i] + (new_row,) + wm[i + 1:]
                child_depth = depth
                if b_new == b_old and sum(r[1] == 0 for r in wm) == 2:
                    # Ground walk: the branch moves past the tangency
                    # point of the two equal circles, along the lines.
                    # That point is the midpoint of their centres, and
                    # b_new * b_j > 0 (Descartes: (0, 0, c, d) has c = d),
                    # so the cross-multiplied differences below have the
                    # signs of the centre differences.
                    j = next(k for k in range(4) if k != i and wm[k][1] != 0)
                    b_j, xj, yj = wm[j][1:]
                    tx = (x2 * b_j + xj * b_old, 2 * b_old * b_j)
                    ty = (x3 * b_j + yj * b_old, 2 * b_old * b_j)
                    dx = new_row[2] * b_j - xj * b_new
                    dy = new_row[3] * b_j - yj * b_new
                    half = FULL_PLANE
                    if dy == 0 and dx != 0:
                        half = (tx, None, None, None) if dx > 0 \
                            else (None, tx, None, None)
                    elif dx == 0 and dy != 0:
                        half = (None, None, ty, None) if dy > 0 \
                            else (None, None, None, ty)
                    region2 = _box_intersect(region, half)
                    if region2 is None:
                        continue
            else:
                if b_old > 0 and b_old >= cap:
                    continue  # everything nested inside exceeds the bound
                if b_old > 0:
                    region2 = _box_intersect(region,
                                             _circle_bbox(wm[i], scale))
                elif b_old == 0:
                    region2 = _box_intersect(
                        region, _line_halfplane_box(wm[i], scale))
                if region2 is None:
                    continue
                # t_i adds twice row i to every other row and negates it.
                y0, y1, y2, y3 = 2 * x0, 2 * b_old, 2 * x2, 2 * x3
                rows = [(r0 + y0, r1 + y1, r2 + y2, r3 + y3)
                        for r0, r1, r2, r3 in wm]
                rows[i] = (-x0, -b_old, -x2, -x3)
                child_cs = (c0 + 2 * y0, c1 + 2 * y1, c2 + 2 * y2,
                            c3 + 2 * y3)
                child = tuple(rows)
                child_cell = (l, cell)
                child_depth = depth + 1
                for k in range(4):
                    if k != i and abs(child[k][1]) <= cap:
                        emit(child[k], child_cell, child_depth)
            # The parent's region meets the window, so only a narrowed
            # region needs the test.
            if wbox is not None and region2 is not region and \
                    _box_intersect(region2, wbox) is None:
                continue
            frontier.append((child, child_cs, l, child_cell, n, child_depth,
                             region2))

    return tuple(emitted[row] for row in sorted(emitted))


def generate_packing(base: Matrix, budget: EnumerationBudget) -> Tuple[PackedCircle, ...]:
    """Enumerate the Apollonian packing of a tangent quadruple."""
    return _enumerate(base, budget, super_moves=False)


def generate_superpacking(base: Matrix, budget: EnumerationBudget) -> Tuple[PackedCircle, ...]:
    """Enumerate the super-packing generated by a tangent quadruple."""
    return _enumerate(base, budget, super_moves=True)


# ---------------------------------------------------------------------------
# Oriented containment and nesting depth.


def contains_oriented(outer: Circle, inner: Circle) -> bool:
    """Is the region bounded by ``inner`` inside the open interior of
    ``outer``?  Boundary tangency is allowed; equal curves are not
    contained in each other."""
    ro, ri = outer.row(), inner.row()
    if ro == ri:
        return False
    bo, bi = ro[1], ri[1]
    if bo == 0:
        nx, ny, h2 = ro[2], ro[3], ro[0]
        if bi == 0:
            return (ri[2], ri[3]) == (nx, ny) and ri[0] >= h2
        if bi < 0:
            return False
        # Disk of inner inside the half plane, tangency allowed.
        return 2 * (nx * ri[2] + ny * ri[3]) - h2 * bi >= 2
    if bo > 0:
        if bi <= 0:
            return False
        dx = ro[2] * bi - ri[2] * bo
        dy = ro[3] * bi - ri[3] * bo
        if bi < bo:
            return False
        return dx * dx + dy * dy <= (bi - bo) ** 2
    # Outer region is the exterior of a disk.
    if bi == 0:
        nx, ny = ri[2], ri[3]
        return -(2 * (nx * ro[2] + ny * ro[3]) - ri[0] * bo) >= 2
    dx = ro[2] * bi - ri[2] * bo
    dy = ro[3] * bi - ri[3] * bo
    if bi > 0:
        return dx * dx + dy * dy >= (abs(bo) + bi) ** 2
    if abs(bi) > abs(bo):
        return False
    return dx * dx + dy * dy <= (abs(bo) - abs(bi)) ** 2


def nesting_depth_geometric(c: Circle, circles: Iterable[PackedCircle]) -> int:
    """Number of distinct enumerated curves whose interior contains c."""
    count = 0
    for pc in circles:
        if contains_oriented(pc.circle, c):
            count += 1
    return count


def bounding_packing(c: PackedCircle, circles: Sequence[PackedCircle]
                     ) -> Tuple[Tuple[PackedCircle, ...], bool]:
    """The packing bounded by c: c plus the next-depth circles inside it.

    The flag reports truncation: True when no interior circle of depth
    c.depth + 1 was found in the enumerated set.
    """
    inside = tuple(pc for pc in circles
                   if pc.depth == c.depth + 1
                   and contains_oriented(c.circle, pc.circle))
    return ((c,) + inside, len(inside) == 0)


# ---------------------------------------------------------------------------
# Euclidean motions on rows.


def transform_row(row: Row, r2x2: Sequence[Sequence[Scalar]],
                  v: Tuple[Scalar, Scalar]) -> Row:
    """Image of a row under the isometry p -> R p + v, R orthogonal."""
    bbar, b, bx, by = canon_row(row)
    rx = canon(r2x2[0][0] * bx + r2x2[0][1] * by)
    ry = canon(r2x2[1][0] * bx + r2x2[1][1] * by)
    vx, vy = canon(v[0]), canon(v[1])
    nbbar = canon(bbar + 2 * (rx * vx + ry * vy) + b * (vx * vx + vy * vy))
    return (nbbar, b, canon(rx + b * vx), canon(ry + b * vy))


IDENT2 = ((1, 0), (0, 1))


def translate_row(row: Row, dx: Scalar, dy: Scalar) -> Row:
    return transform_row(row, IDENT2, (dx, dy))


def reflect_row_x(row: Row) -> Row:
    """Reflection across the y axis (x -> -x)."""
    return transform_row(row, ((-1, 0), (0, 1)), (0, 0))


def reflect_row_y(row: Row) -> Row:
    """Reflection across the x axis (y -> -y)."""
    return transform_row(row, ((1, 0), (0, -1)), (0, 0))


# ---------------------------------------------------------------------------
# Locating a root quadruple inside the unit square.


def locate_in_unit_square(root: Sequence[Scalar]) -> Matrix:
    """The copy of a primitive root quadruple whose largest circle has its
    center in the closed unit square.

    The input must be a primitive, sorted root quadruple with a negative
    smallest curvature.  The result is a strongly integral augmented
    matrix in the standard super-packing with curvature column equal to
    the input.  The ground matrix is moved back by the inverse of the
    greedy ground runs, each in O(1) ``act`` calls, so the work grows with
    the digits of the input, not with its size.
    """
    vals = canon_row(root)
    if not all(isinstance(x, int) for x in vals):
        raise GasketError("root quadruples are integral")
    if not is_root_quadruple(vals):
        raise GasketError(
            f"{scalars_text(vals)} is not a sorted root quadruple")
    if divisor(vals) != 1:
        raise GasketError(f"{scalars_text(vals)} is not primitive")
    if vals[0] >= 0:
        raise GasketError("the bounded case needs a negative smallest curvature")

    # A root quadruple is positively oriented, so end is the ground of vals.
    _, _, runs, ground = _ground_runs(vals)
    # Build a ground matrix whose curvature column matches exactly.
    line_rows = iter(i for i in range(4) if W_STANDARD[i][1] == 0)
    circ_rows = iter(i for i in range(4) if W_STANDARD[i][1] != 0)
    order = tuple(next(line_rows) if g == 0 else next(circ_rows)
                  for g in ground)
    wg = tuple(W_STANDARD[order[i]] for i in range(4))
    # The inverse word: the runs in reverse order, each read backwards.
    wt = _replay([(a, b, n) if n % 2 else (b, a, n)
                  for a, b, n in reversed(runs)], wg)
    if tuple(r[1] for r in wt) != vals:
        raise GasketError("internal check failed: curvatures do not match")

    a = vals[0]
    idx = next(i for i in range(4) if wt[i][1] == a)
    x = Fraction(wt[idx][2]) / a
    y = Fraction(wt[idx][3]) / a
    dx = -2 * math.floor((x + 1) / 2)
    dy = -2 * math.floor((y + 1) / 2)
    rows = tuple(translate_row(r, dx, dy) for r in wt)
    x += dx
    y += dy
    if x < 0:
        rows = tuple(reflect_row_x(r) for r in rows)
        x = -x
    if y < 0:
        rows = tuple(reflect_row_y(r) for r in rows)
        y = -y
    rows = canon_matrix(rows)
    if not (0 <= x <= 1 and 0 <= y <= 1):
        raise GasketError("internal check failed: center left the unit square")
    if not all(isinstance(v, int) for r in rows for v in r[1:]):
        raise GasketError("internal check failed: location is not strongly integral")
    if not validate_augmented(rows):
        raise GasketError("internal check failed: located matrix invalid")
    return rows


def unit_square_symmetries() -> Tuple[Tuple[Matrix, Tuple[int, int]], ...]:
    """Isometries preserving the standard super-packing that matter for
    uniqueness around the unit square: reflections combined with even
    translations up to one period in each direction."""
    out = []
    for sx in (1, -1):
        for sy in (1, -1):
            for tx in (-2, 0, 2):
                for ty in (-2, 0, 2):
                    if (sx, sy, tx, ty) == (1, 1, 0, 0):
                        continue
                    out.append((((sx, 0), (0, sy)), (tx, ty)))
    return tuple(out)
