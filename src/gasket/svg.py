"""Deterministic SVG rendering of enumerated circle sets.

Output is byte-for-byte reproducible: circles are emitted in sorted row
order and all coordinates are printed as decimals with a fixed number of
significant digits derived from the exact rationals.  A circle's
coordinates are formed as (numerator, denominator) pairs straight from its
row and the window's common denominator, so integer rows are drawn in
integer arithmetic.
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

from .core import GasketError, Row, Scalar, canon
from .packing import PackedCircle, Window, transform_row
from .serialize import scalar_to_str


SIG_DIGITS = 20
SCALE = 500  # picture units per unit length

_GRAYS = ("#f2f2f2", "#dddddd", "#c8c8c8", "#b0b0b0",
          "#949494", "#747474", "#4f4f4f", "#262626")


_CONTEXT = decimal.Context(prec=SIG_DIGITS, rounding=decimal.ROUND_HALF_EVEN)


def _dec(num: Scalar, den: Scalar = 1) -> str:
    """Fixed significant-digit decimal form of the exact rational num/den.

    Decimal division is correctly rounded, so the digits depend only on the
    value: the pair need not be reduced, and den may be negative.
    """
    n = num.numerator * den.denominator
    if n == 0:
        return "0"
    d = _CONTEXT.divide(decimal.Decimal(n),
                        decimal.Decimal(num.denominator * den.numerator))
    return format(d.normalize(_CONTEXT), "f")


def default_stroke_width(curvature: Scalar) -> Fraction:
    return Fraction(1, 100) + Fraction(1, 50) / (1 + abs(Fraction(curvature)))


@dataclass(frozen=True)
class RenderOptions:
    """Options controlling the deterministic SVG output."""

    window: Window
    fill: str = "none"  # "none" or "depth"
    residue_filter: Optional[Tuple[int, int]] = None  # (modulus, residue)
    labels: bool = False
    highlight_base: Tuple[Row, ...] = ()

    def __post_init__(self):
        if self.fill not in ("none", "depth"):
            raise GasketError("fill must be 'none' or 'depth'")
        if self.residue_filter is not None:
            mod, res = self.residue_filter
            if mod < 1:
                raise GasketError("residue modulus must be positive")
            if not 0 <= res < mod:
                raise GasketError("residue must lie in [0, modulus)")


def _filtered(circles: Iterable[PackedCircle],
              options: RenderOptions) -> List[PackedCircle]:
    out = []
    for pc in circles:
        if options.residue_filter is not None:
            mod, res = options.residue_filter
            b = pc.circle.curvature
            if b == 0 or not isinstance(b, int) or b % mod != res:
                continue
        out.append(pc)
    out.sort(key=lambda pc: pc.circle.row())
    return out


def _clip_line(row: Row, window: Window):
    """Exact clipping of a line row to the window; None when it misses."""
    bbar, b, nx, ny = row
    h = Fraction(bbar) / 2
    # Parametrize p = h * n + t * d with d perpendicular to the normal.
    px, py = h * nx, h * ny
    dx, dy = -Fraction(ny), Fraction(nx)
    tmin, tmax = None, None

    def cut(coef, base, lo, hi):
        # Constrain lo <= base + t * coef <= hi; returns False when empty.
        nonlocal tmin, tmax
        if coef == 0:
            return lo <= base <= hi
        t1, t2 = (lo - base) / coef, (hi - base) / coef
        if t1 > t2:
            t1, t2 = t2, t1
        if tmin is None or t1 > tmin:
            tmin = t1
        if tmax is None or t2 < tmax:
            tmax = t2
        return True

    if not cut(dx, px, Fraction(window.xmin), Fraction(window.xmax)):
        return None
    if not cut(dy, py, Fraction(window.ymin), Fraction(window.ymax)):
        return None
    if tmin is None or tmax is None or tmin > tmax:
        return None
    return ((px + tmin * dx, py + tmin * dy), (px + tmax * dx, py + tmax * dy))


def render_svg(circles: Iterable[PackedCircle], options: RenderOptions) -> str:
    """Render a circle set to an SVG document string."""
    w = options.window
    x0, x1, y0, y1, d = w.scaled
    width = _dec((x1 - x0) * SCALE, d)
    height = _dec((y1 - y0) * SCALE, d)

    def sx(x):
        return (Fraction(x) - Fraction(w.xmin)) * SCALE

    def sy(y):
        # Flip the y axis: SVG grows downward.
        return (Fraction(w.ymax) - Fraction(y)) * SCALE

    parts: List[str] = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" '
        'fill="none" stroke="#000000" stroke-width="1"/>']
    highlight = set(options.highlight_base)
    strokes = {}  # curvature -> formatted stroke width
    for pc in _filtered(circles, options):
        row = pc.circle.row()
        bbar, b, bx, by = row
        stroke = "#cc0000" if row in highlight else "#000000"
        sw = strokes.get(b)
        if sw is None:
            sw = strokes[b] = _dec(default_stroke_width(b) * SCALE)
        if b == 0:
            seg = _clip_line(row, w)
            if seg is None:
                continue
            (lx1, ly1), (lx2, ly2) = seg
            parts.append(
                f'<line x1="{_dec(sx(lx1))}" y1="{_dec(sy(ly1))}" '
                f'x2="{_dec(sx(lx2))}" y2="{_dec(sy(ly2))}" '
                f'stroke="{stroke}" stroke-width="{sw}" fill="none"/>')
            continue
        # Centre (bx/b, by/b) and radius 1/|b| in picture units, each over
        # the denominator b D or |b|.
        cx = _dec((bx * d - x0 * b) * SCALE, b * d)
        cy = _dec((y1 * b - by * d) * SCALE, b * d)
        if options.fill == "depth":
            fill = _GRAYS[pc.depth % len(_GRAYS)]
        else:
            fill = "none"
        parts.append(
            f'<circle cx="{cx}" cy="{cy}" r="{_dec(SCALE, abs(b))}" '
            f'stroke="{stroke}" stroke-width="{sw}" fill="{fill}"/>')
        if options.labels:
            parts.append(
                f'<text x="{cx}" y="{cy}" '
                f'font-size="{_dec(SCALE, 2 * abs(b))}" '
                'text-anchor="middle" dominant-baseline="middle">'
                f'{scalar_to_str(b)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Residue-class reflection symmetries.

_REFLECTIONS = {
    "x=1-y": (((0, -1), (-1, 0)), (1, 1)),
    "y=1/2": (((1, 0), (0, -1)), (0, 1)),
    "x=1/2": (((-1, 0), (0, 1)), (1, 0)),
}


def residue_symmetry_check(circles: Sequence[PackedCircle], modulus: int,
                           residue: int, reflection: str,
                           window: Optional[Window] = None):
    """Exact set-invariance of a curvature residue class under a mirror.

    Returns (True, None) when the filtered row set maps onto itself, and
    (False, counterexample_row) otherwise.  Lines are excluded: the test
    concerns integer curvature classes.
    """
    if reflection not in _REFLECTIONS:
        raise GasketError(f"unknown reflection {reflection!r}; "
                          f"choose from {sorted(_REFLECTIONS)}")
    if modulus < 1:
        raise GasketError("modulus must be positive")
    r2x2, v = _REFLECTIONS[reflection]
    if window is not None:
        corners = [(window.xmin, window.ymin), (window.xmin, window.ymax),
                   (window.xmax, window.ymin), (window.xmax, window.ymax)]
        mapped = set()
        for (x, y) in corners:
            mx = r2x2[0][0] * Fraction(x) + r2x2[0][1] * Fraction(y) + v[0]
            my = r2x2[1][0] * Fraction(x) + r2x2[1][1] * Fraction(y) + v[1]
            mapped.add((canon(mx), canon(my)))
        if mapped != {(canon(x), canon(y)) for (x, y) in corners}:
            raise GasketError(
                f"window is not symmetric under the reflection {reflection}")
    rows = set()
    for pc in circles:
        b = pc.circle.curvature
        if b == 0 or not isinstance(b, int):
            continue
        row = pc.circle.row()
        if b < 0:  # orientation does not change the geometric circle
            b, row = -b, tuple(-x for x in row)
        if b % modulus == residue:
            rows.add(row)
    for row in sorted(rows):
        mirrored = transform_row(row, r2x2, v)
        if mirrored[1] < 0:
            mirrored = tuple(-x for x in mirrored)
        if mirrored not in rows:
            return False, row
    return True, None
