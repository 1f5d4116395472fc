"""Independent integer arithmetic used to check gasket's outputs.

Nothing here imports gasket: every check replays or re-derives a result
with its own code, so a defect in the library cannot hide itself.

Rows are augmented circle rows (bbar, b, bx, by); a quadruple is a
4-tuple of curvatures.  Words are gasket's text form, latest letter
first, so they are replayed from the right.
"""

from __future__ import annotations

import decimal
import math
from fractions import Fraction

GRAYS = ("#f2f2f2", "#dddddd", "#c8c8c8", "#b0b0b0",
         "#949494", "#747474", "#4f4f4f", "#262626")
SCALE = 500
_DEC_CTX = decimal.Context(prec=20, rounding=decimal.ROUND_HALF_EVEN)


# ---------------------------------------------------------------------------
# Generator action.

def act(letter, rows):
    """One generator on a 4-list of rows (tuples) or of scalars.

    ``s_i`` replaces row i by twice the sum of the others minus itself;
    ``t_i`` adds twice row i to every other row and negates row i.
    """
    kind, i = letter[0], int(letter[1]) - 1
    if not isinstance(rows[0], tuple):
        v = list(rows)
        if kind == "s":
            v[i] = 2 * (sum(v) - v[i]) - v[i]
        else:
            v = [-x if k == i else x + 2 * v[i] for k, x in enumerate(v)]
        return tuple(v)
    out = list(rows)
    if kind == "s":
        others = [r for k, r in enumerate(rows) if k != i]
        out[i] = tuple(2 * (a + b + c) - x
                       for a, b, c, x in zip(*others, rows[i]))
    else:
        ri = rows[i]
        out = [tuple(-x for x in r) if k == i
               else tuple(x + 2 * y for x, y in zip(r, ri))
               for k, r in enumerate(rows)]
    return tuple(out)


def replay(word_text, rows):
    """Apply a word (gasket text form, latest letter first)."""
    for tok in reversed(word_text.split()):
        rows = act(tok, rows)
    return rows


# ---------------------------------------------------------------------------
# Rows and augmented matrices.

def row_is_valid(row):
    bbar, b, bx, by = row
    if b == 0:
        return bx * bx + by * by == 1
    return bbar * b == bx * bx + by * by - 1


# 2 * Q_W, the form every augmented matrix W satisfies as W^T Q_D W.
_TWO_QW = ((0, -8, 0, 0), (-8, 0, 0, 0), (0, 0, 4, 0), (0, 0, 0, 4))


def augmented_is_valid(w):
    """W^T Q_D W == Q_W with Q_D = I - J/2, doubled to stay in integers."""
    if len(w) != 4 or any(len(r) != 4 for r in w):
        return False
    cols = list(zip(*w))
    sums = [sum(c) for c in cols]
    return all(
        2 * sum(x * y for x, y in zip(cols[a], cols[b])) - sums[a] * sums[b]
        == _TWO_QW[a][b] for a in range(4) for b in range(4))


# ---------------------------------------------------------------------------
# Euclidean motions p -> (sx * x + tx, sy * y + ty) on rows.

def move_row(row, sx, sy, tx, ty):
    bbar, b, bx, by = row
    rx, ry = sx * bx, sy * by
    return (bbar + 2 * (rx * tx + ry * ty) + b * (tx * tx + ty * ty),
            b, rx + b * tx, ry + b * ty)


def unmove_row(row, sx, sy, tx, ty):
    """Inverse of move_row (the reflections are involutions)."""
    return move_row(move_row(row, 1, 1, -tx, -ty), sx, sy, 0, 0)


# ---------------------------------------------------------------------------
# SVG re-rendering of the documented output format.

def dec(x):
    """Twenty significant digits, half-even, trailing zeros dropped."""
    f = Fraction(x)
    if f == 0:
        return "0"
    d = _DEC_CTX.divide(decimal.Decimal(f.numerator),
                        decimal.Decimal(f.denominator))
    return format(d.normalize(_DEC_CTX), "f")


def svg_header(window):
    xmin, xmax, ymin, ymax = window
    w, h = dec((xmax - xmin) * SCALE), dec((ymax - ymin) * SCALE)
    return [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" '
            f'height="{h}" viewBox="0 0 {w} {h}">',
            f'<rect x="0" y="0" width="{w}" height="{h}" fill="none" '
            'stroke="#000000" stroke-width="1"/>']


def svg_element(row, depth, window):
    """The depth-shaded element for an integer row; horizontal lines only."""
    xmin, xmax, ymin, ymax = window
    bbar, b, bx, by = row
    sw = dec((Fraction(1, 100) + Fraction(1, 50) / (1 + abs(b))) * SCALE)
    if b == 0:
        if bx != 0 or by not in (1, -1):
            raise ValueError(f"unexpected line {row}")
        y = dec((ymax - Fraction(bbar * by, 2)) * SCALE)
        ends = (dec((xmax - xmin) * SCALE), "0")
        x1, x2 = ends if by == 1 else ends[::-1]
        return (f'<line x1="{x1}" y1="{y}" x2="{x2}" y2="{y}" '
                f'stroke="#000000" stroke-width="{sw}" fill="none"/>')
    cx = dec((Fraction(bx, b) - xmin) * SCALE)
    cy = dec((ymax - Fraction(by, b)) * SCALE)
    r = dec(Fraction(SCALE, abs(b)))
    return (f'<circle cx="{cx}" cy="{cy}" r="{r}" stroke="#000000" '
            f'stroke-width="{sw}" fill="{GRAYS[depth % len(GRAYS)]}"/>')


def gcd_all(values):
    g = 0
    for x in values:
        g = math.gcd(g, x)
    return g
