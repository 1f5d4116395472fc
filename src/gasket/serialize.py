"""JSON-friendly exact serialization of rationals, circles and matrices.

``packed_to_json`` returns the finished text of one JSON line, as
``json.dumps`` lays out the record and with its newline; the other
helpers convert to and from the objects ``json`` reads and writes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Dict, List

from .core import Circle, GasketError, Matrix, Scalar, canon, canon_matrix
from .packing import PackedCircle


def scalar_to_str(x: Scalar) -> str:
    # int has numerator and denominator too, so no Fraction is built.
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def scalar_from_str(s: str) -> Scalar:
    try:
        return canon(Fraction(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise GasketError(f"cannot parse rational {s!r}") from exc


def circle_from_json(d: Dict[str, Any]) -> Circle:
    try:
        vals = [scalar_from_str(str(d[k])) for k in ("bbar", "b", "bx", "by")]
    except KeyError as exc:
        raise GasketError(f"circle object missing key {exc}") from exc
    except TypeError as exc:
        raise GasketError(
            "circle must be an object with keys bbar, b, bx, by") from exc
    return Circle(*vals).validate()


# One circle as json.dumps lays out {"bbar", "b", "bx", "by", "depth",
# "witness"}.  The row entries are canonical scalars, whose str() is their
# scalar_to_str text, and the witness is letter names: nothing to escape.
_PACKED_LINE = ('{{"bbar": "{}", "b": "{}", "bx": "{}", "by": "{}", '
                '"depth": {}, "witness": "{}"}}\n')


def packed_to_json(pc: PackedCircle) -> str:
    """One JSON line, newline included, for an enumerated circle."""
    return _PACKED_LINE.format(*pc.circle.row(), pc.depth, pc.witness.text)


def matrix_to_json(m: Matrix) -> List[List[str]]:
    return [[scalar_to_str(x) for x in row] for row in m]


def matrix_from_json(rows: Any) -> Matrix:
    if not isinstance(rows, list) or \
            not all(isinstance(row, list) for row in rows):
        raise GasketError("matrix must be a JSON array of row arrays")
    return canon_matrix([[scalar_from_str(str(x)) for x in row]
                         for row in rows])
