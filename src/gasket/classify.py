"""Reduction of quadruples to ground position and orbit classification.

Every integer Descartes quadruple reduces, by a greedy sequence of
generators, to a permutation of (0, 0, g, g) where g is its divisor.
Strongly integral configurations (integer 4x3 matrices) reduce further
to one of sixteen printed canonical forms per divisor, decorated by a
row permutation and a sign.  The census of super-integral orbits over
divisors 1, 2 and 4 is generated from these forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .core import (GasketError, InvalidQuadrupleError, Matrix, Scalar, canon,
                   canon_matrix, divisor, extend_to_augmented, mat_neg,
                   orientation, validate_quadruple)
from .group import (ALL_LETTERS, ALL_PERMUTATIONS, GeneratorLetter, GroupWord,
                    act, apply, letter)


class ReductionError(GasketError):
    """Reduction or classification failed on malformed input."""


def _size(v: Sequence[Scalar]) -> Scalar:
    return sum(v)


# ALL_LETTERS lists s1..s4 and then t1..t4.
_SWAPS = ALL_LETTERS[:4]
_TRANSPOSES = ALL_LETTERS[4:]

ReductionStep = Tuple[GeneratorLetter, Tuple[Scalar, ...], Scalar]


def reduce_to_ground(q: Sequence[Scalar], return_trace: bool = False):
    """Greedy reduction of a Descartes quadruple to ground position.

    Returns (word, ground) where applying the word to q yields ground, a
    permutation of (0, 0, g, g) times the orientation sign.  With
    ``return_trace`` also returns the list of (letter, quadruple, size)
    after each step; the size strictly decreases along the trace.
    """
    vals = validate_quadruple(q)
    sign = orientation(vals)
    v = vals if sign > 0 else tuple(canon(-x) for x in vals)
    letters_applied: List[GeneratorLetter] = []
    trace: List[ReductionStep] = []

    def record(l: GeneratorLetter, w: Tuple[Scalar, ...]):
        letters_applied.append(l)
        if return_trace:
            actual = w if sign > 0 else tuple(canon(-x) for x in w)
            trace.append((l, actual, _size(w)))

    guard = 0
    while sum(1 for x in v if x == 0) < 2:
        guard += 1
        if guard > 10_000_000:
            raise ReductionError("reduction did not terminate")
        i = max(range(4), key=lambda k: (v[k], -k))
        cand = act(_SWAPS[i], v)
        if _size(cand) < _size(v):
            record(_SWAPS[i], cand)
            v = cand
            continue
        j = min(range(4), key=lambda k: (v[k], k))
        if v[j] >= 0:
            raise ReductionError(f"stuck at {v}; not a reducible quadruple")
        cand = act(_TRANSPOSES[j], v)
        record(_TRANSPOSES[j], cand)
        v = cand
    ground = v if sign > 0 else tuple(canon(-x) for x in v)
    word = GroupWord(tuple(reversed(letters_applied)))
    if return_trace:
        return word, ground, trace
    return word, ground


def root_quadruple(q: Sequence[Scalar]) -> Tuple[Scalar, ...]:
    """Smallest quadruple reachable by swap moves alone, sorted ascending.

    Only defined for positively oriented quadruples; the result has
    a <= b <= c <= d with a + b + c >= d.
    """
    vals = validate_quadruple(q)
    if orientation(vals) < 0:
        raise InvalidQuadrupleError("root quadruples are positively oriented")
    v = vals
    while True:
        i = max(range(4), key=lambda k: (v[k], -k))
        cand = act(_SWAPS[i], v)
        if _size(cand) < _size(v):
            v = cand
        else:
            break
    return tuple(sorted(v))


def is_root_quadruple(q: Sequence[Scalar]) -> bool:
    vals = validate_quadruple(q)
    return tuple(sorted(vals)) == vals and root_quadruple(vals) == vals


# ---------------------------------------------------------------------------
# Printed canonical forms.

FAMILIES = ("A", "B")


def printed_form(family: str, m: int, n: int, g: int) -> Matrix:
    """The 4x3 canonical configuration for the given family and labels."""
    if family == "A":
        rows = ((0, 0, 1), (0, 0, -1), (g, m, n), (g, m - 2, n))
    elif family == "B":
        rows = ((0, 1, 0), (0, -1, 0), (g, m, n), (g, m, n - 2))
    else:
        raise ReductionError(f"unknown family {family!r}")
    return canon_matrix(rows)


def printed_augmented(family: str, m: int, n: int, g: int) -> Matrix:
    return extend_to_augmented(printed_form(family, m, n, g))


@dataclass(frozen=True)
class ReducedForm:
    """Canonical form label of a strongly integral configuration.

    ``instantiate`` rebuilds the exact matrix the reduction word maps the
    input to: orientation * (printed form with rows permuted so that row i
    of the result is printed row row_permutation[i]).
    """

    family: str
    m: int
    n: int
    g: int
    row_permutation: Tuple[int, int, int, int]
    orientation: int

    def instantiate(self) -> Matrix:
        base = printed_form(self.family, self.m, self.n, self.g)
        rows = tuple(base[self.row_permutation[i]] for i in range(4))
        return rows if self.orientation > 0 else mat_neg(rows)


def _compose_perm(a: Tuple[int, ...], b: Tuple[int, ...]) -> Tuple[int, ...]:
    # perm_matrix(a) @ perm_matrix(b) == perm_matrix(compose)
    return tuple(b[a[i]] for i in range(4))


def _invert_perm(p: Tuple[int, ...]) -> Tuple[int, ...]:
    inv = [0] * 4
    for i, pi in enumerate(p):
        inv[pi] = i
    return tuple(inv)


def reduced_form(m_in: Sequence[Sequence[Scalar]]) -> Tuple[GroupWord, ReducedForm]:
    """Reduce a strongly integral 4x3 configuration to its canonical label.

    Returns (word, label) with apply(word, M) == label.instantiate().
    """
    cfg = canon_matrix(m_in)
    if len(cfg) != 4 or any(len(r) != 3 for r in cfg):
        raise ReductionError("expected a 4x3 configuration matrix")
    if not all(isinstance(x, int) for row in cfg for x in row):
        raise ReductionError("configuration is not strongly integral")
    extend_to_augmented(cfg)  # validates tangency
    v = tuple(r[0] for r in cfg)
    sign = orientation(v)
    g = divisor(v)

    # The reduction applies letters and row permutations.  p_acc is the
    # product P of the permutations so far, so a letter l applied now
    # equals P (P^-1 l P): the word records the relabeled letter.
    word0, _ = reduce_to_ground(v)
    letters_applied: List[GeneratorLetter] = list(word0.applied_order())
    cur = apply(word0, cfg)

    pos = cur if sign > 0 else mat_neg(cur)
    # Family from the line normals; ground position has exactly two lines.
    line_idx = [i for i in range(4) if pos[i][0] == 0]
    circ_idx = [i for i in range(4) if pos[i][0] != 0]
    if len(line_idx) != 2:
        raise ReductionError("ground configuration does not have two lines")
    normals = {pos[i][1:] for i in line_idx}
    if normals == {(0, 1), (0, -1)}:
        family = "A"
        first = next(i for i in line_idx if pos[i][2] == 1)
    elif normals == {(1, 0), (-1, 0)}:
        family = "B"
        first = next(i for i in line_idx if pos[i][1] == 1)
    else:
        raise ReductionError(f"unexpected line normals {normals}")
    second = next(i for i in line_idx if i != first)
    ci, cj = circ_idx
    if family == "A":
        big, small = (ci, cj) if pos[ci][1] > pos[cj][1] else (cj, ci)
        m = pos[big][1]
        n = pos[big][2]
        if pos[small][1] != m - 2 or pos[small][2] != n:
            raise ReductionError("circle rows do not match the ground pattern")
    else:
        big, small = (ci, cj) if pos[ci][2] > pos[cj][2] else (cj, ci)
        m = pos[big][1]
        n = pos[big][2]
        if pos[small][1] != m or pos[small][2] != n - 2:
            raise ReductionError("circle rows do not match the ground pattern")
    p_acc = (first, second, big, small)
    cur = tuple(cur[p_acc[i]] for i in range(4))
    pos = tuple(pos[p_acc[i]] for i in range(4))

    # Shift m and n into {0, 1} with the translation identities.
    def push(letter_text: str, perm: Tuple[int, ...]):
        nonlocal cur, pos, p_acc
        l = letter(letter_text)
        letters_applied.append(GeneratorLetter(l.kind, p_acc[l.index - 1] + 1))
        cur = act(l, cur)
        p_acc = _compose_perm(perm, p_acc)
        cur = tuple(cur[perm[i]] for i in range(4))
        pos = cur if sign > 0 else mat_neg(cur)

    P12 = (1, 0, 2, 3)
    P34 = (0, 1, 3, 2)
    guard = 0
    while not (0 <= m <= 1):
        guard += 1
        if guard > 10_000_000:
            raise ReductionError("canonical shift did not terminate")
        if family == "A":
            push("s3" if m >= 2 else "s4", P34)
        else:
            push("t2" if m >= 2 else "t1", P12)
        m += -2 if m >= 2 else 2
    while not (0 <= n <= 1):
        guard += 1
        if guard > 10_000_000:
            raise ReductionError("canonical shift did not terminate")
        if family == "A":
            push("t2" if n >= 2 else "t1", P12)
        else:
            push("s3" if n >= 2 else "s4", P34)
        n += -2 if n >= 2 else 2

    if pos != printed_form(family, m, n, g):
        raise ReductionError("reduction failed to reach a printed form")

    word = GroupWord(tuple(reversed(letters_applied)))
    label = ReducedForm(family, m, n, g, _invert_perm(p_acc), sign)
    if apply(word, cfg) != label.instantiate():
        raise ReductionError("internal check failed: word does not match label")
    return word, label


def kappa(m_in: Sequence[Sequence[Scalar]]) -> Tuple[int, int, int]:
    """Count of even entries in each column of a 4x3 integer configuration."""
    cfg = canon_matrix(m_in)
    if not all(isinstance(x, int) for row in cfg for x in row):
        raise ReductionError("parity profile needs an integer matrix")
    return tuple(sum(1 for r in cfg if r[j] % 2 == 0) for j in range(3))


# ---------------------------------------------------------------------------
# Super-integrality.


class SuperIntegralityStatus:
    SUPER_INTEGRAL = "super_integral"
    STRONGLY_INTEGRAL_ONLY = "strongly_integral_only"
    NOT_STRONGLY_INTEGRAL = "not_strongly_integral"


@dataclass(frozen=True)
class SuperIntegralityClass:
    status: str
    g: Optional[int]
    gvector: Optional[Tuple[int, int, int, int]]


def _column_gcds(w: Matrix) -> Tuple[int, int, int, int]:
    out = []
    for j in range(4):
        acc = 0
        for i in range(4):
            acc = math.gcd(acc, abs(w[i][j]))
        out.append(acc)
    return tuple(out)


def super_integrality_class(m_in: Sequence[Sequence[Scalar]]) -> SuperIntegralityClass:
    """Decide whether the whole orbit of a configuration stays integral.

    The answer depends only on the divisor g and on residues mod 2: the
    orbit is fully integral (including cocurvatures) exactly when g = 1,
    or g = 2 with every circle row having odd center-coordinate sum, or
    g = 4 with the two center columns congruent mod 2 to a fixed pattern.
    """
    cfg = canon_matrix(m_in)
    if not all(isinstance(x, int) for row in cfg for x in row):
        return SuperIntegralityClass(
            SuperIntegralityStatus.NOT_STRONGLY_INTEGRAL, None, None)
    w = extend_to_augmented(cfg)
    v = tuple(r[0] for r in cfg)
    g = divisor(v)
    if g == 1:
        super_integral = True
    elif g == 2:
        super_integral = all((r[1] + r[2]) % 2 == 1 for r in cfg)
    elif g == 4:
        cols = tuple(tuple(r[j] % 2 for r in cfg) for j in (1, 2))
        super_integral = cols in (
            ((1, 1, 1, 1), (0, 0, 0, 0)), ((0, 0, 0, 0), (1, 1, 1, 1)))
    else:
        super_integral = False
    if super_integral:
        if not all(isinstance(x, int) for row in w for x in row):
            raise ReductionError("integrality criterion disagrees with the orbit")
        return SuperIntegralityClass(
            SuperIntegralityStatus.SUPER_INTEGRAL, g, _column_gcds(w))
    return SuperIntegralityClass(
        SuperIntegralityStatus.STRONGLY_INTEGRAL_ONLY, g, None)


@dataclass(frozen=True)
class CensusRow:
    gvector: Tuple[int, int, int, int]
    count: int
    representatives: Tuple[str, ...]


def form_name(family: str, m: int, n: int, g: int) -> str:
    return f"{family}[{m},{n};{g}]"


def orbit_census() -> Tuple[CensusRow, ...]:
    """Census of super-integral orbits over divisors 1, 2 and 4.

    Each printed form contributes 48 decorated orbits (24 row orders, 2
    signs); all 48 variants are instantiated and classified to confirm
    the class is constant on the orbit decorations.
    """
    groups: Dict[Tuple[int, ...], List[object]] = {}
    order: List[Tuple[int, ...]] = []
    for g in (1, 2, 4):
        for family in FAMILIES:
            for m in (0, 1):
                for n in (0, 1):
                    base = printed_form(family, m, n, g)
                    cls = super_integrality_class(base)
                    if cls.status != SuperIntegralityStatus.SUPER_INTEGRAL:
                        continue
                    count = 0
                    for perm in ALL_PERMUTATIONS:
                        for sgn in (1, -1):
                            var = tuple(base[perm[i]] for i in range(4))
                            if sgn < 0:
                                var = mat_neg(var)
                            vcls = super_integrality_class(var)
                            if vcls != cls:
                                raise ReductionError(
                                    "orbit decoration changed the class")
                            count += 1
                    key = cls.gvector
                    if key not in groups:
                        groups[key] = [0, []]
                        order.append(key)
                    groups[key][0] += count
                    groups[key][1].append(form_name(family, m, n, g))
    return tuple(CensusRow(k, groups[k][0], tuple(groups[k][1]))
                 for k in order)
