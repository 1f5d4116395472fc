"""Reduction of quadruples to ground position and orbit classification.

Every integer Descartes quadruple reduces, by a greedy sequence of
generators, to a permutation of (0, 0, g, g) where g is its divisor.
Strongly integral configurations (integer 4x3 matrices) reduce further
to one of sixteen printed canonical forms per divisor, decorated by a
row permutation and a sign.  The census of super-integral orbits over
divisors 1, 2 and 4 is generated from these forms.

The greedy reductions walk long parabolic runs (x_i x_j)^k.  Each run is
one jump of ``group.act_run`` (``_greedy_runs`` shows that a jump takes
exactly the letters the stepwise greedy takes).  ``reduced_form`` applies
those runs to the configuration, adds each m/n shift as one more run, and
checks its result by replaying the run list, so apart from writing out
the word the work grows with the digits of the input, not with its size.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .core import (GasketError, InvalidQuadrupleError, Matrix, Scalar, canon,
                   canon_matrix, divisor, extend_to_augmented, mat_neg,
                   orientation, scalars_text, validate_quadruple)
from .group import (ALL_LETTERS, ALL_PERMUTATIONS, GeneratorLetter, GroupWord,
                    act, act_run)


class ReductionError(GasketError):
    """Reduction or classification failed on malformed input."""


# ALL_LETTERS lists s1..s4 and then t1..t4.
_SWAPS = ALL_LETTERS[:4]
_TRANSPOSES = ALL_LETTERS[4:]

ReductionStep = Tuple[GeneratorLetter, Tuple[Scalar, ...], Scalar]
Run = Tuple[GeneratorLetter, GeneratorLetter, int]


def _greedy_letter(v: Tuple[Scalar, ...],
                   to_ground: bool) -> Optional[GeneratorLetter]:
    """The letter the greedy reduction applies to v next, or None.

    The swap s_i of the largest entry (first index on ties) applies when
    it shrinks the sum, 2 v_i > sum(v).  Towards the root that is all.
    Towards ground position the greedy stops at two zeros, and otherwise
    falls back on the transpose t_j of the smallest entry (first index on
    ties) when that entry is negative.
    """
    if to_ground and v.count(0) >= 2:
        return None
    top = max(v)
    if 2 * top > sum(v):
        return _SWAPS[v.index(top)]
    low = min(v)
    if to_ground and low < 0:
        return _TRANSPOSES[v.index(low)]
    return None


def _greedy_runs(v: Tuple[Scalar, ...],
                 to_ground: bool) -> Tuple[List[Run], Tuple[Scalar, ...]]:
    """Greedy reduction of a positively oriented Descartes quadruple.

    Returns the runs (a, b, count), each the letters a, b, a, ... in the
    order applied, and the quadruple where the greedy stops.  When its
    next two letters a != b are of one kind, the loop jumps: the run
    length L is the first u at which the greedy choice at x_u =
    act_run(a, b, u, v) is not the run's next letter, found by doubling
    and bisection over that exact test.  This takes the stepwise letters
    because the test holds exactly for u < L:

    Every x_u is a positively oriented Descartes quadruple, in which two
    entries sum to at least 0, and to 0 only when both are 0 (with A, B
    the sums of complementary pairs, (A + B)^2 = 2 sum(x^2) >= A^2 + B^2
    gives AB >= 0, and A + B > 0).  So a swap that shrinks the sum is at
    the strict maximum, and at two zeros none does.

    - Swap run: the fixed entries sum to s > 0 (both 0 would be two zeros
      at x_0), and the moving entries follow c_{n+1} = 2(s + c_n) - c_{n-1},
      so d_n = c_{n+1} - c_n grows by 2s per letter.  The next letter
      replaces c_u, and the greedy takes it iff it shrinks the sum:
      c_u > s + c_{u+1}, that is d_u < -s, which holds on a prefix.
    - Transpose run (towards ground only): the entries negated in turn
      are n_u = p + u*delta, where p < 0 and q are the moving entries of
      x_0 and delta = p + q > 0.  The greedy takes t at n_u iff n_u < 0
      (then n_u is the only negative entry, so the minimum, and there are
      no two zeros) and no swap shrinks the sum.  A fixed entry r_u keeps
      2 r_u - T_u = 2 r_0 - T_0 <= 0, as each letter adds 2 n_u to it and
      4 n_u to the sum T.  The entry negated last gives -2 n_{u-1} - T_u,
      a concave quadratic in u with its top where n_u = 0, so it does not
      decrease while n_u < 0.  Both conditions hold on a prefix.

    The guard counts jumps and single letters.
    """
    runs: List[Run] = []
    guard = 0
    while (a := _greedy_letter(v, to_ground)) is not None:
        guard += 1
        if guard > 10_000_000:
            raise ReductionError("reduction did not terminate")
        w = act(a, v)
        b = _greedy_letter(w, to_ground)
        if b is None or b.kind != a.kind:
            runs.append((a, a, 1))
            v = w
        else:
            count = _run_length(a, b, v, to_ground)
            runs.append((a, b, count))
            v = act_run(a, b, count, v)
    return runs, v


def _run_length(a: GeneratorLetter, b: GeneratorLetter,
                v: Tuple[Scalar, ...], to_ground: bool) -> int:
    """How many letters of the run a, b, a, ... the greedy takes from v,
    given that it takes the first two (see ``_greedy_runs``)."""
    def on_run(u: int) -> bool:
        x = act_run(a, b, u, v)
        return _greedy_letter(x, to_ground) == (b if u % 2 else a)

    lo, hi = 1, 2
    while on_run(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if on_run(mid):
            lo = mid
        else:
            hi = mid
    return hi


# The most items a list can hold (CPython refuses more pointers than this).
_MAX_LETTERS = sys.maxsize // struct.calcsize("P")


def _run_letters(runs: Sequence[Run]) -> List[GeneratorLetter]:
    total = sum(count for _, _, count in runs)
    if total > _MAX_LETTERS:
        raise ReductionError(f"the reduction word has {total} letters, "
                             "more than a list can hold")
    letters: List[GeneratorLetter] = []
    for a, b, count in runs:
        letters.extend((a, b) * (count // 2))
        if count % 2:
            letters.append(a)
    return letters


def _replay(runs: Sequence[Run], target):
    """Apply the runs in order, each in O(1) ``act`` calls (``act_run``)."""
    for a, b, count in runs:
        target = act_run(a, b, count, target)
    return target


def _ground_runs(q: Sequence[Scalar]):
    """Validate q and reduce its positively oriented copy v greedily.

    Returns (sign, vals, runs, end): the orientation of q, q validated,
    the runs that take v to ground position and that ground position, end.
    """
    vals = validate_quadruple(q)
    sign = orientation(vals)
    v = vals if sign > 0 else tuple(canon(-x) for x in vals)
    runs, end = _greedy_runs(v, True)
    if end.count(0) < 2:
        raise ReductionError(
            f"stuck at {scalars_text(end)}; not a reducible quadruple")
    return sign, vals, runs, end


def reduce_to_ground(q: Sequence[Scalar], return_trace: bool = False):
    """Greedy reduction of a Descartes quadruple to ground position.

    Returns (word, ground) where applying the word to q yields ground, a
    permutation of (0, 0, g, g) times the orientation sign.  With
    ``return_trace`` also returns the list of (letter, quadruple, size)
    after each step; the size strictly decreases along the trace.
    Parabolic runs are applied as jumps (``_greedy_runs``), so the work
    apart from writing out the letters grows with the digits of q.
    """
    sign, vals, runs, end = _ground_runs(q)
    letters_applied = _run_letters(runs)
    ground = end if sign > 0 else tuple(canon(-x) for x in end)
    word = GroupWord(tuple(reversed(letters_applied)))
    if not return_trace:
        return word, ground
    # act is linear, so the trace runs on q as signed; the size is the sum
    # of the positively oriented copy.
    trace: List[ReductionStep] = []
    for l in letters_applied:
        vals = act(l, vals)
        trace.append((l, vals, sign * sum(vals)))
    return word, ground, trace


def root_quadruple(q: Sequence[Scalar]) -> Tuple[Scalar, ...]:
    """Smallest quadruple reachable by swap moves alone, sorted ascending.

    Only defined for positively oriented quadruples; the result has
    a <= b <= c <= d with a + b + c >= d.  Parabolic runs are jumps, so
    the cost grows with the digits of q, not with its size.
    """
    vals = validate_quadruple(q)
    if orientation(vals) < 0:
        raise InvalidQuadrupleError("root quadruples are positively oriented")
    return tuple(sorted(_greedy_runs(vals, False)[1]))


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

    Returns (word, label) with apply(word, M) == label.instantiate().  The
    word is kept as runs of one kind (the greedy ground runs, then one
    relabelled run per m/n shift), applied to M with ``act_run``; the
    final check replays that run list on M and compares it with the label.
    So apart from writing out the word, the work grows with the digits of
    M, not with the length of the word.
    """
    cfg = canon_matrix(m_in)
    if len(cfg) != 4 or any(len(r) != 3 for r in cfg):
        raise ReductionError("expected a 4x3 configuration matrix")
    if not all(isinstance(x, int) for row in cfg for x in row):
        raise ReductionError("configuration is not strongly integral")
    extend_to_augmented(cfg)  # validates tangency
    v = tuple(r[0] for r in cfg)
    g = divisor(v)

    # The reduction applies runs and row permutations.  p_acc is the
    # product P of the permutations so far, so a letter l applied now
    # equals P (P^-1 l P): the run list records the relabeled letters.
    sign, _, runs, _ = _ground_runs(v)
    cur = _replay(runs, cfg)

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

    # Shift m and n into {0, 1} with the translation identities.  A step
    # applies l and then swaps two rows by P, and P l P = l2, the
    # P-relabel of l; so k steps are the run l, l2, l, ... and then
    # P^(k mod 2).  The run is recorded relabeled by p_acc at its start,
    # which gives the letters that relabeling each step by its p_acc does.
    def shift(value: int, up: GeneratorLetter, down: GeneratorLetter,
              perm: Tuple[int, ...]) -> int:
        nonlocal cur, p_acc
        l, l2 = (up, down) if value >= 2 else (down, up)
        count = abs(value - value % 2) // 2
        a, b = (GeneratorLetter(x.kind, p_acc[x.index - 1] + 1)
                for x in (l, l2))
        runs.append((a, b, count))
        cur = act_run(l, l2, count, cur)
        if count % 2:
            p_acc = _compose_perm(perm, p_acc)
            cur = tuple(cur[perm[i]] for i in range(4))
        return value % 2

    swaps = (_SWAPS[2], _SWAPS[3], (0, 1, 3, 2))
    transposes = (_TRANSPOSES[1], _TRANSPOSES[0], (1, 0, 2, 3))
    m = shift(m, *(swaps if family == "A" else transposes))
    n = shift(n, *(transposes if family == "A" else swaps))
    pos = cur if sign > 0 else mat_neg(cur)

    if pos != printed_form(family, m, n, g):
        raise ReductionError("reduction failed to reach a printed form")

    label = ReducedForm(family, m, n, g, _invert_perm(p_acc), sign)
    if _replay(runs, cfg) != label.instantiate():
        raise ReductionError("internal check failed: word does not match label")
    return GroupWord(tuple(reversed(_run_letters(runs)))), label


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
