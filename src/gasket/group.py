"""The super-Apollonian group: generators, words, and Lorentz translation.

The group acts on augmented matrices on the left.  It is generated by
four swap generators S1..S4 (written ``s1``..``s4``) and their
transposes (written ``t1``..``t4``).  Words are stored latest-first, so
``word.letters[0]`` is applied last; the text form lists letters in the
same order, separated by spaces.

``act`` is the single action of a generator: every matrix, word and
reduction step in the package goes through it, except the enumeration
step in ``packing``, which builds only the rows a child changes from its
parent's column sums.  A row permutation P
relabels the generators, P^-1 k_i P = k_{p[i-1]+1} for k in {s, t} with
(P v)_i = v_{p[i]}, so conjugating a letter needs no matrix arithmetic.

``act_run`` applies a parabolic run a, b, a, ... of two letters of one
kind in O(1) ``act`` calls whatever its length, since b·a is unipotent;
the greedy reductions in ``classify`` jump along such runs with it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence, Tuple, Union

from .core import (GasketError, Matrix, Q_D, Q_L, Scalar, canon_matrix,
                   canon_row, identity_matrix, mat_mul, mat_vec, transpose)


class WordError(GasketError):
    """Malformed generator letter or word."""


@dataclass(frozen=True)
class GeneratorLetter:
    """One generator: kind 's' for a swap, 't' for its transpose."""

    kind: str
    index: int
    # Computed once: word text reads it for every letter it prints.
    text: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("s", "t") or self.index not in (1, 2, 3, 4):
            raise WordError(f"bad letter {self.kind}{self.index}")
        object.__setattr__(self, "text", f"{self.kind}{self.index}")

    def matrix(self) -> Matrix:
        return generator_matrix(self)


def letter(text: str) -> GeneratorLetter:
    if len(text) != 2 or text[0] not in "st" or not text[1].isdigit():
        raise WordError(f"cannot parse letter {text!r}")
    return GeneratorLetter(text[0], int(text[1]))


def act(l: GeneratorLetter, target):
    """Left action of one generator on a 4-vector or the rows of a matrix.

    ``s_i`` sets row i to twice the sum of the other rows minus row i;
    ``t_i`` adds twice row i to every other row and negates row i.  The
    target may be a curvature quadruple, a 4x3 configuration or a 4x4
    matrix, with int or Fraction entries.  All-int input stays int with no
    ``canon`` per entry; otherwise the result is canonicalized, so
    integral values still come out as int.
    """
    i = l.index - 1
    # A sum of int and Fraction entries is an int only when all are ints.
    if isinstance(target[0], (tuple, list)):
        rows = list(map(tuple, target))
        exact = type(sum(map(sum, rows))) is int
        ri = rows[i]
        if l.kind == "s":
            others = rows[:i] + rows[i + 1:]
            rows[i] = tuple(2 * (a + b + c) - x
                            for a, b, c, x in zip(*others, ri))
        else:
            rows = [tuple(-x for x in r) if k == i else
                    tuple(x + 2 * y for x, y in zip(r, ri))
                    for k, r in enumerate(rows)]
        return tuple(rows) if exact else canon_matrix(rows)
    # Quadruples get their own scalar path: a reduction takes one step per
    # letter, and a word can have millions of letters.
    v = tuple(target)
    total = sum(v)
    if l.kind == "s":
        v = v[:i] + (2 * total - 3 * v[i],) + v[i + 1:]
    else:
        x = 2 * v[i]
        v = tuple(-y if k == i else y + x for k, y in enumerate(v))
    return v if type(total) is int else canon_row(v)


def act_run(a: GeneratorLetter, b: GeneratorLetter, count: int, target):
    """Apply ``count`` letters a, b, a, b, ... (a first) to ``target``.

    a and b must be of one kind.  Then U = b·a satisfies (U - I)^3 = 0 (no
    pair of mixed kinds does), so U^m = I + m(U - I) + C(m, 2)(U - I)^2 and
    the state after 2m letters is x0 + m(x2 - x0) + C(m, 2)(x4 - 2 x2 + x0),
    where x2 = U x0 and x4 = U^2 x0 take four ``act`` calls; an odd count
    takes one more.  Targets and entry types are those of ``act``: int
    input stays int, anything else is canonicalized.
    """
    if a.kind != b.kind:
        raise WordError(f"{a.text} {b.text} is not a run of one kind")
    if count < 0:
        raise WordError(f"negative run length {count}")
    if count <= 4:
        for k in range(count):
            target = act(b if k % 2 else a, target)
        return target
    m, odd = divmod(count, 2)
    c2 = m * (m - 1) // 2
    x2 = act(b, act(a, target))
    x4 = act(b, act(a, x2))

    def step(x0, y2, y4):
        return tuple(p + m * (q - p) + c2 * (r - 2 * q + p)
                     for p, q, r in zip(x0, y2, y4))

    if isinstance(x2[0], tuple):
        out = tuple(map(step, target, x2, x4))
        if type(sum(map(sum, out))) is not int:
            out = canon_matrix(out)
    else:
        out = step(target, x2, x4)
        if type(sum(out)) is not int:
            out = canon_row(out)
    return act(a, out) if odd else out


def generator_matrix(l: GeneratorLetter) -> Matrix:
    """Swap generator S_i (row i replaced by twice the others minus itself)
    or its transpose."""
    return act(l, identity_matrix(4))


ALL_LETTERS: Tuple[GeneratorLetter, ...] = tuple(
    GeneratorLetter(k, i) for k in ("s", "t") for i in (1, 2, 3, 4))


@dataclass(frozen=True)
class GroupWord:
    """A word in the generators, stored latest-first."""

    letters: Tuple[GeneratorLetter, ...] = ()

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def text(self) -> str:
        return " ".join([l.text for l in self.letters])

    @staticmethod
    def from_text(text: str) -> "GroupWord":
        parts = text.split()
        return GroupWord(tuple(letter(p) for p in parts))

    def applied_order(self) -> Tuple[GeneratorLetter, ...]:
        """Letters in the order they act (first applied first)."""
        return tuple(reversed(self.letters))

    def matrix(self) -> Matrix:
        m = identity_matrix(4)
        for l in self.applied_order():
            m = act(l, m)
        return m

    def inverse(self) -> "GroupWord":
        # Every generator is an involution, so reversing the letters inverts.
        return GroupWord(tuple(reversed(self.letters)))

    def perp_count(self) -> int:
        return sum(1 for l in self.letters if l.kind == "t")


WordLike = Union[GeneratorLetter, GroupWord, Matrix]


def apply(u: WordLike, target) -> Matrix:
    """Left action of a letter, word, or explicit matrix.

    The target may be a 4-vector (curvature quadruple), a 4x3
    configuration, or a 4x4 augmented matrix.
    """
    vector = len(target) == 4 and not isinstance(target[0], (tuple, list))
    out = canon_row(target) if vector else canon_matrix(target)
    if isinstance(u, GeneratorLetter):
        return act(u, out)
    if isinstance(u, GroupWord):
        for l in u.applied_order():
            out = act(l, out)
        return out
    return mat_vec(canon_matrix(u), out) if vector else \
        mat_mul(canon_matrix(u), out)


def is_normal_form(word: GroupWord) -> bool:
    """Check the two adjacency rules of the normal form.

    In applied order, a swap ``s_i`` may only be followed by ``s_j`` with
    j != i or by ``t_i``; a transpose ``t_i`` may be followed by anything
    except ``t_i`` again.
    """
    seq = word.applied_order()
    for u, v in zip(seq, seq[1:]):
        if u.kind == "s":
            if v.kind == "s" and v.index == u.index:
                return False
            if v.kind == "t" and v.index != u.index:
                return False
        else:
            if v.kind == "t" and v.index == u.index:
                return False
    return True


def normalize_word(word: GroupWord) -> GroupWord:
    """Rewrite to normal form without changing the group element.

    Adjacent equal letters cancel, and a transpose that follows a swap of
    a different index commutes back past it.  Each rewrite lowers the pair
    (length, sum of transpose positions), so the loop terminates.
    """
    seq = list(word.applied_order())
    changed = True
    while changed:
        changed = False
        k = 0
        while k + 1 < len(seq):
            u, v = seq[k], seq[k + 1]
            if u == v:
                del seq[k:k + 2]
                changed = True
                k = max(k - 1, 0)
                continue
            if u.kind == "s" and v.kind == "t" and v.index != u.index:
                seq[k], seq[k + 1] = v, u
                changed = True
                k = max(k - 1, 0)
                continue
            k += 1
    return GroupWord(tuple(reversed(seq)))


def is_aut_QD(u: Matrix) -> bool:
    """Does U preserve the Descartes form: U^T Q_D U = Q_D?"""
    m = canon_matrix(u)
    return mat_mul(mat_mul(transpose(m), Q_D), m) == Q_D


# The rational involution linking the Descartes form to the Lorentz form.
J0: Matrix = canon_matrix(
    [[Fraction(x, 2) for x in row] for row in
     ((1, 1, 1, 1), (1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1))])

# The dual swap: replaces each curvature by twice the opposite face sum.
D_MATRIX: Matrix = canon_matrix(
    [[Fraction(-1 if r == c else 1, 2) for c in range(4)] for r in range(4)])


def conjugate_J0(u: WordLike) -> Matrix:
    """Conjugate by J0, carrying Descartes-form matrices to Lorentz ones."""
    m = u.matrix() if isinstance(u, (GeneratorLetter, GroupWord)) else \
        canon_matrix(u)
    return mat_mul(mat_mul(J0, m), J0)


def is_lorentz(u: Matrix) -> bool:
    m = canon_matrix(u)
    return mat_mul(mat_mul(transpose(m), Q_L), m) == Q_L


def is_lorentz_integer(u: Matrix) -> bool:
    m = canon_matrix(u)
    return is_lorentz(m) and all(isinstance(x, int) for row in m for x in row)


def perm_matrix(perm: Sequence[int]) -> Matrix:
    """Row-relabeling matrix: (P v)_i = v_{perm[i]}, zero-based perm."""
    if sorted(perm) != [0, 1, 2, 3]:
        raise WordError(f"not a permutation of 0..3: {perm}")
    return tuple(tuple(1 if j == perm[i] else 0 for j in range(4))
                 for i in range(4))


ALL_PERMUTATIONS: Tuple[Tuple[int, ...], ...] = tuple(
    itertools.permutations(range(4)))


def lorentz_point(q: Sequence[Scalar]) -> Tuple[Scalar, ...]:
    """Map a Descartes quadruple to a point on the Lorentz light cone."""
    return mat_vec(J0, canon_row(q))


def lorentz_point_inverse(y: Sequence[Scalar]) -> Tuple[Scalar, ...]:
    # J0 is its own inverse.
    return mat_vec(J0, canon_row(y))


class StabilizerType:
    """The four sign patterns of parabolic stabilizer matrices."""

    I = "I"
    II = "II"
    III = "III"
    IV = "IV"
    ALL = ("I", "II", "III", "IV")


@dataclass(frozen=True)
class StabilizerMatrix:
    """Integer automorph fixing the quadruple direction (1, 1, 0, 0)."""

    m: int
    n: int
    type: str
    matrix: Matrix


def stabilizer_matrix(m: int, n: int, type: str = StabilizerType.I) -> StabilizerMatrix:
    """Stabilizer element with translation part (m, n); m, n must share parity."""
    if type not in StabilizerType.ALL:
        raise WordError(f"unknown stabilizer type {type!r}")
    if (m - n) % 2 != 0:
        raise GasketError("stabilizer parameters must have equal parity")
    t = (m * m + n * n) // 2
    em = -1 if type in ("III", "IV") else 1
    en = -1 if type in ("II", "IV") else 1
    mat = canon_matrix((
        (1 + t, -t, em * m, en * n),
        (t, 1 - t, em * m, en * n),
        (m, -m, em, 0),
        (n, -n, 0, en)))
    return StabilizerMatrix(m, n, type, mat)
