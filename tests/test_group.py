"""Generators, words, normal forms and the Lorentz connection."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gasket.core import (GasketError, Q_D, Q_L, W_STANDARD, identity_matrix,
                         mat_mul, mat_vec, transpose, validate_augmented)
from gasket.group import (ALL_LETTERS, ALL_PERMUTATIONS, D_MATRIX,
                          GeneratorLetter, GroupWord, J0, WordError, act,
                          act_run, apply, conjugate_J0, generator_matrix, is_aut_QD,
                          is_lorentz_integer, is_normal_form, letter,
                          lorentz_point, lorentz_point_inverse,
                          normalize_word, perm_matrix, stabilizer_matrix)


def _reference_matrix(l):
    """S_i has row i equal to (2, 2, 2, 2) with -1 at i; T_i = S_i^T has
    that column instead.  Built independently of ``act``."""
    i = l.index - 1
    rows = [[1 if r == c else 0 for c in range(4)] for r in range(4)]
    for k in range(4):
        if l.kind == "s":
            rows[i][k] = -1 if k == i else 2
        else:
            rows[k][i] = -1 if k == i else 2
    return tuple(map(tuple, rows))


def test_generator_matrices_printed_values():
    s1 = generator_matrix(letter("s1"))
    assert s1 == ((-1, 2, 2, 2), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    t1 = generator_matrix(letter("t1"))
    assert t1 == transpose(s1)
    s3 = generator_matrix(letter("s3"))
    assert s3[2] == (2, 2, -1, 2)
    for l in ALL_LETTERS:
        assert generator_matrix(l) == _reference_matrix(l)


def test_generators_are_involutive_form_automorphisms():
    ident = identity_matrix(4)
    for l in ALL_LETTERS:
        m = l.matrix()
        assert mat_mul(m, m) == ident
        assert is_aut_QD(m)


def test_apply_on_quadruples():
    assert apply(letter("s1"), (15, 2, 2, 3)) == (-1, 2, 2, 3)
    assert apply(letter("s4"), (-1, 2, 2, 3)) == (-1, 2, 2, 3)
    assert apply(letter("t1"), (-1, 2, 2, 3)) == (1, 0, 0, 1)


def test_apply_preserves_validity_on_matrices():
    w = W_STANDARD
    for l in ALL_LETTERS:
        assert validate_augmented(apply(l, w))


def test_word_text_round_trip():
    w = GroupWord.from_text("s1 t2 s3")
    assert w.text == "s1 t2 s3"
    assert [l.text for l in w.applied_order()] == ["s3", "t2", "s1"]
    assert w.inverse().text == "s3 t2 s1"
    assert mat_mul(w.matrix(), w.inverse().matrix()) == identity_matrix(4)
    with pytest.raises(WordError):
        GroupWord.from_text("s5")


def test_letter_text_is_precomputed():
    for l in ALL_LETTERS:
        assert l.text == l.kind + str(l.index)
        assert letter(l.text) == l and hash(letter(l.text)) == hash(l)
        assert repr(l) == f"GeneratorLetter(kind={l.kind!r}, index={l.index})"
    assert len({l.text for l in ALL_LETTERS}) == 8
    w = GroupWord(tuple(ALL_LETTERS[k] for k in (3, 7, 0, 4, 4, 2, 6, 1, 5)))
    assert w.text == "s4 t4 s1 t1 t1 s3 t3 s2 t2"
    assert GroupWord.from_text(w.text) == w
    assert GroupWord.from_text("") == GroupWord()


def test_normal_form_rules():
    # Applied order: s2 then t1 is fine, s2 then t3 is not.
    assert is_normal_form(GroupWord.from_text("t2 s2"))
    assert not is_normal_form(GroupWord.from_text("t3 s2"))
    assert not is_normal_form(GroupWord.from_text("s2 s2"))
    assert not is_normal_form(GroupWord.from_text("t1 t1"))
    assert is_normal_form(GroupWord.from_text("s1 t1"))


def test_normalize_word_example():
    # Applied order [s2, t1] must reorder to [t1, s2].
    w = GroupWord.from_text("t1 s2")
    n = normalize_word(w)
    assert n.text == "s2 t1"
    assert n.matrix() == w.matrix()


@settings(max_examples=200)
@given(st.lists(st.sampled_from([l.text for l in ALL_LETTERS]), max_size=14))
def test_normalize_word_properties(texts):
    w = GroupWord(tuple(letter(t) for t in texts))
    n = normalize_word(w)
    assert n.matrix() == w.matrix()
    assert len(n) <= len(w)
    assert is_normal_form(n)
    assert normalize_word(n) == n


def test_perm_conjugation_relabels_generators():
    for perm in ALL_PERMUTATIONS:
        p = perm_matrix(perm)
        p_inv = transpose(p)
        for kind in ("s", "t"):
            for i in range(4):
                lhs = mat_mul(mat_mul(p, generator_matrix(
                    GeneratorLetter(kind, i + 1))), p_inv)
                j = perm.index(i)
                assert lhs == generator_matrix(GeneratorLetter(kind, j + 1))
                # The relabel in reduced_form: P^-1 k_{i+1} P = k_{p[i]+1}.
                rhs = mat_mul(mat_mul(p_inv, generator_matrix(
                    GeneratorLetter(kind, i + 1))), p)
                assert rhs == generator_matrix(
                    GeneratorLetter(kind, perm[i] + 1))


_SCALARS = st.one_of(st.integers(-10 ** 12, 10 ** 12),
                     st.fractions(max_denominator=12))


@settings(max_examples=300)
@given(st.sampled_from(ALL_LETTERS), st.sampled_from((None, 3, 4)),
       st.booleans(), st.data())
def test_act_matches_reference_matrix(l, cols, ints_only, data):
    scalars = st.integers(-10 ** 12, 10 ** 12) if ints_only else _SCALARS
    if cols is None:
        target = tuple(data.draw(st.lists(scalars, min_size=4, max_size=4)))
        expected = mat_vec(_reference_matrix(l), target)
        got = act(l, target)
        flat_got, flat_expected = list(got), list(expected)
    else:
        row = st.lists(scalars, min_size=cols, max_size=cols).map(tuple)
        target = tuple(data.draw(st.lists(row, min_size=4, max_size=4)))
        expected = mat_mul(_reference_matrix(l), target)
        got = act(l, target)
        flat_got = [x for r in got for x in r]
        flat_expected = [x for r in expected for x in r]
    assert got == expected
    # Integral entries come out as int, as mat_mul's canon makes them.
    assert [type(x) for x in flat_got] == [type(x) for x in flat_expected]
    if ints_only:
        assert all(type(x) is int for x in flat_got)


def _typed(target):
    flat = [x for r in target for x in r] if isinstance(target[0], tuple) \
        else list(target)
    return [(type(x), x) for x in flat]


def test_act_run_matches_repeated_act():
    pairs = [(a, b) for a in ALL_LETTERS for b in ALL_LETTERS
             if a.kind == b.kind and a != b]
    assert len(pairs) == 24
    rng = random.Random(11)

    def scalar():
        # Sometimes an integral Fraction, which act canonicalizes.
        return rng.choice((rng.randint(-50, 50),
                           Fraction(rng.randint(-50, 50), rng.randint(1, 6))))

    targets = (
        tuple(rng.randint(-50, 50) for _ in range(4)),
        tuple(scalar() for _ in range(4)),
        tuple(tuple(rng.randint(-9, 9) for _ in range(3)) for _ in range(4)),
        tuple(tuple(scalar() for _ in range(3)) for _ in range(4)),
        W_STANDARD,
        tuple(tuple(scalar() for _ in range(4)) for _ in range(4)),
    )
    checked = set(range(41)) | {333}
    for a, b in pairs:
        for target in targets:
            want = target
            for count in range(max(checked) + 1):
                if count in checked:
                    got = act_run(a, b, count, target)
                    assert _typed(got) == _typed(want), (a, b, count)
                want = act(b if count % 2 else a, want)


def test_act_run_rejects_mixed_kinds_and_negative_counts():
    with pytest.raises(WordError):
        act_run(letter("s1"), letter("t2"), 10, (0, 0, 1, 1))
    with pytest.raises(WordError):
        act_run(letter("s1"), letter("s2"), -1, (0, 0, 1, 1))


def test_j0_involution_and_lorentz_conjugation():
    assert mat_mul(J0, J0) == identity_matrix(4)
    assert conjugate_J0(D_MATRIX) == (
        (1, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1))
    s1l = conjugate_J0(letter("s1"))
    assert s1l == ((2, -1, -1, -1), (1, 0, -1, -1),
                   (1, -1, 0, -1), (1, -1, -1, 0))
    for l in ALL_LETTERS:
        u = conjugate_J0(l)
        assert is_lorentz_integer(u)


def test_lorentz_point_examples():
    assert lorentz_point((0, 0, 1, 1)) == (1, -1, 0, 0)
    assert lorentz_point((-1, 2, 2, 3)) == (3, -2, -2, -1)
    for q in ((0, 0, 1, 1), (-1, 2, 2, 3), (-6, 11, 14, 15)):
        y = lorentz_point(q)
        assert -y[0] ** 2 + y[1] ** 2 + y[2] ** 2 + y[3] ** 2 == 0
        assert lorentz_point_inverse(y) == q


def test_stabilizer_matrices():
    fixed = (1, 1, 0, 0)
    for typ in ("I", "II", "III", "IV"):
        sm = stabilizer_matrix(2, 0, typ)
        assert is_lorentz_integer(sm.matrix)
        assert mat_vec(sm.matrix, fixed) == fixed
    a = stabilizer_matrix(1, 1).matrix
    b = stabilizer_matrix(2, -2).matrix
    assert mat_mul(a, b) == stabilizer_matrix(3, -1).matrix
    inv = stabilizer_matrix(-1, -1).matrix
    assert mat_mul(a, inv) == identity_matrix(4)
    with pytest.raises(GasketError):
        stabilizer_matrix(1, 2)


def test_random_words_are_form_automorphisms():
    rng = random.Random(42)
    for _ in range(50):
        letters = tuple(rng.choice(ALL_LETTERS) for _ in range(rng.randrange(10)))
        u = GroupWord(letters).matrix()
        assert is_aut_QD(u)
        assert is_lorentz_integer(conjugate_J0(u))
