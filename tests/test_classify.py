"""Reduction to ground position and canonical-form classification."""

import dataclasses
import math
import random
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from gasket import classify, group
from gasket.classify import (ReducedForm, ReductionError,
                             SuperIntegralityStatus,
                             is_root_quadruple, kappa, orbit_census,
                             printed_augmented, printed_form,
                             reduce_to_ground, reduced_form, root_quadruple,
                             super_integrality_class)
from gasket.core import (InvalidQuadrupleError, canon, mat_neg,
                         validate_augmented)
from gasket.group import (ALL_LETTERS, ALL_PERMUTATIONS, GeneratorLetter,
                          GroupWord, act, act_run, apply, letter)


def test_reduce_to_ground_examples():
    word, ground = reduce_to_ground((-1, 2, 2, 3))
    assert sorted(ground) == [0, 0, 1, 1]
    assert apply(word, (-1, 2, 2, 3)) == ground

    word, ground = reduce_to_ground((0, 0, 3, 3))
    assert len(word) == 0 and ground == (0, 0, 3, 3)

    word, ground = reduce_to_ground((1, -2, -2, -3))
    assert sorted(ground) == [-1, -1, 0, 0]
    assert apply(word, (1, -2, -2, -3)) == ground


def test_reduce_trace_sizes_strictly_decrease():
    word, ground, trace = reduce_to_ground((-6, 11, 14, 15), return_trace=True)
    sizes = [34] + [s for _, _, s in trace]
    assert all(a > b for a, b in zip(sizes, sizes[1:]))
    assert apply(word, (-6, 11, 14, 15)) == ground


def test_reduction_reachability_oracle():
    # Independent breadth-first search over curvature quadruples confirms
    # the greedy word: (-1, 2, 2, 3) is reachable from ground position.
    start = (1, 0, 0, 1)
    target = (-1, 2, 2, 3)
    seen = {start}
    frontier = deque([start])
    found = False
    while frontier and not found:
        q = frontier.popleft()
        for l in ALL_LETTERS:
            nxt = apply(l, q)
            if max(abs(x) for x in nxt) > 8 or nxt in seen:
                continue
            if tuple(sorted(nxt)) == target:
                found = True
                break
            seen.add(nxt)
            frontier.append(nxt)
    assert found


def test_root_quadruple_examples():
    assert root_quadruple((15, 2, 2, 3)) == (-1, 2, 2, 3)
    assert root_quadruple((0, 0, 1, 1)) == (0, 0, 1, 1)
    assert root_quadruple((-6, 11, 14, 15)) == (-6, 11, 14, 15)
    assert root_quadruple((86, 11, 14, 15)) == (-6, 11, 14, 15)
    assert is_root_quadruple((-6, 10, 15, 19))
    with pytest.raises(InvalidQuadrupleError):
        root_quadruple((1, -2, -2, -3))


def test_reduced_form_identity_case():
    m = ((0, 0, 1), (0, 0, -1), (1, 1, 0), (1, -1, 0))
    word, label = reduced_form(m)
    assert len(word) == 0
    assert (label.family, label.m, label.n, label.g) == ("A", 1, 0, 1)
    assert label.row_permutation == (0, 1, 2, 3)
    assert label.orientation == 1
    assert label.instantiate() == m


def test_reduced_form_on_decorated_variants():
    rng = random.Random(5)
    for _ in range(60):
        fam = rng.choice("AB")
        m, n = rng.choice((0, 1)), rng.choice((0, 1))
        g = rng.choice((1, 2, 3, 4))
        base = printed_form(fam, m, n, g)
        perm = list(range(4))
        rng.shuffle(perm)
        var = tuple(base[perm[i]] for i in range(4))
        if rng.random() < 0.5:
            var = mat_neg(var)
        letters = []
        last = None
        for _ in range(rng.randrange(0, 10)):
            pick = rng.choice([l for l in ALL_LETTERS if l != last])
            last = pick
            letters.append(pick)
        mat = apply(GroupWord(tuple(reversed(letters))), var)
        word, label = reduced_form(mat)
        assert apply(word, mat) == label.instantiate()
        assert (label.family, label.m, label.n, label.g) == (fam, m, n, g)


def test_kappa_values():
    assert kappa(printed_form("A", 1, 0, 1)) == (2, 2, 2)
    assert kappa(printed_form("B", 0, 1, 1)) == (2, 2, 2)
    assert kappa(printed_form("A", 1, 1, 1)) == (2, 2, 0)
    # The sixteen divisor-1 printed forms share a parity profile only in
    # the one known clash pair.
    profiles = {}
    for fam in "AB":
        for m in (0, 1):
            for n in (0, 1):
                profiles.setdefault(kappa(printed_form(fam, m, n, 1)),
                                    []).append((fam, m, n))
    clashes = [v for v in profiles.values() if len(v) > 1]
    assert clashes == [[("A", 1, 0), ("B", 0, 1)]]


def test_kappa_invariant_under_group_action():
    base = printed_form("A", 0, 1, 2)
    for l in ALL_LETTERS:
        assert kappa(apply(l, base)) == kappa(base)


def test_printed_augmented_matrices_are_valid():
    for fam in "AB":
        for m in (0, 1):
            for n in (0, 1):
                for g in (1, 2, 3, 4, 5):
                    assert validate_augmented(printed_augmented(fam, m, n, g))


def test_super_integrality_examples():
    cls = super_integrality_class(printed_form("A", 1, 1, 1))
    assert cls.status == SuperIntegralityStatus.SUPER_INTEGRAL
    assert cls.gvector == (1, 1, 1, 1)
    cls = super_integrality_class(printed_form("A", 0, 0, 2))
    assert cls.status == SuperIntegralityStatus.STRONGLY_INTEGRAL_ONLY
    cls = super_integrality_class(printed_form("A", 0, 1, 2))
    assert cls.status == SuperIntegralityStatus.SUPER_INTEGRAL
    cls = super_integrality_class(printed_form("A", 0, 1, 3))
    assert cls.status == SuperIntegralityStatus.STRONGLY_INTEGRAL_ONLY
    cls = super_integrality_class(((0, 0, 1), (0, 0, -1),
                                   (1, 1, 0), (1, -1, 0)))
    assert cls.status == SuperIntegralityStatus.SUPER_INTEGRAL


def test_super_integrality_invariant_on_decorations():
    base = printed_form("B", 1, 0, 4)
    ref = super_integrality_class(base)
    assert ref.status == SuperIntegralityStatus.SUPER_INTEGRAL
    for perm in ALL_PERMUTATIONS[:6]:
        var = tuple(base[perm[i]] for i in range(4))
        assert super_integrality_class(var) == ref
        assert super_integrality_class(mat_neg(var)) == ref


def test_census_matches_expected_rows():
    rows = orbit_census()
    table = {r.gvector: r.count for r in rows}
    assert table == {
        (1, 1, 1, 1): 96, (2, 1, 1, 1): 96, (1, 1, 2, 1): 48,
        (1, 1, 1, 2): 48, (4, 1, 2, 1): 48, (4, 1, 1, 2): 48,
        (1, 2, 1, 1): 96, (2, 2, 2, 1): 48, (2, 2, 1, 2): 48,
        (1, 4, 2, 1): 48, (1, 4, 1, 2): 48,
    }
    assert sum(r.count for r in rows) == 672


# ---------------------------------------------------------------------------
# Parabolic jumps against the stepwise greedy.


def _stepwise_reduce(q):
    """The greedy reduction to ground, one letter per step: the reference
    for the jumps.  Returns (word, ground, trace)."""
    sign = 1 if sum(q) > 0 else -1
    v = tuple(canon(sign * x) for x in q)
    letters, trace = [], []
    while sum(1 for x in v if x == 0) < 2:
        i = max(range(4), key=lambda k: (v[k], -k))
        l = ALL_LETTERS[i]
        cand = act(l, v)
        if sum(cand) >= sum(v):
            j = min(range(4), key=lambda k: (v[k], k))
            assert v[j] < 0
            l = ALL_LETTERS[4 + j]
            cand = act(l, v)
        letters.append(l)
        v = cand
        trace.append((l, tuple(canon(sign * x) for x in v), sum(v)))
    ground = tuple(canon(sign * x) for x in v)
    return GroupWord(tuple(reversed(letters))), ground, trace


def _stepwise_root(q):
    v = tuple(q)
    while True:
        i = max(range(4), key=lambda k: (v[k], -k))
        cand = act(ALL_LETTERS[i], v)
        if sum(cand) >= sum(v):
            return tuple(sorted(v))
        v = cand


def _stepwise_reduced_form(cfg):
    """reduced_form with the stepwise greedy and one shift letter per step;
    returns the word text and the label fields."""
    v = tuple(r[0] for r in cfg)
    sign = 1 if sum(v) > 0 else -1
    word0, _, _ = _stepwise_reduce(v)
    letters = list(word0.applied_order())
    cur = apply(word0, cfg)
    pos = cur if sign > 0 else mat_neg(cur)
    lines = [i for i in range(4) if pos[i][0] == 0]
    circles = [i for i in range(4) if pos[i][0] != 0]
    family = "A" if {pos[i][1:] for i in lines} == {(0, 1), (0, -1)} else "B"
    first = next(i for i in lines if pos[i][2 if family == "A" else 1] == 1)
    second = next(i for i in lines if i != first)
    big, small = sorted(circles,
                        key=lambda i: -pos[i][1 if family == "A" else 2])
    m, n = pos[big][1], pos[big][2]
    p = (first, second, big, small)
    cur = tuple(cur[p[i]] for i in range(4))

    def push(text, perm):
        nonlocal cur, p
        l = letter(text)
        letters.append(GeneratorLetter(l.kind, p[l.index - 1] + 1))
        cur = act(l, cur)
        p = tuple(p[perm[i]] for i in range(4))
        cur = tuple(cur[perm[i]] for i in range(4))

    def shift(value, up, down, perm):
        while not 0 <= value <= 1:
            push(up if value >= 2 else down, perm)
            value += -2 if value >= 2 else 2
        return value

    swap = ("s3", "s4", (0, 1, 3, 2))
    transpose = ("t2", "t1", (1, 0, 2, 3))
    m = shift(m, *(swap if family == "A" else transpose))
    n = shift(n, *(transpose if family == "A" else swap))
    inv = [0] * 4
    for i, pi in enumerate(p):
        inv[pi] = i
    g = math.gcd(*v)
    return (GroupWord(tuple(reversed(letters))).text,
            (family, m, n, g, tuple(inv), sign))


def _typed(values):
    return [(type(x), x) for x in values]


ROOTS = ((0, 0, 1, 1), (-1, 2, 2, 3), (-2, 3, 6, 7), (-3, 5, 8, 8),
         (-6, 11, 14, 15), (-6, 10, 15, 19))


@st.composite
def _run_words(draw, kinds="st"):
    """Applied-order letter texts: a few random letters, a parabolic run
    (x_i x_j)^k of one kind with k up to 2000, a few random letters."""
    pick = st.sampled_from([l.text for l in ALL_LETTERS if l.kind in kinds])
    kind = draw(st.sampled_from(kinds))
    i, j = draw(st.permutations("1234"))[:2]
    k = draw(st.one_of(st.integers(0, 12), st.integers(0, 2000)))
    return (tuple(draw(st.lists(pick, max_size=3)))
            + (kind + i, kind + j) * k + tuple(draw(st.lists(pick, max_size=3))))


@settings(max_examples=60, deadline=None)
@given(root=st.sampled_from(ROOTS), word=_run_words(),
       scale=st.sampled_from((1, Fraction(1, 3))), sign=st.sampled_from((1, -1)),
       order=st.permutations(range(4)))
@example(root=(-1, 2, 2, 3), word=("s1", "s2") * 2000, scale=Fraction(1, 3),
         sign=-1, order=[3, 1, 0, 2])
@example(root=(-2, 3, 6, 7), word=("t1", "t3") * 2000, scale=1, sign=1,
         order=[0, 1, 2, 3])
def test_jumps_match_stepwise_greedy(root, word, scale, sign, order):
    q = tuple(canon(x * scale) for x in root)
    for text in word:
        q = act(letter(text), q)
    q = tuple(sign * q[k] for k in order)
    ref_word, ref_ground, ref_trace = _stepwise_reduce(q)
    got_word, got_ground, got_trace = reduce_to_ground(q, return_trace=True)
    assert got_word == ref_word
    assert _typed(got_ground) == _typed(ref_ground)
    assert [(l, _typed(v), _typed([s])) for l, v, s in got_trace] == \
        [(l, _typed(v), _typed([s])) for l, v, s in ref_trace]
    assert reduce_to_ground(q) == (ref_word, ref_ground)
    positive = tuple(sign * x for x in q)
    assert _typed(root_quadruple(positive)) == _typed(_stepwise_root(positive))


@settings(max_examples=40, deadline=None)
@given(form=st.tuples(st.sampled_from("AB"), st.sampled_from((0, 1)),
                      st.sampled_from((0, 1)), st.integers(1, 4)),
       word=_run_words(), negate=st.booleans(),
       order=st.permutations(range(4)))
@example(form=("A", 1, 0, 1), word=("s3", "s4") * 1500, negate=True,
         order=[2, 0, 3, 1])
@example(form=("B", 0, 1, 2), word=("t1", "t2") * 1500 + ("s4", "s3") * 700,
         negate=False, order=[0, 1, 2, 3])
def test_reduced_form_jumps_match_stepwise(form, word, negate, order):
    base = printed_form(*form)
    cfg = tuple(base[k] for k in order)
    if negate:
        cfg = mat_neg(cfg)
    for text in word:
        cfg = act(letter(text), cfg)
    got_word, label = reduced_form(cfg)
    assert (got_word.text, dataclasses.astuple(label)) == \
        _stepwise_reduced_form(cfg)


def _counted_acts(monkeypatch):
    """The letters of every ``act`` call from here on."""
    calls = []
    real_act = group.act

    def counting_act(l, target):
        calls.append(l)
        return real_act(l, target)

    # act_run calls group.act; the greedy loop calls its own import.
    monkeypatch.setattr(group, "act", counting_act)
    monkeypatch.setattr(classify, "act", counting_act)
    return calls


def test_root_quadruple_work_grows_with_digits(monkeypatch):
    calls = _counted_acts(monkeypatch)
    n = 10 ** 40
    assert root_quadruple((0, 1, n * n, (n + 1) ** 2)) == (0, 0, 1, 1)
    assert 0 < len(calls) <= 2000


@pytest.mark.parametrize("run", [("s3", "s4"), ("s1", "s2")])
def test_reduced_form_work_grows_with_digits(monkeypatch, run):
    # A printed form moved by (x_i x_j)^k.  (s3 s4)^k leaves the curvatures
    # at ground and only translates; (s1 s2)^k also grows them to about k^2.
    # The reduction word has 2k letters either way.
    k = 10 ** 5
    cfg = act_run(letter(run[0]), letter(run[1]), 2 * k,
                  printed_form("A", 1, 0, 1))
    calls = _counted_acts(monkeypatch)
    word, label = reduced_form(cfg)
    assert label == ReducedForm("A", 1, 0, 1, (0, 1, 2, 3), 1)
    assert len(word) == 2 * k
    assert 0 < len(calls) <= 400


def test_long_reduction_word_matches_stepwise():
    n = 10 ** 5
    q = (0, 1, n * n, (n + 1) ** 2)
    word, ground = reduce_to_ground(q)
    ref_word, ref_ground, _ = _stepwise_reduce(q)
    assert len(word) == n
    assert word == ref_word and ground == ref_ground
