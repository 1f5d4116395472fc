"""Enumeration of packings and super-packings, nesting, and location."""

import math
import sys
from collections import deque
from fractions import Fraction
from typing import Tuple

import pytest
from hypothesis import given, settings, strategies as st

from gasket.classify import root_quadruple
from gasket.core import (GasketError, W_STANDARD, canon, canon_matrix,
                         canon_row, circle_from_row, orientation,
                         validate_augmented)
from gasket.group import (ALL_LETTERS, GeneratorLetter, GroupWord, act, apply,
                          is_normal_form)
from gasket.packing import (FULL_PLANE, EnumerationBudget, EnumerationError,
                            PackedCircle, Window, _EXPANSION_GUARD,
                            _NEXT_LETTERS, _box_intersect, _circle_bbox,
                            _enumerate, _letters, _line_halfplane_box,
                            _window_box,
                            bounding_packing, contains_oriented,
                            generate_packing, generate_superpacking,
                            locate_in_unit_square, nesting_depth_geometric,
                            transform_row, translate_row,
                            unit_square_symmetries, window_touches)

BOUNDED_BASE = ((1, -1, 0, 0), (0, 2, 1, 0), (0, 2, -1, 0), (1, 3, 0, 2))
UNIT_WINDOW = Window(0, 1, 0, 1)


def brute_rows(base, bound, win, maxdepth, letters):
    """Reference enumeration: breadth-first over unrestricted words,
    emitting every changed row."""
    emitted = set()

    def emit(row):
        if abs(row[1]) > bound:
            return
        if win is not None and not window_touches(row, win):
            return
        emitted.add(row)

    for r in base:
        emit(r)
    frontier = deque([(base, None, 0)])
    while frontier:
        mat, last, n = frontier.popleft()
        if n >= maxdepth:
            continue
        for l in letters:
            if l == last:
                continue
            child = apply(l, mat)
            for k in range(4):
                if child[k] != mat[k]:
                    emit(child[k])
            frontier.append((child, l, n + 1))
    return emitted


def canon_sign(rows):
    return {min(r, tuple(-x for x in r)) for r in rows}


def test_tight_budget_returns_base_rows_only():
    res = generate_packing(BOUNDED_BASE, EnumerationBudget(1))
    assert {pc.circle.row() for pc in res} == set(BOUNDED_BASE)
    assert all(pc.depth == 0 for pc in res)


def test_packing_curvature_multiset():
    res = generate_packing(BOUNDED_BASE, EnumerationBudget(6))
    assert sorted(pc.circle.curvature for pc in res) == \
        [-1, 2, 2, 3, 3, 6, 6, 6, 6]


def test_packing_matches_reference_enumeration():
    s_letters = [l for l in ALL_LETTERS if l.kind == "s"]
    ref = brute_rows(BOUNDED_BASE, 60, None, 9, s_letters)
    mine = {pc.circle.row()
            for pc in generate_packing(BOUNDED_BASE, EnumerationBudget(60))}
    assert canon_sign(ref) == canon_sign(mine)
    # Along the strip, each ground-walk step confines its branch beyond the
    # tangency point of two circles; these windows lie just short of the
    # second such point on either side, so a misplaced point drops circles.
    for win in (Window(Fraction(13, 4), Fraction(15, 4), -1, 1),
                Window(Fraction(-15, 4), Fraction(-13, 4), -1, 1)):
        ref = brute_rows(W_STANDARD, 12, win, 8, s_letters)
        mine = {pc.circle.row() for pc in generate_packing(
            W_STANDARD, EnumerationBudget(12, window=win))}
        assert canon_sign(ref) == canon_sign(mine)


def test_superpacking_matches_reference_in_offset_windows():
    for win in (Window(2, 3, 0, 1), Window(-1, 0, 0, 1), UNIT_WINDOW):
        ref = brute_rows(W_STANDARD, 12, win, 6, ALL_LETTERS)
        mine = {pc.circle.row() for pc in generate_superpacking(
            W_STANDARD, EnumerationBudget(12, window=win))}
        # The reference has a depth cap, so it can only miss circles.
        assert canon_sign(ref) <= canon_sign(mine)
    # At a low curvature bound the reference depth suffices for equality.
    win = UNIT_WINDOW
    ref = brute_rows(W_STANDARD, 6, win, 6, ALL_LETTERS)
    mine = {pc.circle.row() for pc in generate_superpacking(
        W_STANDARD, EnumerationBudget(6, window=win))}
    assert canon_sign(ref) == canon_sign(mine)


def test_no_opposite_orientation_duplicates():
    res = generate_superpacking(W_STANDARD,
                                EnumerationBudget(20, window=UNIT_WINDOW))
    rows = {pc.circle.row() for pc in res}
    assert not any(tuple(-x for x in r) in rows for r in rows)


def test_unbounded_budgets_are_rejected():
    with pytest.raises(EnumerationError):
        generate_superpacking(W_STANDARD, EnumerationBudget(10))
    with pytest.raises(EnumerationError):
        generate_packing(W_STANDARD, EnumerationBudget(10))
    # A bounding circle makes the curvature budget sufficient.
    generate_packing(BOUNDED_BASE, EnumerationBudget(10))


def test_witnesses_are_normal_form_with_matching_depth():
    res = generate_superpacking(W_STANDARD,
                                EnumerationBudget(20, window=UNIT_WINDOW))
    for pc in res:
        assert is_normal_form(pc.witness)
        assert pc.depth == pc.witness.perp_count()


def test_depth_matches_geometric_nesting():
    res = generate_superpacking(W_STANDARD,
                                EnumerationBudget(30, window=UNIT_WINDOW))
    for pc in res:
        assert nesting_depth_geometric(pc.circle, res) == pc.depth


def test_window_touches():
    win = Window(0, 1, 0, 1)
    assert window_touches((0, 2, 1, 1), win)        # circle inside
    assert window_touches((2, 0, 0, 1), win)        # line y = 1 on the edge
    assert not window_touches((6, 0, 0, 1), win)    # line y = 3 misses
    assert not window_touches((-6, 0, 0, -1), win)  # same line, reversed
    assert window_touches((1, -1, 0, 0), win)       # unit disk at the origin
    assert not window_touches((0, 1, 3, 0), win)    # unit circle at (3, 0)
    assert window_touches((0, 1, 2, 0), win)        # tangent at the corner


def touches_reference(row, win):
    """The window test in rational arithmetic: clamp the centre to the
    window and compare the squared distance with the squared radius."""
    bbar, b, bx, by = row
    if b == 0:
        lo = min(bx * x for x in (win.xmin, win.xmax)) + \
            min(by * y for y in (win.ymin, win.ymax))
        hi = max(bx * x for x in (win.xmin, win.xmax)) + \
            max(by * y for y in (win.ymin, win.ymax))
        return 2 * lo <= bbar <= 2 * hi
    x = Fraction(bx) / b
    y = Fraction(by) / b
    cx = min(max(x, win.xmin), win.xmax)
    cy = min(max(y, win.ymin), win.ymax)
    return ((x - cx) ** 2 + (y - cy) ** 2) * b * b <= 1


def circle_row(b, x, y):
    """Row of the circle of curvature b centred at (x, y)."""
    return tuple(canon(v) for v in
                 (b * (x * x + y * y) - 1 / Fraction(b), b, b * x, b * y))


_NORMALS = ((1, 0), (-1, 0), (0, 1), (0, -1),
            (Fraction(3, 5), Fraction(4, 5)))
_COORDS = st.builds(lambda k, q: canon(Fraction(k, q)),
                    st.integers(-9, 9), st.sampled_from((1, 3, 5, 7)))


@st.composite
def windows(draw):
    """Windows with corner denominators 1, 3, 5 and 7, some of them
    degenerate (a segment or a point)."""
    xs = sorted(draw(st.lists(_COORDS, min_size=2, max_size=2)))
    ys = sorted(draw(st.lists(_COORDS, min_size=2, max_size=2)))
    flat = draw(st.sampled_from(("", "", "x", "y", "xy")))
    if "x" in flat:
        xs[1] = xs[0]
    if "y" in flat:
        ys[1] = ys[0]
    return Window(xs[0], xs[1], ys[0], ys[1])


def both_orientations(row):
    return (row, tuple(-v for v in row))


@settings(max_examples=400)
@given(windows(), st.sampled_from(("int", "fraction", "line")), st.data())
def test_window_touches_matches_rational_reference(win, kind, data):
    if kind == "int":
        b = data.draw(st.integers(1, 40))
        bx = data.draw(st.integers(-10 * b, 10 * b))
        by = data.draw(st.integers(-10 * b, 10 * b))
        row = (canon(Fraction(bx * bx + by * by - 1, b)), b, bx, by)
    elif kind == "fraction":
        b = data.draw(st.fractions(Fraction(1, 7), 7, max_denominator=7))
        row = circle_row(b, data.draw(_COORDS), data.draw(_COORDS))
    else:
        nx, ny = data.draw(st.sampled_from(_NORMALS))
        row = (2 * data.draw(_COORDS), 0, nx, ny)
    # The same row scaled to integers by a multiple k of its entries' lcm
    # denominator.
    k = data.draw(st.integers(1, 3))
    scale = k * math.lcm(*(Fraction(v).denominator for v in row))
    scaled = tuple(int(v * scale) for v in row)
    for r, rs in zip(both_orientations(row), both_orientations(scaled)):
        assert window_touches(r, win) == touches_reference(r, win)
        assert window_touches(rs, win, scale) == window_touches(r, win)


@settings(max_examples=200)
@given(windows(), st.sampled_from((1, -1)), st.sampled_from((1, -1)),
       st.fractions(Fraction(1, 7), 3, max_denominator=7))
def test_window_touches_tangent_cases(win, sx, sy, r):
    # A circle outside the window, tangent to it at a corner (the centre
    # lies along (3, 4)/5 from it) or at the middle of a vertical edge.
    px = win.xmax if sx > 0 else win.xmin
    py = win.ymax if sy > 0 else win.ymin
    mid_y = Fraction(win.ymin + win.ymax, 2)
    for x, y in ((px + sx * 3 * r / 5, py + sy * 4 * r / 5),
                 (px + sx * r, mid_y)):
        for b, touches in ((1 / r, True), (11 / (10 * r), False)):
            for row in both_orientations(circle_row(b, x, y)):
                assert window_touches(row, win) is touches
                assert touches_reference(row, win) is touches
    # A line through the window's extreme corner along its normal touches,
    # the same line moved outward by 1/100 does not.
    for nx, ny in _NORMALS:
        top = max(nx * x + ny * y for x in (win.xmin, win.xmax)
                  for y in (win.ymin, win.ymax))
        for h, touches in ((top, True), (top + Fraction(1, 100), False)):
            for row in both_orientations((canon(2 * h), 0, nx, ny)):
                assert window_touches(row, win) is touches
                assert touches_reference(row, win) is touches


def test_contains_oriented():
    disk = circle_from_row((-1, 1, 0, 0))       # unit disk at the origin
    inner = circle_from_row((0, 2, 1, 0))       # radius 1/2 at (1/2, 0)
    assert contains_oriented(disk, inner)
    assert not contains_oriented(inner, disk)
    exterior = circle_from_row((1, -1, 0, 0))   # outside the unit disk
    faraway = circle_from_row((Fraction(35, 2), 2, 6, 0))
    assert contains_oriented(exterior, faraway)
    assert not contains_oriented(exterior, inner)
    line = circle_from_row((2, 0, 0, 1))        # half plane y >= 1
    high = circle_from_row((12, 2, 0, 5))       # circle centered (0, 5/2)
    assert contains_oriented(line, high)
    assert not contains_oriented(line, inner)


def test_transform_row_preserves_validity():
    rot = ((0, -1), (1, 0))
    v = (3, Fraction(1, 2))
    mat = tuple(transform_row(r, rot, v) for r in W_STANDARD)
    assert validate_augmented(mat)
    assert sorted(r[1] for r in mat) == sorted(r[1] for r in W_STANDARD)
    # Rotating by 90 degrees turns the horizontal lines vertical.
    assert {(r[2], r[3]) for r in mat if r[1] == 0} == {(1, 0), (-1, 0)}


def test_translate_row_matches_transform():
    for row in W_STANDARD:
        assert translate_row(row, 2, 0) == \
            transform_row(row, ((1, 0), (0, 1)), (2, 0))


def test_locate_examples():
    m = locate_in_unit_square((-1, 2, 2, 3))
    assert validate_augmented(m)
    assert sorted(r[1] for r in m) == [-1, 2, 2, 3]
    outer = min(m, key=lambda r: r[1])
    assert 0 <= Fraction(outer[2], outer[1]) <= 1
    assert 0 <= Fraction(outer[3], outer[1]) <= 1

    m = locate_in_unit_square((-6, 11, 14, 15))
    assert sorted(r[1] for r in m) == [-6, 11, 14, 15]
    for r in m:
        assert all(x == int(x) for x in r[1:])
    outer = min(m, key=lambda r: r[1])
    assert (Fraction(outer[2], outer[1]),
            Fraction(outer[3], outer[1])) == (Fraction(1, 3), Fraction(1, 2))


def test_locate_work_grows_with_digits(calls_counted):
    # (-n, n+1, n(n+1), n(n+1)+1) is a primitive sorted root quadruple for
    # every n >= 1, and its ground word has about n letters.
    for n in (10 ** 4, 10 ** 40):
        q = (-n, n + 1, n * (n + 1), n * (n + 1) + 1)
        before = calls_counted["act"]
        m = locate_in_unit_square(q)
        assert 0 < calls_counted["act"] - before <= 2000
        assert tuple(r[1] for r in m) == q
        assert all(isinstance(x, int) for r in m for x in r)
        assert validate_augmented(m)
        assert 0 <= Fraction(m[0][2], -n) <= 1
        assert 0 <= Fraction(m[0][3], -n) <= 1


def test_locate_symmetries_move_interior_centers_out():
    m = locate_in_unit_square((-6, 11, 14, 15))
    centers = [(Fraction(r[2], r[1]), Fraction(r[3], r[1])) for r in m]
    interior = [c for c in centers if 0 < c[0] < 1 and 0 < c[1] < 1]
    assert interior
    for rot, (tx, ty) in unit_square_symmetries():
        moved = [(rot[0][0] * x + rot[0][1] * y + tx,
                  rot[1][0] * x + rot[1][1] * y + ty) for x, y in interior]
        assert all(not (0 < x < 1 and 0 < y < 1) for x, y in moved)


def test_bounding_packing_matches_generated_packing():
    # Inside a base circle of the standard super-packing, the next-depth
    # circles are exactly the packing whose bounding circle it is.
    res = generate_superpacking(
        W_STANDARD, EnumerationBudget(30, window=Window(0, 2, -1, 1)))
    outer = next(pc for pc in res if pc.circle.row() == (0, 1, 1, 0))
    inside, truncated = bounding_packing(outer, res)
    assert not truncated
    direct = generate_packing(locate_in_unit_square((-1, 2, 2, 3)),
                              EnumerationBudget(30))
    got = canon_sign({pc.circle.row() for pc in inside})
    want = canon_sign({pc.circle.row() for pc in direct})
    assert got == want


def test_bounding_packing_truncation_flag():
    res = generate_packing(BOUNDED_BASE, EnumerationBudget(10))
    smallest = max(res, key=lambda pc: pc.circle.curvature)
    inside, truncated = bounding_packing(smallest, res)
    assert truncated
    assert inside == (smallest,)


def _witness_key(letters: Tuple[GeneratorLetter, ...]):
    """Shortest witness first, ties broken by the letters latest first;
    for equal lengths this is the order of the witness text."""
    return len(letters), [(l.kind, l.index) for l in letters]


def _reference_enumerate(base, budget, super_moves):
    """The enumeration loop as it was before the lean step: every child
    is built through ``act`` and every word is copied as a tuple."""
    w0 = canon_matrix(base)
    if not validate_augmented(w0):
        raise GasketError("base matrix is not a tangent quadruple")
    if orientation(tuple(r[1] for r in w0)) < 0:
        raise GasketError("enumeration needs a positively oriented base")
    maxcurv = budget.max_curvature
    window = budget.window
    wbox = _window_box(window) if window is not None else None
    if window is None and budget.max_word_length is None:
        if super_moves:
            raise EnumerationError(
                "super-packing enumeration needs a window or a word-length"
                " bound: the orbit meets every region of the plane")
        root = root_quadruple(tuple(r[1] for r in w0))
        if min(root) == 0:
            raise EnumerationError(
                "packings containing lines need a window or a word-length"
                " bound: they extend along the lines forever")

    emitted = {}

    def emit(row, word_applied, skip_curvature=False):
        if not skip_curvature and abs(row[1]) > maxcurv:
            return
        if window is not None and not window_touches(row, window):
            return
        neg = tuple(-x for x in row)
        if neg in emitted:
            return
        letters = tuple(reversed(word_applied))
        prev = emitted.get(row)
        if prev is not None and \
                _witness_key(letters) >= _witness_key(prev.witness.letters):
            return
        word = GroupWord(letters)
        emitted[row] = PackedCircle(circle_from_row(row), word.perp_count(),
                                    word)

    for row in w0:
        emit(row, (), skip_curvature=True)

    frontier = deque()
    frontier.append((w0, None, (), FULL_PLANE))
    expansions = 0
    while frontier:
        wm, last, word_applied, region = frontier.popleft()
        if budget.max_word_length is not None and \
                len(word_applied) >= budget.max_word_length:
            continue
        expansions += 1
        if expansions > _EXPANSION_GUARD:
            raise EnumerationError(
                "the budget does not bound this enumeration")
        curv = tuple(r[1] for r in wm)
        zero_rows = [i for i in range(4) if curv[i] == 0]
        for l in _NEXT_LETTERS[last, super_moves]:
            i = l.index - 1
            region2 = region
            if l.kind == "s":
                child = act(l, wm)
                new_row = child[i]
                b_new, b_old = new_row[1], curv[i]
                child_word = word_applied + (l,)
                emit(new_row, child_word)
                if b_new >= b_old and abs(b_new) > maxcurv:
                    continue
                if b_new == b_old and len(zero_rows) == 2:
                    j = next(k for k in range(4) if k != i and curv[k] != 0)
                    b_j = curv[j]
                    xi, yi = wm[i][2:]
                    xj, yj = wm[j][2:]
                    tx = (xi * b_j + xj * b_old, 2 * b_old * b_j)
                    ty = (yi * b_j + yj * b_old, 2 * b_old * b_j)
                    dx = new_row[2] * b_j - xj * b_new
                    dy = new_row[3] * b_j - yj * b_new
                    half = FULL_PLANE
                    if dy == 0 and dx != 0:
                        half = (tx, None, None, None) if dx > 0 \
                            else (None, tx, None, None)
                    elif dx == 0 and dy != 0:
                        half = (None, None, ty, None) if dy > 0 \
                            else (None, None, None, ty)
                    nxt = _box_intersect(region2, half)
                    if nxt is None:
                        continue
                    region2 = nxt
            else:
                b_i = curv[i]
                if b_i > 0 and b_i >= maxcurv:
                    continue
                if b_i > 0:
                    nxt = _box_intersect(region2, _circle_bbox(wm[i]))
                    if nxt is None:
                        continue
                    region2 = nxt
                elif b_i == 0:
                    nxt = _box_intersect(region2,
                                         _line_halfplane_box(wm[i]))
                    if nxt is None:
                        continue
                    region2 = nxt
                child = act(l, wm)
                child_word = word_applied + (l,)
                for k in range(4):
                    if k != i:
                        emit(child[k], child_word)
            if wbox is not None and \
                    _box_intersect(region2, wbox) is None:
                continue
            frontier.append((child, l, child_word, region2))

    return tuple(emitted[row] for row in sorted(emitted))


def _outcome(enumerate_, base, budget, super_moves):
    """Everything an enumeration shows: rows with their entry types,
    depths and witness letters, or the error it raised."""
    try:
        res = enumerate_(base, budget, super_moves)
    except GasketError as exc:
        return type(exc), str(exc)
    return [(pc.circle.row(), tuple(map(type, pc.circle.row())), pc.depth,
             pc.witness.letters) for pc in res]


_BASES = (W_STANDARD, BOUNDED_BASE, locate_in_unit_square((-1, 2, 2, 3)))
_SHIFTS = st.fractions(-2, 2, max_denominator=9)


@st.composite
def small_windows(draw):
    """Windows inside [-2, 2]^2 with corner denominators 1, 3, 5 and 7."""
    def coords():
        q = draw(st.sampled_from((1, 3, 5, 7)))
        return sorted(canon(Fraction(draw(st.integers(-2 * q, 2 * q)), q))
                      for _ in range(2))
    (x0, x1), (y0, y1) = coords(), coords()
    return Window(x0, x1, y0, y1)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_BASES),
       st.lists(st.sampled_from(ALL_LETTERS), max_size=3),
       st.one_of(st.just((0, 0)), st.tuples(_SHIFTS, _SHIFTS)),
       st.one_of(st.none(), small_windows()),
       st.one_of(st.none(), st.integers(0, 6)),
       st.one_of(st.integers(1, 16),
                 st.fractions(Fraction(1, 7), 16, max_denominator=7)),
       st.booleans(), st.booleans())
def test_enumeration_matches_reference_loop(base, word, shift, window,
                                            max_len, extra, above_base,
                                            super_moves):
    w = apply(GroupWord(tuple(word)), base)
    if sum(r[1] for r in w) < 0:
        w = tuple(tuple(-x for x in r) for r in w)
    w = tuple(translate_row(r, *shift) for r in w)
    # A bound below the base's largest curvature prunes most of a word
    # image's packing; one above it keeps some of it.
    bound = extra + (max(abs(r[1]) for r in w) if above_base else 0)
    budget = EnumerationBudget(bound, max_len, window)
    assert _outcome(_enumerate, w, budget, super_moves) == \
        _outcome(_reference_enumerate, w, budget, super_moves)


def test_enumeration_matches_reference_on_bad_bases():
    budget = EnumerationBudget(10, window=UNIT_WINDOW)
    negated = tuple(tuple(-x for x in r) for r in W_STANDARD)
    broken = W_STANDARD[:3] + ((0, 1, -1, 1),)
    for base in (negated, broken):
        for super_moves in (False, True):
            got = _outcome(_enumerate, base, budget, super_moves)
            assert got[0] is GasketError
            assert got == _outcome(_reference_enumerate, base, budget,
                                   super_moves)


@pytest.fixture
def calls_counted(monkeypatch):
    """Counts calls of the per-entry helpers, patched in every gasket
    module namespace that holds them."""
    funcs = {"act": act, "canon": canon, "canon_row": canon_row,
             "circle_from_row": circle_from_row}
    counts = dict.fromkeys(funcs, 0)
    modules = [m for name, m in sys.modules.items()
               if name == "gasket" or name.startswith("gasket.")]
    for name, fn in funcs.items():
        def counting(*args, _name=name, _fn=fn, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        for mod in modules:
            if vars(mod).get(name) is fn:
                monkeypatch.setattr(mod, name, counting)
    return counts


def test_enumeration_work_does_not_grow_with_the_bound(calls_counted):
    located = locate_in_unit_square((-1, 2, 2, 3))
    shifted = tuple(translate_row(r, Fraction(1, 3), Fraction(1, 7))
                    for r in W_STANDARD)
    runs = ((generate_superpacking, W_STANDARD,
             [EnumerationBudget(b, window=UNIT_WINDOW) for b in (40, 100)]),
            (generate_packing, located,
             [EnumerationBudget(b) for b in (200, 1000)]),
            (generate_superpacking, shifted,
             [EnumerationBudget(b, window=UNIT_WINDOW) for b in (40, 100)]))
    for generate, base, budgets in runs:
        sizes, work = [], []
        for budget in budgets:
            before = dict(calls_counted)
            sizes.append(len(generate(base, budget)))
            work.append({k: calls_counted[k] - before[k] for k in before})
        assert sizes[1] > 4 * sizes[0]
        if base is not shifted:
            # Only the validation of the base calls these helpers, so the
            # counts do not grow with the number of circles.
            assert work[0] == work[1]
            if base is W_STANDARD:
                validation = work[0]
            continue
        # A rational base is validated as W_STANDARD is, then scaled to
        # integers; only a stored row with a fractional entry calls canon,
        # once per entry.
        for k in ("act", "canon_row", "circle_from_row"):
            assert work[0][k] == work[1][k] == validation[k]
        for w, n in zip(work, sizes):
            assert w["canon"] <= validation["canon"] + 4 * n


def _cell(text):
    """The parent-linked word cell of a witness text."""
    cell = None
    for l in GroupWord.from_text(text).applied_order():
        cell = (l, cell)
    return cell


def test_letters_round_trips_word_cells():
    for text in ("", "s1", "t3 s2 s4 t1"):
        assert _letters(_cell(text)) == GroupWord.from_text(text).letters


def _sign_free(row):
    return max(row, tuple(-x for x in row))


def test_each_row_is_offered_once():
    # The enumeration keeps the first witness offered for a row: a
    # shortest one, by breadth-first order, and the only one when no two
    # words offer the same row.  A word w offers rows of M_w W0, with M_w
    # its group matrix, and W0 is invertible, so two offers coincide
    # exactly when the rows of the group matrices do: one base covers
    # every base.  Here every normal-form word, with no pruning, offers
    # each row once, even up to sign.
    for super_moves, maxlen, words in ((False, 9, 4 * 3 ** 8),
                                       (True, 6, 28124)):
        seen = {_sign_free(r) for r in W_STANDARD}
        level = [(W_STANDARD, None)]
        for _ in range(maxlen):
            nxt = []
            for wm, last in level:
                for l in _NEXT_LETTERS[last, super_moves]:
                    child = act(l, wm)
                    i = l.index - 1
                    for k in ([i] if l.kind == "s" else
                              [k for k in range(4) if k != i]):
                        row = _sign_free(child[k])
                        assert row not in seen
                        seen.add(row)
                    nxt.append((child, l))
            level = nxt
        assert len(level) == words  # normal-form words of the last length
