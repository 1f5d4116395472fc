"""Enumeration of packings and super-packings, nesting, and location."""

from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gasket.core import W_STANDARD, canon, circle_from_row, validate_augmented
from gasket.group import ALL_LETTERS, apply, is_normal_form
from gasket.packing import (EnumerationBudget, EnumerationError, Window,
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
    for r in both_orientations(row):
        assert window_touches(r, win) == touches_reference(r, win)


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
