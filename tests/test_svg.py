"""Deterministic SVG rendering and residue-class mirror symmetry."""

import pathlib

import pytest

from gasket.core import GasketError, W_STANDARD
from gasket.packing import EnumerationBudget, Window, generate_superpacking
from gasket.svg import (RenderOptions, render_svg, residue_symmetry_check)

GOLDEN = pathlib.Path(__file__).parent / "golden" / "odd_unit_square.svg"
UNIT_WINDOW = Window(0, 1, 0, 1)


def unit_square_set(bound=100):
    return generate_superpacking(
        W_STANDARD, EnumerationBudget(bound, window=UNIT_WINDOW))


def test_integer_rows_build_no_fractions_per_circle(fractions_built):
    sets, built = [], []
    for bound in (40, 100):
        before = fractions_built[0]
        sets.append(unit_square_set(bound))
        built.append(fractions_built[0] - before)
    # Only the validation of the base builds rationals, so the count does
    # not grow with the number of circles.
    assert len(sets[1]) > 4 * len(sets[0])
    assert built[0] == built[1]
    opts = RenderOptions(window=UNIT_WINDOW, fill="depth", labels=True)
    for circles in sets:
        # Lines are clipped in rationals, but a window meets few of them.
        disks = tuple(pc for pc in circles if not pc.circle.is_line)
        built = []
        for drawn in (disks, disks + disks):
            before = fractions_built[0]
            render_svg(drawn, opts)
            built.append(fractions_built[0] - before)
        # Drawing each circle twice builds nothing more: stroke widths are
        # computed once per curvature, coordinates from the integer rows.
        assert built[0] == built[1]


def test_render_is_deterministic():
    circles = unit_square_set(40)
    opts = RenderOptions(window=UNIT_WINDOW, residue_filter=(2, 1))
    assert render_svg(circles, opts) == render_svg(list(circles), opts)
    # Input order must not matter.
    assert render_svg(tuple(reversed(circles)), opts) == \
        render_svg(circles, opts)


def test_render_matches_golden_file():
    circles = unit_square_set(100)
    opts = RenderOptions(window=UNIT_WINDOW, residue_filter=(2, 1))
    assert render_svg(circles, opts) == GOLDEN.read_text()


def test_render_empty_set_has_only_frame():
    svg = render_svg((), RenderOptions(window=UNIT_WINDOW))
    assert svg.startswith("<svg ")
    assert svg.count("<rect") == 1
    assert "<circle" not in svg and "<line" not in svg


def test_render_residue_filter_drops_other_curvatures():
    circles = unit_square_set(30)
    svg = render_svg(circles, RenderOptions(window=UNIT_WINDOW,
                                            residue_filter=(2, 1)))
    odd = [pc for pc in circles if pc.circle.curvature % 2 == 1]
    assert svg.count("<circle") == len(odd)
    assert "<line" not in svg  # lines have curvature 0, filtered out


def test_render_labels_and_depth_fill():
    circles = unit_square_set(12)
    svg = render_svg(circles, RenderOptions(window=UNIT_WINDOW, labels=True,
                                            fill="depth"))
    n_circles = sum(1 for pc in circles if not pc.circle.is_line)
    assert svg.count("<text") == n_circles
    assert 'fill="#' in svg


def test_render_highlight_base():
    circles = unit_square_set(12)
    svg = render_svg(circles, RenderOptions(window=UNIT_WINDOW,
                                            highlight_base=W_STANDARD))
    assert 'stroke="#cc0000"' in svg


def test_render_options_validation():
    with pytest.raises(GasketError):
        RenderOptions(window=UNIT_WINDOW, fill="plaid")
    with pytest.raises(GasketError):
        RenderOptions(window=UNIT_WINDOW, residue_filter=(2, 5))


def test_residue_symmetries_hold():
    circles = unit_square_set(100)
    for mod, res, refl in ((2, 1, "x=1-y"), (4, 2, "y=1/2"), (4, 0, "x=1/2")):
        ok, cex = residue_symmetry_check(circles, mod, res, refl,
                                         window=UNIT_WINDOW)
        assert ok and cex is None


def test_residue_symmetry_mismatched_axis_fails():
    circles = unit_square_set(100)
    ok, cex = residue_symmetry_check(circles, 4, 0, "x=1-y",
                                     window=UNIT_WINDOW)
    assert not ok
    assert cex is not None and cex[1] % 4 == 0


def test_residue_symmetry_rejects_asymmetric_window():
    circles = unit_square_set(20)
    with pytest.raises(GasketError):
        residue_symmetry_check(circles, 2, 1, "y=1/2",
                               window=Window(0, 1, 0, 2))
    with pytest.raises(GasketError):
        residue_symmetry_check(circles, 2, 1, "not-a-mirror")
