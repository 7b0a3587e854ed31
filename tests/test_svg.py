"""Standalone SVG emitter: sanity checks, ranges past the largest float, and
the one-pass polyline formatter against ``%.6g``."""

from __future__ import annotations

import json
import math
import re
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from click.testing import CliRunner

from dfcycle import svg
from dfcycle.cli import main
from dfcycle.svg import HEIGHT, WIDTH, Series, _polyline_points, line_plot


def test_output_is_well_formed_xml():
    s = Series([0.0, 1.0, 2.0], [0.0, 1.0, 0.5], label="demo")
    doc = line_plot([s], title="t", xlabel="x", ylabel="y")
    root = ET.fromstring(doc)
    assert root.tag.endswith("svg")


def test_contains_polyline_and_labels():
    s = Series([0.0, 1.0], [2.0, 3.0], label="curve-label")
    doc = line_plot([s], title="my-title", xlabel="xx", ylabel="yy")
    for needle in ("polyline", "my-title", "xx", "yy", "curve-label"):
        assert needle in doc


def test_dash_and_markers():
    s = Series([0.0, 1.0], [0.0, 1.0], label="d", dash="4,2", points=[(0.5, 0.5)])
    doc = line_plot([s], title="t", xlabel="x", ylabel="y")
    assert "stroke-dasharray" in doc
    assert "circle" in doc


def test_deterministic():
    s = Series([0.0, 1.0, 2.0], [0.1, 0.2, 0.3], label="d")
    a = line_plot([s], title="t", xlabel="x", ylabel="y")
    b = line_plot([s], title="t", xlabel="x", ylabel="y")
    assert a == b


@pytest.mark.parametrize("x,y", [([0.0, 1.0, 2.0], [0.0, 1.0]), ([0.0], [0.0, 1.0])])
def test_refuses_series_of_unequal_lengths(x, y):
    good = Series([0.0, 1.0], [0.0, 1.0], label="good")
    with pytest.raises(ValueError, match="^series 'ragged': "):
        line_plot([good, Series(x, y, label="ragged")], title="t", xlabel="x", ylabel="y")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("axis", ["x", "y"])
def test_refuses_a_non_finite_value(bad, axis):
    values = {"x": [0.0, 1.0, 2.0], "y": [0.0, 1.0, 0.5]}
    values[axis][1] = bad
    s = Series(np.array(values["x"]), values["y"], label="holey")
    with pytest.raises(ValueError, match="^series 'holey' holds a non-finite value$"):
        line_plot([s], title="t", xlabel="x", ylabel="y")


def test_empty_series_beside_a_full_one():
    full = Series(np.array([0.0, 1.0]), np.array([2.0, 3.0]), label="full")
    doc = line_plot([Series([], [], label="empty"), full], title="t", xlabel="x", ylabel="y")
    assert '<polyline points="" ' in doc and "empty" in doc
    with pytest.raises(ValueError, match="^nothing to plot$"):
        line_plot([Series([], [], label="empty")], title="t", xlabel="x", ylabel="y")


# -- coordinates of ranges past the largest float ------------------------------

BIG = sys.float_info.max


def polyline_coordinates(doc):
    return [float(v) for pts in re.findall(r'<polyline points="([^"]*)"', doc)
            for v in re.split("[, ]", pts)]


@pytest.mark.parametrize("x,y", [
    (np.linspace(1e305, 1e306, 11), np.linspace(-1.0, 1.0, 11)),  # 640 (x1 - x0) overflows
    (np.linspace(0.0, 1e306, 11), np.linspace(-1.0, 1.0, 11)),
    (1e308 * np.linspace(-1.0, 1.0, 11), np.linspace(-1.0, 1.0, 11)),  # x1 - x0 overflows
    (np.linspace(0.0, 1.0, 11), 1e308 * np.linspace(-1.0, 1.0, 11)),  # y1 - y0 overflows
    (np.linspace(0.0, 1.0, 11), BIG * np.linspace(-1.0, 1.0, 11)),  # and y1 + pad
])
def test_coordinates_stay_finite_past_the_largest_float(x, y):
    doc = line_plot([Series(x, y, label="wide", points=[(x[5], y[5])])],
                    title="t", xlabel="x", ylabel="y")
    assert "inf" not in doc and "nan" not in doc
    xy = np.array(polyline_coordinates(doc)).reshape(-1, 2)
    assert xy[0, 0] == 64 and xy[-1, 0] == 704 and np.all(np.diff(xy[:, 0]) > 0)
    assert np.all((28 <= xy[:, 1]) & (xy[:, 1] <= 436))  # the frame, where the pad stops
    assert np.all(np.diff(xy[:, 1]) < 0)  # y rises up the screen


@pytest.mark.parametrize("axis", ["x", "y"])
def test_a_span_past_the_largest_float_draws_as_its_scaled_copy(axis):
    # 2^1023 (-1 ... 1) spans 2^1024: scaled by a power of two, every ratio,
    # the 4 % pad of y included, is that of -1 ... 1
    unit = np.linspace(-1.0, 1.0, 11)
    curve = {"x": unit, "y": unit**3}
    wide = dict(curve, **{axis: curve[axis] * 2.0**1023})
    docs = [line_plot([Series(c["x"], c["y"], label="c")], title="t", xlabel="x", ylabel="y")
            for c in (curve, wide)]
    assert polyline_coordinates(docs[1]) == polyline_coordinates(docs[0])


def test_df_plot_of_a_curve_past_the_largest_float(tmp_path):
    # F reaches 1e308 on the grid 0, 1e305, ..., 1e306
    nl = tmp_path / "nl.json"
    nl.write_text(json.dumps({"x": [1], "y": [1], "final_slope": 1e308}))
    out = tmp_path / "f.svg"
    res = CliRunner().invoke(main, ["df", str(nl), "--grid", "1e305", "1e306", "--out", str(out)])
    assert res.exit_code == 0, res.output
    doc = out.read_text()
    assert "inf" not in doc and "nan" not in doc and len(polyline_coordinates(doc)) == 22


# -- the polyline formatter -------------------------------------------------------


def printf_points(xy):
    return " ".join(["%.6g,%.6g"] * len(xy)) % tuple(xy.ravel().tolist())


def fast_formatted(values):
    """The number of ``values`` that ``_polyline_points`` formats, 500 points
    at a time, each chunk checked against ``%``."""
    xy = np.asarray(values, dtype=float).reshape(-1, 2)
    n = 0
    for i in range(0, len(xy), 500):
        chunk = xy[i:i + 500]
        got = _polyline_points(chunk)
        if got is not None:
            assert got == printf_points(chunk)
            n += chunk.size
    return n


def test_polyline_points_equal_printf():
    rng = np.random.default_rng(20261019)
    assert fast_formatted(rng.uniform(10.0, 1000.0, 10**6)) >= 10**6 - 5000
    # decimal grids: trailing zeros and bare points stripped; a value above
    # 100 rounded to 4 places lies next to a tie of its 3-place rounding
    for places in range(5):
        for lo, hi in ((10.0, 100.0), (100.0, 1000.0)):
            grid = np.round(rng.uniform(lo, hi, 20000), places)
            grid = grid[grid < hi][:18000]  # the rounding may reach hi
            n = fast_formatted(grid)
            assert n == (0 if places == 4 and lo == 100.0 else 18000), (places, lo, n)
    edges = [10.0, 100.0, 28.0, 64.0, 436.0, 704.0, 99.99994, 999.9994, 100.0004, 100.0006]
    assert fast_formatted(np.repeat(edges, 2)) == 2 * len(edges)
    assert fast_formatted([28.0, 64.0, 436.0, 704.0]) == 4
    assert printf_points(np.array([[28.0, 64.0], [436.0, 704.0]])) == "28,64 436,704"


@pytest.mark.parametrize("v", [
    9.999995, 99.99995, 999.9995,  # below 10, or rounding to 10^6
    100.0625, 999.9375, 10.03125, 99.96875,  # exact binary ties
    9.99, 1000.0, 5e5, -20.0,
])
def test_polyline_points_leave_a_series_to_printf(v):
    # one value outside the fast path leaves the whole series to %
    xy = np.array([[50.0, 60.0], [v, 70.0], [80.0, 90.0]])
    assert _polyline_points(xy) is None and _polyline_points(xy[::2]) is not None


def test_a_tie_formats_the_whole_series_by_printf(monkeypatch):
    # x = 36.0625 lands on the screen at 64 + 36.0625 = 100.0625, a tie of
    # the 3-decimal rounding; with the digit table spoilt, only % can give
    # the right text, for the whole series
    x = [0.0, 12.34, 36.0625, 500.5, 640.0]
    y = [0.0, 1.0, 2.0, 1.5, 0.25]
    doc = line_plot([Series(x, y, label="tie")], title="t", xlabel="x", ylabel="y")
    monkeypatch.setattr(svg, "_TAILS", np.zeros_like(svg._TAILS))
    assert line_plot([Series(x, y, label="tie")], title="t", xlabel="x", ylabel="y") == doc
    assert polyline_coordinates(doc)[4] == 100.062  # half to even
    without = [v for i, v in enumerate(x) if i != 2], [v for i, v in enumerate(y) if i != 2]
    spoilt = line_plot([Series(*without, label="tie")], title="t", xlabel="x", ylabel="y")
    monkeypatch.undo()
    assert spoilt != line_plot([Series(*without, label="tie")], title="t", xlabel="x",
                               ylabel="y")
