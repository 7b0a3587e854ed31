"""Standalone SVG emitter sanity checks."""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from dfcycle.svg import Series, line_plot


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
