"""The package depends on numpy and click only, outside the standard library,
it exports exactly its public names, and its public calls return the types
the benchmark reads."""

from __future__ import annotations

import inspect
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import dfcycle
from dfcycle import LinearPlant
from dfcycle.cycles import STABLE, UNSTABLE, classify, ellipse_estimate, find_intersections
from dfcycle.linsys import nyquist_contour, phase_crossovers

from conftest import plant_b

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys
before = set(sys.modules)
import dfcycle, dfcycle.cli
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(loaded - set(sys.stdlib_module_names))))
"""


def test_imports_only_numpy_and_click():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", PROBE],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert set(out.stdout.split()) == {"click", "dfcycle", "numpy"}


def test_every_exported_name_resolves():
    missing = [name for name in dfcycle.__all__ if not hasattr(dfcycle, name)]
    assert missing == []


def test_exports_are_exactly_the_public_names():
    public = {
        name
        for name, value in vars(dfcycle).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(dfcycle.__all__) == sorted(public)


def test_enclosure_api_keeps_the_names_the_benchmark_calls():
    # classify reads nyquist_contour's crossing table through its contour
    # keyword; the polygon's winding_number is no longer part of the package
    contour = inspect.signature(dfcycle.cycles.classify).parameters["contour"]
    assert contour.kind is inspect.Parameter.KEYWORD_ONLY
    assert callable(dfcycle.linsys.nyquist_contour)
    assert not hasattr(dfcycle, "winding_number")
    assert not hasattr(dfcycle.cycles, "winding_number")


@pytest.mark.parametrize(
    "plant, rows",
    [
        (plant_b(15.0), 2),  # a crossover (counted twice) and the segment
        (LinearPlant(num=(1.0,), den=(1.0, 1.0, 0.0, 0.0)), 3),  # the chord of q = 2
        (LinearPlant(num=(1.0,), den=(1.0, 1.0)), 0),  # no row
    ],
)
def test_contour_and_ellipse_types_the_benchmark_reads(plant, rows, nl_b):
    # the benchmark's traced op passes nyquist_contour's table to classify
    # and turns ellipse_estimate's vectors into tuples of floats
    table = nyquist_contour(plant)
    assert type(table) is np.ndarray and table.dtype == np.float64
    assert table.shape == (rows, 2)
    for omega, K in phase_crossovers(plant):
        X = find_intersections(nl_b, K)[0]
        assert classify(plant, nl_b, X, omega, contour=table) in (STABLE, UNSTABLE)
    vectors = ellipse_estimate(plant, 0.7, 2.0)
    assert len(vectors) == 2
    for v in vectors:
        assert type(v) is np.ndarray and v.dtype == np.float64
        assert v.shape == (plant.order,)
