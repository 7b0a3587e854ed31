"""The package depends on numpy and click only, outside the standard library,
and it exports exactly its public names."""

from __future__ import annotations

import inspect
import os
import subprocess
import sys
import types
from pathlib import Path

import dfcycle

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
