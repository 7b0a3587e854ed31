"""Command-line front end: describing-function curves, Nyquist data, reports.

The CLI is the one reader of the JSON input files and the one writer of the
JSON report.  Exit codes: 0 success, 2 malformed input or a result that is
not finite (README.md lists the causes), with one ``error:`` line on stderr,
3 analysis ran but the plant has no phase crossover.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import click
import numpy as np

from . import sim, svg
from .cycles import AmbiguousStabilityError, IntersectionError, NonFiniteCycleError
from .cycles import analyze
from .descfun import QuadratureError, df_exact, df_oracle_curve
from .linsys import (
    OMEGA_RANGE,
    LinearPlant,
    PoleOnAxisError,
    freq_response,
    log_grid,
    phase_crossovers,
)
from .piecewise import PiecewiseNonlinearity
from .qualdf import df_qualitative

SCHEMA_VERSION = 2
EXIT_SCHEMA = 2
EXIT_NO_CROSSOVER = 3
# Initial states of ``analyze --simulate``, as multiples of each cycle's x(0).
VERIFY_SCALES = (0.5, 1.5)
# Most samples of one ``df`` grid or one ``nyquist`` curve.
MAX_POINTS = 1_000_000


def _fail(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(EXIT_SCHEMA)


def _load(cls, path: str):
    """``cls.from_dict`` of the JSON file at ``path``, failing with one line.

    A ``ValueError`` or ``TypeError`` covers the schema errors
    (``NonlinearityError``, ``PlantError``) and a value ``float`` refuses;
    an ``OverflowError`` is a JSON integer too large for a float.
    """
    try:
        return cls.from_dict(json.loads(Path(path).read_text()))
    except json.JSONDecodeError as exc:
        _fail(f"{path}: invalid JSON: {exc}")
    except (OSError, ValueError, TypeError, OverflowError) as exc:
        _fail(f"{path}: {exc}")


def _emit(text: str, out_path: str | None) -> None:
    """Write ``text`` to ``out_path``, or echo it to stdout when there is none;
    a path that cannot be written fails with one line."""
    if out_path:
        try:
            Path(out_path).write_text(text)
        except OSError as exc:
            _fail(f"{out_path}: {exc}")
    else:
        click.echo(text, nl=False)


def _num(v: float) -> str:
    return f"{v:.17g}"


def _curve(nl_file: str, make, nl: PiecewiseNonlinearity, grid):
    """``make(nl, grid)``, failing with one line on a non-finite F or oracle."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return make(nl, grid)
    except (ValueError, QuadratureError) as exc:
        _fail(f"{nl_file}: {exc}")


def _make_grid(nl: PiecewiseNonlinearity, dx: float, xm: float) -> np.ndarray:
    if not 0 < dx <= xm < math.inf:
        _fail(f"invalid grid: step {dx}, max {xm}")
    steps = xm / dx + 1e-9
    if steps >= MAX_POINTS:
        _fail(f"invalid grid: step {dx}, max {xm} gives more than {MAX_POINTS} points")
    n = int(math.floor(steps))
    grid = dx * np.arange(0, n + 1)
    if nl.has_origin_jump:
        grid = grid[grid > 0]
    if len(grid) == 0:
        _fail("empty grid")
    return grid


def _default_grid(nl_file: str, nl: PiecewiseNonlinearity) -> np.ndarray:
    """Step Xr/100 up to 3 Xr, Xr the largest breakpoint (1 without one).

    The ``df`` command's grid without ``--grid``, and the report's curve.
    """
    ref = nl.max_breakpoint if nl.max_breakpoint > 0 else 1.0
    if not math.isfinite(3.0 * ref):
        _fail(f"{nl_file}: a grid up to 3 * {ref} is past the largest float")
    if ref / 100.0 == 0:  # a subnormal breakpoint
        _fail(f"{nl_file}: the default grid underflows at the last breakpoint {ref}")
    return _make_grid(nl, ref / 100.0, 3.0 * ref)


@click.group()
def main() -> None:
    """Describing-function limit cycle analysis toolkit."""


@main.command("df")
@click.argument("nl_file", type=click.Path())
@click.option(
    "--grid",
    nargs=2,
    type=float,
    default=None,
    help="Sample step and maximum amplitude (default: Xr/100, 3*Xr), "
    f"at most {MAX_POINTS} samples.",
)
@click.option(
    "--mode",
    type=click.Choice(["exact", "qualitative", "both", "oracle"]),
    default="exact",
    show_default=True,
)
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Output file; .csv or .svg decides the format (default: CSV to stdout).")
def cmd_df(nl_file: str, grid, mode: str, out_path: str | None) -> None:
    """Sample the describing function of the nonlinearity in NL_FILE."""
    nl = _load(PiecewiseNonlinearity, nl_file)
    xs = _make_grid(nl, *grid) if grid else _default_grid(nl_file, nl)

    curves = []
    if mode in ("exact", "both"):
        curves.append(_curve(nl_file, df_exact, nl, xs))
    if mode in ("qualitative", "both"):
        curves.append(_curve(nl_file, df_qualitative, nl, xs))
    if mode == "oracle":
        curves.append(_curve(nl_file, df_oracle_curve, nl, xs[xs > 0]))

    if out_path and out_path.endswith(".svg"):
        series = [
            svg.Series(c.X, c.F, label=c.provenance,
                       color="#c02020" if c.provenance == "exact" else "#208040",
                       dash=None if c.provenance == "exact" else "6,4")
            for c in curves
        ]
        plot = svg.line_plot(series, title="describing function", xlabel="X", ylabel="F")
        _emit(plot, out_path)
        return

    both = len(curves) > 1
    lines = ["X,F,provenance" if both else "X,F"]
    for c in curves:  # each curve's rows in one format operation, in _num's format
        row = "%.17g,%.17g" + (f",{c.provenance}" if both else "")
        values = np.column_stack((c.X, c.F)).ravel().tolist()
        lines.append("\n".join([row] * len(c.X)) % tuple(values))
    _emit("\n".join(lines) + "\n", out_path)


@main.command("analyze")
@click.argument("nl_file", type=click.Path())
@click.argument("plant_file", type=click.Path())
@click.option("--simulate", "do_simulate", is_flag=True,
              help="Verify each predicted cycle by closed-loop simulation.")
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Report destination (default: stdout).")
def cmd_analyze(nl_file: str, plant_file: str, do_simulate: bool, out_path: str | None) -> None:
    """Estimate limit cycles of NL_FILE in feedback with PLANT_FILE.

    The JSON report (schema 2) holds the inputs, the exact describing function
    on the default grid of the df command, and one entry per phase crossover:
    its omega, its gain margin and its cycles, each with X, stability, Y1 and
    state ellipse, and with its simulation runs under --simulate.
    """
    nl = _load(PiecewiseNonlinearity, nl_file)
    plant = _load(LinearPlant, plant_file)

    try:
        crossovers = analyze(plant, nl)
    except (PoleOnAxisError, AmbiguousStabilityError) as exc:
        _fail(f"{plant_file}: {exc}")
    except IntersectionError as exc:
        _fail(f"{nl_file}: {exc}")
    except NonFiniteCycleError as exc:
        _fail(str(exc))

    df_curve = _curve(nl_file, df_exact, nl, _default_grid(nl_file, nl))
    report: dict = {
        "schema": SCHEMA_VERSION,
        "nonlinearity": nl.to_dict(),
        "plant": plant.to_dict(),
        "realization": "controllable_canonical",
        "df": {"X": list(df_curve.X), "F": list(df_curve.F)},
        "crossovers": [],
        "notes": [],
    }
    for co in crossovers:
        entry = {"omega": co.omega, "gain_margin": co.gain_margin, "cycles": []}
        for cyc in co.cycles:
            cd = {
                "X": cyc.X,
                "stability": cyc.stability,
                "Y1": cyc.Y1,
                "ellipse": {"x0": list(cyc.ellipse_x0), "xq": list(cyc.ellipse_xq)},
            }
            if do_simulate:
                try:
                    cd["simulation"] = _verify(plant, nl, cyc)
                except sim.AlgebraicLoopError as exc:
                    _fail(f"{plant_file}: {exc}")
            entry["cycles"].append(cd)
        report["crossovers"].append(entry)

    if not crossovers:
        report["notes"].append("no phase crossover: no limit cycle predicted")
    elif not any(co.cycles for co in crossovers):
        report["notes"].append("origin globally asymptotically stable")

    _emit(json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n", out_path)
    if not crossovers:
        sys.exit(EXIT_NO_CROSSOVER)


def _verify(plant, nl, cyc) -> list[dict]:
    T, dt = sim.default_horizon(cyc.omega)
    runs = []
    basis = np.asarray(cyc.ellipse_x0)
    for scale in VERIFY_SCALES:
        result = sim.simulate(plant, nl, scale * basis, T, dt)
        runs.append(
            {
                "initial_scale": scale,
                "verdict": result.verdict,
                "amplitude": result.amplitude,
                "frequency": result.frequency,
            }
        )
    return runs


@main.command("nyquist")
@click.argument("plant_file", type=click.Path())
@click.option("--omega-range", nargs=2, type=float, default=OMEGA_RANGE,
              show_default=True, help="Positive frequency interval to sample.")
@click.option("--points", type=int, default=1024, show_default=True,
              help=f"Number of frequencies to sample (1 to {MAX_POINTS}).")
@click.option("--mark-neg-axis", is_flag=True,
              help="Mark the negative-real-axis crossings on the plot/CSV.")
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Output file; .csv or .svg decides the format (default: CSV to stdout).")
def cmd_nyquist(plant_file, omega_range, points, mark_neg_axis, out_path) -> None:
    """Sample the Nyquist curve of PLANT_FILE."""
    plant = _load(LinearPlant, plant_file)
    lo, hi = omega_range
    if not (0 < lo < hi < math.inf):
        _fail(f"invalid omega range ({lo}, {hi})")
    if not 1 <= points <= MAX_POINTS:
        _fail(f"invalid point count {points}: need 1 to {MAX_POINTS}")
    ws = log_grid(lo, hi, points)
    try:
        g = freq_response(plant, ws)
        marks = phase_crossovers(plant, (lo, hi)) if mark_neg_axis else []
    except PoleOnAxisError as exc:
        _fail(f"{plant_file}: {exc}")

    if out_path and out_path.endswith(".svg"):
        series = [svg.Series(g.real, g.imag, label="G(jw)", color="#2040c0",
                             points=[(-1.0 / km, 0.0) for _, km in marks])]
        _emit(svg.line_plot(series, title="Nyquist", xlabel="Re", ylabel="Im"), out_path)
        return

    lines = ["omega,re,im"]
    lines.extend(f"{_num(w)},{_num(v.real)},{_num(v.imag)}" for w, v in zip(ws, g))
    for w, km in marks:
        lines.append(f"# crossover omega={_num(w)} gain_margin={_num(km)}")
    _emit("\n".join(lines) + "\n", out_path)


if __name__ == "__main__":
    main()
