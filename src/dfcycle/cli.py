"""Command-line front end: describing-function curves, Nyquist data, reports.

Exit codes: 0 success, 2 malformed input (JSON schema or grid), a plant
unusable at the sampled frequencies (a pole on the imaginary axis, or a
G(j omega) that is not finite, in ``analyze`` and ``nyquist``), a describing
function F(X) that is not finite (``df``, ``analyze``), an F(X) = K that
holds on a plateau of amplitudes instead of at isolated ones, a predicted
cycle whose stability its two amplitude probes cannot decide, a plant with
direct feedthrough under ``--simulate``, or an oracle quadrature that is not
finite or fails its symmetry check, 3 analysis ran but the plant has no phase
crossover.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import click
import numpy as np

from . import sim, svg
from .cycles import AmbiguousStabilityError, IntersectionError, analyze
from .descfun import QuadratureError, df_exact, df_oracle_curve
from .linsys import (
    LinearPlant,
    PlantError,
    PoleOnAxisError,
    SingularFrequencyError,
    freq_response,
    phase_crossovers,
)
from .piecewise import NonlinearityError, PiecewiseNonlinearity
from .qualdf import df_qualitative

SCHEMA_VERSION = 1
EXIT_SCHEMA = 2
EXIT_NO_CROSSOVER = 3
# Raised when the plant cannot be evaluated at a frequency the command samples.
FREQUENCY_ERRORS = (PoleOnAxisError, SingularFrequencyError)
# Initial states of ``analyze --simulate``, as multiples of each cycle's x(0).
VERIFY_SCALES = (0.5, 1.5)


def _fail(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(EXIT_SCHEMA)


def _load_nonlinearity(path: str) -> PiecewiseNonlinearity:
    try:
        return PiecewiseNonlinearity.from_json(Path(path).read_text())
    except OSError as exc:
        _fail(f"{path}: {exc}")
    except NonlinearityError as exc:
        _fail(f"{path}: {exc}")


def _load_plant(path: str) -> LinearPlant:
    try:
        return LinearPlant.from_json(Path(path).read_text())
    except OSError as exc:
        _fail(f"{path}: {exc}")
    except PlantError as exc:
        _fail(f"{path}: {exc}")


def _num(v: float) -> str:
    return f"{v:.17g}"


def _curve(nl_file: str, make, nl: PiecewiseNonlinearity, grid):
    """``make(nl, grid)``, failing with one line on a non-finite F or oracle."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return make(nl, grid)
    except (ValueError, QuadratureError) as exc:
        _fail(f"{nl_file}: {exc}")


def _default_grid(nl: PiecewiseNonlinearity) -> tuple[float, float]:
    ref = nl.max_breakpoint if nl.max_breakpoint > 0 else 1.0
    return ref / 100.0, 3.0 * ref


def _make_grid(nl: PiecewiseNonlinearity, dx: float, xm: float) -> np.ndarray:
    if dx <= 0 or xm <= 0 or xm < dx:
        _fail(f"invalid grid: step {dx}, max {xm}")
    n = int(math.floor(xm / dx + 1e-9))
    grid = dx * np.arange(0, n + 1)
    if nl.has_origin_jump:
        grid = grid[grid > 0]
    if len(grid) == 0:
        _fail("empty grid")
    return grid


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
    help="Sample step and maximum amplitude (default: Xr/100, 3*Xr).",
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
    nl = _load_nonlinearity(nl_file)
    dx, xm = grid if grid else _default_grid(nl)
    xs = _make_grid(nl, dx, xm)

    curves = []
    if mode in ("exact", "both"):
        curves.append(_curve(nl_file, df_exact, nl, xs))
    if mode in ("qualitative", "both"):
        curves.append(_curve(nl_file, df_qualitative, nl, xs))
    if mode == "oracle":
        curves.append(_curve(nl_file, df_oracle_curve, nl, xs[xs > 0]))

    if out_path and out_path.endswith(".svg"):
        series = [
            svg.Series(
                list(c.X),
                list(c.F),
                label=c.provenance,
                color="#c02020" if c.provenance == "exact" else "#208040",
                dash=None if c.provenance == "exact" else "6,4",
            )
            for c in curves
        ]
        Path(out_path).write_text(
            svg.line_plot(series, title="describing function", xlabel="X", ylabel="F")
        )
        return

    lines = []
    if len(curves) == 1:
        lines.append("X,F")
        c = curves[0]
        lines.extend(f"{_num(x)},{_num(f)}" for x, f in zip(c.X, c.F))
    else:
        lines.append("X,F,provenance")
        for c in curves:
            lines.extend(
                f"{_num(x)},{_num(f)},{c.provenance}" for x, f in zip(c.X, c.F)
            )
    text = "\n".join(lines) + "\n"
    if out_path:
        Path(out_path).write_text(text)
    else:
        click.echo(text, nl=False)


@main.command("analyze")
@click.argument("nl_file", type=click.Path())
@click.argument("plant_file", type=click.Path())
@click.option("--simulate", "do_simulate", is_flag=True,
              help="Verify each predicted cycle by closed-loop simulation.")
@click.option("--all-ellipses", is_flag=True,
              help="Emit the state ellipse for unstable cycles too.")
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Report destination (default: stdout).")
def cmd_analyze(
    nl_file: str,
    plant_file: str,
    do_simulate: bool,
    all_ellipses: bool,
    out_path: str | None,
) -> None:
    """Estimate limit cycles of NL_FILE in feedback with PLANT_FILE."""
    nl = _load_nonlinearity(nl_file)
    plant = _load_plant(plant_file)

    try:
        crossovers = analyze(plant, nl)
    except FREQUENCY_ERRORS as exc:
        _fail(f"{plant_file}: {exc}")
    except IntersectionError as exc:
        _fail(f"{nl_file}: {exc}")
    except AmbiguousStabilityError as exc:
        _fail(
            f"{plant_file}: cannot classify the stability of the cycle at "
            f"X = {exc.X}, omega = {exc.omega}"
        )

    ref = nl.max_breakpoint if nl.max_breakpoint > 0 else 1.0
    df_grid = np.linspace(ref / 200.0, 3.0 * ref, 256)
    df_curve = _curve(nl_file, df_exact, nl, df_grid)

    report: dict = {
        "schema": SCHEMA_VERSION,
        "nonlinearity": nl.to_dict(),
        "plant": plant.to_dict(),
        "realization": "controllable_canonical",
        "df": {"X": list(df_curve.X), "F": list(df_curve.F)},
        "crossovers": [],
        "notes": [],
    }

    first_ellipse = None
    for co in crossovers:
        entry = {"omega": co.omega, "gain_margin": co.gain_margin, "cycles": []}
        for cyc in co.cycles:
            cd = {"X": cyc.X, "stability": cyc.stability, "Y1": cyc.Y1}
            if all_ellipses or cyc.stability == "stable":
                cd["ellipse"] = {
                    "x0": list(cyc.ellipse_x0),
                    "xq": list(cyc.ellipse_xq),
                }
                if first_ellipse is None:
                    first_ellipse = cd["ellipse"]
            if do_simulate:
                try:
                    cd["simulation"] = _verify(plant, nl, cyc)
                except sim.AlgebraicLoopError as exc:
                    _fail(f"{plant_file}: {exc}")
            entry["cycles"].append(cd)
        report["crossovers"].append(entry)

    if crossovers:
        report["omega"] = crossovers[0].omega
        report["gain_margin"] = crossovers[0].gain_margin
        report["cycles"] = [
            {"X": c.X, "stability": c.stability}
            for co in crossovers
            for c in co.cycles
        ]
        if first_ellipse is not None:
            report["ellipse"] = first_ellipse
        if not report["cycles"]:
            report["notes"].append("origin globally asymptotically stable")
    else:
        report["notes"].append("no phase crossover: no limit cycle predicted")

    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out_path:
        Path(out_path).write_text(text)
    else:
        click.echo(text, nl=False)
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
@click.option("--omega-range", nargs=2, type=float, default=(1e-3, 1e3),
              show_default=True, help="Positive frequency interval to sample.")
@click.option("--points", type=int, default=1024, show_default=True)
@click.option("--mark-neg-axis", is_flag=True,
              help="Mark the negative-real-axis crossings on the plot/CSV.")
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Output file; .csv or .svg decides the format (default: CSV to stdout).")
def cmd_nyquist(plant_file, omega_range, points, mark_neg_axis, out_path) -> None:
    """Sample the Nyquist curve of PLANT_FILE."""
    plant = _load_plant(plant_file)
    lo, hi = omega_range
    if not (0 < lo < hi):
        _fail(f"invalid omega range ({lo}, {hi})")
    ws = np.logspace(math.log10(lo), math.log10(hi), points)
    try:
        g = freq_response(plant, ws)
        marks = phase_crossovers(plant, (lo, hi)) if mark_neg_axis else []
    except FREQUENCY_ERRORS as exc:
        _fail(f"{plant_file}: {exc}")

    if out_path and out_path.endswith(".svg"):
        series = [
            svg.Series(
                list(g.real),
                list(g.imag),
                label="G(jw)",
                color="#2040c0",
                points=[(-1.0 / km, 0.0) for _, km in marks],
            )
        ]
        Path(out_path).write_text(
            svg.line_plot(series, title="Nyquist", xlabel="Re", ylabel="Im")
        )
        return

    lines = ["omega,re,im"]
    lines.extend(f"{_num(w)},{_num(v.real)},{_num(v.imag)}" for w, v in zip(ws, g))
    for w, km in marks:
        lines.append(f"# crossover omega={_num(w)} gain_margin={_num(km)}")
    text = "\n".join(lines) + "\n"
    if out_path:
        Path(out_path).write_text(text)
    else:
        click.echo(text, nl=False)


if __name__ == "__main__":
    main()
