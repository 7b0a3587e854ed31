"""Command-line interface: formats, determinism, exit codes."""

from __future__ import annotations

import json
import math
import sys

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dfcycle import LinearPlant, PiecewiseNonlinearity, cli, cycles, descfun, phase_crossovers
from dfcycle.cli import MAX_POINTS, main
from dfcycle.linsys import OMEGA_RANGE, nyquist_contour

NL_A = {"x": [2, 7, 20, 20, 25], "y": [0, 4.5, 7.21, 4.21, 5.25]}
NL_B = {"x": [3, 6, 10, 19], "y": [3, 3, 10, 10]}
NL_FIG = {"x": [2, 5, 5, 9, 9, 13, 19], "y": [0, 4, 2, 4, 6, 6, 8]}
PLANT_A = {"num": [-1, 2], "den": [1, 1, 0]}
PLANT_B = {"num": [1], "den": [1, 4, 3, 0]}
PLANT_OSC = {"num": [1], "den": [1, 0, 1, 0]}  # poles at 0 and +-j
PLANT_PM2J = {"num": [1], "den": [1, 0, 4]}  # G(jw) is real wherever it is sampled
PLANT_DOUBLE_J = {"num": [1], "den": [1, 0, 2, 0, 1, 0]}  # s (s^2 + 1)^2
# (s^2 + W^2)^2, W = 1.4151018441148748: np.roots puts the poles 1.2e-8 off the axis
PLANT_DOUBLE_W = {
    "num": [1],
    "den": [1.0, 0.0, 4.005026458434639, 0.0, 4.010059233190376],
}
PLANT_FEEDTHROUGH = {"num": [0.01, 0, 0, 1], "den": [1, 2, 1, 0], "k": 5}  # D != 0
NL_SAT = {"x": [1], "y": [1], "final_slope": 0}
NL_STEEP = {"x": [1], "y": [1], "final_slope": 1e308}  # y overflows before F does
NL_SLOPE_OVERFLOW = {"x": [1e-300, 1], "y": [1e300, 1]}  # first slope is 1e600
PLANT_OVERFLOW = {"num": [1e300], "den": [1, 4, 3, 0], "k": 1e10}  # G(jw) overflows
PLANT_STATIC = {"num": [1], "den": [1]}  # G(jw) is real at every frequency
NL_TALL = {"x": [1e-300, 1e-300], "y": [0, 1e300]}  # F(X) overflows above the jump
NL_HUGE_RELAY = {"x": [5e307, 5e307], "y": [0, 1e308]}  # a relay where pi X overflows
# JSON values that float() accepts but that are not numbers or arrays
PLANTS_NOT_NUMBERS = [
    {"num": "1", "den": "143", "k": True},
    {"num": [1], "den": [1, 4, 3, 0], "k": True},
    {"num": [1], "den": [1, 4, 3, 0], "k": "2"},
    {"num": ["1"], "den": [1, 4, 3, 0]},
    {"num": [1], "den": [1, 4, 3, False]},
]
NLS_NOT_NUMBERS = [
    {"x": "36", "y": "36"},
    {"x": [3], "y": [3], "final_slope": True},
    {"x": [3], "y": [3], "final_slope": "0"},
    {"x": [3, 6], "y": [3, "3"]},
    {"x": [True], "y": [1]},
]


@pytest.fixture
def runner():
    return CliRunner()


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestDf:
    def test_csv_header_and_shape(self, runner, tmp_path):
        nl = write(tmp_path, "nl.json", NL_B)
        res = runner.invoke(main, ["df", nl, "--grid", "1", "12"])
        assert res.exit_code == 0
        lines = res.output.strip().splitlines()
        assert lines[0] == "X,F"
        assert len(lines) == 14  # header + X in {0, 1, ..., 12}

    def test_both_mode_adds_provenance_column(self, runner, tmp_path):
        nl = write(tmp_path, "nl.json", NL_B)
        res = runner.invoke(main, ["df", nl, "--grid", "2", "8", "--mode", "both"])
        assert res.exit_code == 0
        lines = res.output.strip().splitlines()
        assert lines[0] == "X,F,provenance"
        assert any(line.endswith(",exact") for line in lines[1:])
        assert any(line.endswith(",qualitative") for line in lines[1:])

    def test_deterministic_output(self, runner, tmp_path):
        nl = write(tmp_path, "nl.json", NL_A)
        args = ["df", nl, "--grid", "0.5", "30"]
        assert runner.invoke(main, args).output == runner.invoke(main, args).output

    def test_oracle_mode_agrees_with_exact(self, runner, tmp_path):
        nl = write(tmp_path, "nl.json", NL_FIG)
        out_e = runner.invoke(main, ["df", nl, "--grid", "0.105", "21"])
        out_o = runner.invoke(main, ["df", nl, "--grid", "0.105", "21", "--mode", "oracle"])
        exact = {l.split(",")[0]: float(l.split(",")[1])
                 for l in out_e.output.strip().splitlines()[1:]}
        worst = 0.0
        for line in out_o.output.strip().splitlines()[1:]:
            x, f = line.split(",")
            worst = max(worst, abs(float(f) - exact[x]))
        assert worst <= 1e-6

    def test_figure_curve_shape(self, runner, tmp_path):
        # plateau at zero, rise to a peak before the first jump, dip after it
        nl = write(tmp_path, "nl.json", NL_FIG)
        res = runner.invoke(main, ["df", nl, "--grid", "0.105", "21"])
        rows = [tuple(map(float, l.split(","))) for l in res.output.strip().splitlines()[1:]]
        f_at = {i: f for i, (_, f) in enumerate(rows)}  # row i holds X = 0.105 i
        assert f_at[10] == 0.0  # plateau: first breakpoint is at X = 2
        peak_region = max(f_at[i] for i in range(39, 48))  # X in [4.1, 4.9]
        assert peak_region > f_at[28]
        assert f_at[49] < peak_region  # drop caused by the downward jump at X = 5

    def test_svg_output(self, runner, tmp_path):
        nl = write(tmp_path, "nl.json", NL_B)
        out = tmp_path / "curve.svg"
        res = runner.invoke(
            main, ["df", nl, "--grid", "0.5", "15", "--mode", "both", "--out", str(out)]
        )
        assert res.exit_code == 0
        text = out.read_text()
        assert text.startswith("<svg") and "polyline" in text

    @pytest.mark.parametrize(
        "nl_data, grid",
        [
            # one amplitude: the relay at the origin drops X = 0, so x is constant
            ({"x": [0, 0], "y": [0, 1]}, ["--grid", "1e300", "1e300"]),
            ({"x": [0, 0], "y": [0, 1]}, ["--grid", *["1.7976931348623157e308"] * 2]),
            # F = 1e20 on the whole default grid, so y is constant
            ({"x": [1], "y": [1e20], "final_slope": 1e20}, []),
            ({"x": [1], "y": [-1e300], "final_slope": -1e300}, []),
        ],
        ids=["x-1e300", "x-largest", "y-1e20", "y-minus-1e300"],
    )
    def test_constant_range_past_float_precision(self, runner, tmp_path, nl_data, grid):
        # a constant range widened by + 1.0 is lost above 2^53 and divided 0/0
        nl = write(tmp_path, "nl.json", nl_data)
        out = tmp_path / "curve.svg"
        res = runner.invoke(main, ["df", nl, *grid, "--out", str(out)])
        assert res.exit_code == 0 and res.stderr == ""
        [points] = [l for l in out.read_text().splitlines() if l.startswith("<polyline")]
        xy = [tuple(map(float, p.split(","))) for p in points.split('"')[1].split()]
        assert xy and all(64 <= x <= 704 and 28 <= y <= 436 for x, y in xy)

    def test_subnormal_jump_has_a_finite_curve(self, runner, tmp_path):
        # 4/(pi X) overflows at the default grid's first amplitudes, 4 Y/(pi X) does not
        nl = write(tmp_path, "nl.json", {"x": [0, 0, 4.5e-322], "y": [0, 1e-322, 2e-322]})
        res = runner.invoke(main, ["df", nl])
        assert res.exit_code == 0
        rows = [tuple(map(float, l.split(","))) for l in res.output.strip().splitlines()[1:]]
        assert rows[0][0] == 5e-324 and rows[0][1] == pytest.approx(25.68457, rel=1e-6)

    def test_bad_schema_exits_2(self, runner, tmp_path):
        nl = write(tmp_path, "nl.json", {"x": [2, 1], "y": [0, 1]})
        res = runner.invoke(main, ["df", nl])
        assert res.exit_code == 2

    def test_empty_grid_exits_2(self, runner, tmp_path):
        nl = write(tmp_path, "nl.json", NL_B)
        res = runner.invoke(main, ["df", nl, "--grid", "-1", "5"])
        assert res.exit_code == 2

    def test_oracle_on_a_steep_map(self, runner, tmp_path):
        # y reaches 2e308 at X = 3, where F = 5.8e307: the oracle scales the map down
        nl = write(tmp_path, "nl.json", NL_STEEP)
        curves = {}
        for mode in ("exact", "oracle"):
            res = runner.invoke(main, ["df", nl, "--grid", "1.5", "3", "--mode", mode])
            assert res.exit_code == 0 and res.stderr == ""
            rows = res.stdout.splitlines()[1:]
            curves[mode] = dict(tuple(map(float, line.split(","))) for line in rows)
        assert list(curves["oracle"]) == [1.5, 3.0]  # the grid is 0, 1.5, 3
        for x, f in curves["oracle"].items():
            assert math.isfinite(f) and f == pytest.approx(curves["exact"][x], rel=1e-12)

    def test_relay_past_half_the_largest_float(self, runner, tmp_path):
        # pi X overflows above about 5.7e307; the relay term must not read 0 there
        nl = write(tmp_path, "nl.json", NL_HUGE_RELAY)
        curves = {}
        for mode in ("exact", "oracle"):
            res = runner.invoke(main, ["df", nl, "--grid", "1e307", "1.5e308", "--mode", mode])
            assert res.exit_code == 0 and res.stderr == ""
            rows = res.stdout.splitlines()[1:]
            curves[mode] = dict(tuple(map(float, line.split(","))) for line in rows)
        assert len(curves["oracle"]) == 15 and curves["oracle"][1.5e308] > 0.8
        for x, f in curves["oracle"].items():
            assert curves["exact"][x] == pytest.approx(f, rel=1e-13, abs=0.0)

    def test_oracle_failure_exits_2(self, runner, tmp_path, monkeypatch):
        def failing(nl, X):
            raise descfun.QuadratureError(f"quadrature gave a non-finite value at X = {X}")

        monkeypatch.setattr(descfun, "df_oracle", failing)
        nl = write(tmp_path, "nl.json", NL_B)
        res = runner.invoke(main, ["df", nl, "--grid", "1.5", "3", "--mode", "oracle"])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        [line] = res.stderr.splitlines()
        assert line == f"error: {nl}: quadrature gave a non-finite value at X = 1.5"
        assert res.stdout == ""

    @pytest.mark.parametrize("mode", ["exact", "qualitative", "oracle"])
    def test_overflowing_df_exits_2(self, runner, tmp_path, mode):
        nl = write(tmp_path, "nl.json", NL_TALL)
        res = runner.invoke(main, ["df", nl, "--mode", mode])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert res.stderr.splitlines() == [f"error: {nl}: F is not finite at X = 1.01e-300"]
        assert res.stdout == ""


class TestAnalyze:
    def test_two_cycle_report(self, runner, tmp_path):
        nl = write(tmp_path, "nl.json", NL_A)
        plant = write(tmp_path, "plant.json", {**PLANT_A, "k": 2.5})
        res = runner.invoke(main, ["analyze", nl, plant])
        assert res.exit_code == 0
        report = json.loads(res.output)
        assert report["schema"] == 2
        [co] = report["crossovers"]
        assert co["omega"] == pytest.approx(math.sqrt(2.0), abs=1e-6)
        assert [c["stability"] for c in co["cycles"]] == ["unstable", "stable"]
        assert all(len(c["ellipse"]["x0"]) == 2 for c in co["cycles"])

    def test_stable_origin_report(self, runner, tmp_path):
        nl = write(tmp_path, "nl.json", NL_B)
        plant = write(tmp_path, "plant.json", {**PLANT_B, "k": 5})
        res = runner.invoke(main, ["analyze", nl, plant])
        assert res.exit_code == 0
        report = json.loads(res.output)
        assert [co["cycles"] for co in report["crossovers"]] == [[]]
        assert report["notes"] == ["origin globally asymptotically stable"]

    def test_three_cycle_report(self, runner, tmp_path):
        nl = write(tmp_path, "nl.json", NL_B)
        plant = write(tmp_path, "plant.json", {**PLANT_B, "k": 15})
        report = json.loads(runner.invoke(main, ["analyze", nl, plant]).output)
        assert sum(len(co["cycles"]) for co in report["crossovers"]) == 3

    def test_no_crossover_exits_3_with_df(self, runner, tmp_path):
        nl = write(tmp_path, "nl.json", NL_B)
        plant = write(tmp_path, "plant.json", {"num": [1], "den": [1, 1]})
        res = runner.invoke(main, ["analyze", nl, plant])
        assert res.exit_code == 3
        report = json.loads(res.output)
        assert report["crossovers"] == [] and len(report["df"]["X"]) > 0

    def test_real_plant_exits_3(self, runner, tmp_path):
        # Im G = 0 everywhere is no crossover, not a plateau error
        nl = write(tmp_path, "nl.json", NL_SAT)
        plant = write(tmp_path, "plant.json", PLANT_STATIC)
        res = runner.invoke(main, ["analyze", nl, plant])
        assert res.exit_code == 3
        assert json.loads(res.output)["crossovers"] == []

    def test_plateau_at_the_gain_margin_exits_2(self, runner, tmp_path):
        (_, km), = phase_crossovers(LinearPlant(**PLANT_B, k=5))
        nl = write(tmp_path, "nl.json", {"x": [1.0], "y": [km], "final_slope": 0.0})
        plant = write(tmp_path, "plant.json", {**PLANT_B, "k": 5})
        res = runner.invoke(main, ["analyze", nl, plant])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        [line] = res.stderr.splitlines()
        assert line.startswith(f"error: {nl}: F(X) = K = {km} on a plateau: ")
        assert res.stdout == ""

    @pytest.mark.parametrize(
        "plant_desc, X",
        [
            ({**PLANT_B, "k": 5}, "1.0000038146972656e-300"),
            (PLANT_STATIC, "1.01e-300"),
        ],
    )
    def test_overflowing_describing_function_exits_2(self, runner, tmp_path, plant_desc, X):
        # with a crossover the run table of F refuses F at its first knot
        # above the jump, without one the report's curve, on the df command's
        # default grid
        nl = write(tmp_path, "nl.json", NL_TALL)
        plant = write(tmp_path, "plant.json", plant_desc)
        res = runner.invoke(main, ["analyze", nl, plant])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert res.stderr.splitlines() == [f"error: {nl}: F is not finite at X = {X}"]
        assert res.stdout == ""

    def test_amplitude_grid_up_to_the_largest_float(self, runner, tmp_path):
        # the run table's log knots run up to 100 times the last breakpoint,
        # or to the largest float; F = 1/x is flat, so there is no cycle
        for last in (1.7976931348623157e306, 1e307):
            nl = write(tmp_path, "nl.json", {"x": [last], "y": [1]})
            plant = write(tmp_path, "plant.json", {**PLANT_B, "k": 5})
            res = runner.invoke(main, ["analyze", nl, plant])
            assert res.exit_code == 0
            assert res.stderr == ""
            assert [co["cycles"] for co in json.loads(res.stdout)["crossovers"]] == [[]]

    def test_cycle_far_above_the_last_breakpoint(self, runner, tmp_path):
        # K = 0.005 meets F = 40/(pi X) on NL_B's tail at X = 2 546, past 100
        # times its last breakpoint, where a log scan of F up to there ends
        nl = write(tmp_path, "nl.json", NL_B)
        plant = write(tmp_path, "plant.json", {**PLANT_B, "k": 2400})
        res = runner.invoke(main, ["analyze", nl, plant])
        assert res.exit_code == 0
        [co] = json.loads(res.stdout)["crossovers"]
        assert co["gain_margin"] == pytest.approx(0.005)
        [cycle] = co["cycles"]
        assert cycle["X"] == pytest.approx(2546.47, rel=1e-6)
        nl_b = PiecewiseNonlinearity(**NL_B)
        contour = nyquist_contour(LinearPlant(**PLANT_B, k=2400))
        assert cycle["stability"] == cycles.classify(
            None, nl_b, cycle["X"], co["omega"], contour=contour
        )

    def test_bad_plant_exits_2(self, runner, tmp_path):
        nl = write(tmp_path, "nl.json", NL_B)
        plant = write(tmp_path, "plant.json", {"num": [1, 2, 3], "den": [1, 1]})
        assert runner.invoke(main, ["analyze", nl, plant]).exit_code == 2

    @pytest.mark.parametrize("num_zero, den_zero", [(0.0, 0.0), (0.0, -0.0), (-0.0, 0.0)])
    @pytest.mark.parametrize("command", ["analyze", "nyquist"])
    def test_common_factor_s_exits_2(self, runner, tmp_path, command, num_zero, den_zero):
        # -78 s / (-41 s) at k = -1: the cancelled pole at the origin counted
        # on the contour, whose table hung on the sign of den's zero
        nl = write(tmp_path, "nl.json", NL_B)
        plant = write(tmp_path, "plant.json", {
            "num": [-78.08665438061327, num_zero], "den": [-41.330426673779805, den_zero],
            "k": -1,
        })
        args = ["analyze", nl, plant] if command == "analyze" else ["nyquist", plant]
        res = runner.invoke(main, args)
        assert_one_line_exit_2(res)
        assert res.stderr.splitlines() == [
            f"error: {plant}: numerator and denominator share a factor s: both end in 0"
        ]

    def test_pole_on_axis_exits_2(self, runner, tmp_path):
        nl = write(tmp_path, "nl.json", NL_B)
        plant = write(tmp_path, "plant.json", PLANT_OSC)
        res = runner.invoke(main, ["analyze", nl, plant])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        [line] = res.stderr.splitlines()
        assert line.startswith(f"error: {plant}: pole at s = ")
        assert complex(line.rsplit(" ", 1)[1]) == pytest.approx(1j)
        assert res.stdout == ""

    @pytest.mark.parametrize(
        "plant_data, pole",
        [(PLANT_PM2J, "2j"), (PLANT_DOUBLE_J, "1j"), (PLANT_DOUBLE_W, "1.415102j")],
    )
    def test_unsampled_axis_pole_exits_2(self, runner, tmp_path, plant_data, pole):
        nl = write(tmp_path, "nl.json", NL_B)
        plant = write(tmp_path, "plant.json", plant_data)
        res = runner.invoke(main, ["analyze", nl, plant])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert res.stderr.splitlines() == [f"error: {plant}: pole at s = {pole}"]
        assert res.stdout == ""

    def test_denominator_roots_that_overflow_exit_2(self, runner, tmp_path):
        # np.roots divides by den[0] = 1e-300 and overflows; this used to end
        # in a LinAlgError traceback
        nl = write(tmp_path, "nl.json", NL_B)
        plant = write(tmp_path, "plant.json", {"num": [1], "den": [1e-300, 1e300]})
        res = runner.invoke(main, ["analyze", nl, plant])
        assert_one_line_exit_2(res)
        assert res.stderr.splitlines() == [
            f"error: {plant}: the roots of the denominator are not finite"
        ]

    @pytest.mark.parametrize(
        "nl_data, plant_data",
        [(NL_B, {"num": ["a"], "den": [1, 1]}), ({"x": [None], "y": [1]}, PLANT_B)],
    )
    def test_value_that_is_not_a_number_exits_2(self, runner, tmp_path, nl_data, plant_data):
        nl = write(tmp_path, "nl.json", nl_data)
        plant = write(tmp_path, "plant.json", plant_data)
        res = runner.invoke(main, ["analyze", nl, plant])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        [line] = res.stderr.splitlines()
        assert line.startswith("error: ")
        assert res.stdout == ""

    def test_ambiguous_stability_exits_2(self, runner, tmp_path, monkeypatch):
        def ambiguous(X, omega, enclosed_below, enclosed_above):
            raise cycles.AmbiguousStabilityError(X, omega, True, True)

        monkeypatch.setattr(cycles, "_label", ambiguous)
        nl = write(tmp_path, "nl.json", NL_A)
        plant = write(tmp_path, "plant.json", {**PLANT_A, "k": 2.5})
        res = runner.invoke(main, ["analyze", nl, plant])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        [line] = res.stderr.splitlines()
        assert line.startswith(
            f"error: {plant}: cannot classify the stability of the cycle at X = "
        )
        assert "omega = 1.41421" in line
        assert res.stdout == ""

    def test_nonpositive_f_at_a_probe_names_the_probe(self, runner, tmp_path):
        # F(X) = K is tiny here, and F falls below 0 just above the cycle:
        # -1/F at classify's upper probe is not on the negative real axis, and
        # classify names the probe; analyze reads the label off F's run instead
        nl_data = {"x": [1], "y": [1], "final_slope": -2}
        nl = write(tmp_path, "nl.json", nl_data)
        plant = write(tmp_path, "plant.json", {**PLANT_B, "k": 1e7})
        res = runner.invoke(main, ["analyze", nl, plant])
        assert res.exit_code == 0
        [co] = json.loads(res.stdout)["crossovers"]
        [cycle] = co["cycles"]
        assert cycle["stability"] == "stable"
        nl_map = PiecewiseNonlinearity(**nl_data)
        contour = nyquist_contour(LinearPlant(**PLANT_B, k=1e7))
        with pytest.raises(cycles.AmbiguousStabilityError) as err:
            cycles.classify(None, nl_map, cycle["X"], co["omega"], contour=contour)
        head, reason = str(err.value).split(": F = ")
        assert head.startswith("cannot classify the stability of the cycle at X = ")
        F, X = reason.removesuffix(", so -1/F is not on the negative real axis").split(
            " <= 0 at the probe X = "
        )
        X = float(X)
        assert X == cycle["X"] * (1.0 + cycles.DELTA)
        assert float(F) == descfun.df_value(nl_map, X)
        assert float(F) <= 0

    def test_overflowing_slope_exits_2(self, runner, tmp_path):
        nl = write(tmp_path, "nl.json", NL_SLOPE_OVERFLOW)
        plant = write(tmp_path, "plant.json", {**PLANT_B, "k": 5})
        res = runner.invoke(main, ["analyze", nl, plant])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert res.stderr.splitlines() == [
            f"error: {nl}: slope of the segment from 0.0 to 1e-300 is not finite"
        ]
        assert res.stdout == ""

    def test_overflowing_plant_exits_2(self, runner, tmp_path):
        nl = write(tmp_path, "nl.json", {"x": [3], "y": [3]})
        plant = write(tmp_path, "plant.json", PLANT_OVERFLOW)
        res = runner.invoke(main, ["analyze", nl, plant])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert res.stderr.splitlines() == [
            f"error: {plant}: G(j omega) is not finite at omega = 0.001"
        ]
        assert res.stdout == ""

    def test_simulate_feedthrough_exits_2(self, runner, tmp_path):
        nl = write(tmp_path, "nl.json", NL_SAT)
        plant = write(tmp_path, "plant.json", PLANT_FEEDTHROUGH)
        res = runner.invoke(main, ["analyze", nl, plant, "--simulate"])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert res.stderr.splitlines() == [
            f"error: {plant}: plant must be strictly proper (D = 0) for the feedback loop"
        ]
        assert res.stdout == ""


REPORT_KEYS = {"schema", "nonlinearity", "plant", "realization", "df", "crossovers", "notes"}
CASE_STUDIES = [(NL_A, {**PLANT_A, "k": k}) for k in (1.0, 2.5, 6.0)] + [
    (NL_B, {**PLANT_B, "k": k}) for k in (5.0, 15.0, 30.0)
]


class TestReportContract:
    """Schema 2: the report is the inputs, the df curve and the crossover list."""

    @pytest.mark.parametrize("nl_data, plant_data", CASE_STUDIES)
    def test_case_studies(self, runner, tmp_path, nl_data, plant_data):
        nl = write(tmp_path, "nl.json", nl_data)
        plant = write(tmp_path, "plant.json", plant_data)
        res = runner.invoke(main, ["analyze", nl, plant])
        assert res.exit_code == 0
        assert runner.invoke(main, ["analyze", nl, plant]).stdout == res.stdout
        report = json.loads(res.stdout)
        assert set(report) == REPORT_KEYS and report["schema"] == 2

        expected = cycles.analyze(LinearPlant(**plant_data), PiecewiseNonlinearity(**nl_data))
        assert len(report["crossovers"]) == len(expected)
        for co, want in zip(report["crossovers"], expected):
            assert (co["omega"], co["gain_margin"]) == (want.omega, want.gain_margin)
            assert all(set(c) == {"X", "stability", "Y1", "ellipse"} for c in co["cycles"])
            assert [
                (c["X"], c["stability"], c["Y1"], c["ellipse"]["x0"], c["ellipse"]["xq"])
                for c in co["cycles"]
            ] == [
                (w.X, w.stability, w.Y1, list(w.ellipse_x0), list(w.ellipse_xq))
                for w in want.cycles
            ]

        csv = runner.invoke(main, ["df", nl]).stdout.splitlines()[1:]
        assert report["df"]["X"] == [float(line.split(",")[0]) for line in csv]

    def test_simulation_runs_under_each_cycle(self, runner, tmp_path):
        nl = write(tmp_path, "nl.json", NL_A)
        plant = write(tmp_path, "plant.json", {**PLANT_A, "k": 2.5})
        report = json.loads(runner.invoke(main, ["analyze", nl, plant, "--simulate"]).stdout)
        assert set(report) == REPORT_KEYS
        [co] = report["crossovers"]
        assert len(co["cycles"]) == 2
        for c in co["cycles"]:
            assert set(c) == {"X", "stability", "Y1", "ellipse", "simulation"}
            assert [run["initial_scale"] for run in c["simulation"]] == list(cli.VERIFY_SCALES)


class TestNyquist:
    def test_csv_header(self, runner, tmp_path):
        plant = write(tmp_path, "plant.json", {**PLANT_A, "k": 2.5})
        res = runner.invoke(main, ["nyquist", plant, "--points", "16"])
        assert res.exit_code == 0
        assert res.output.splitlines()[0] == "omega,re,im"

    def test_mark_neg_axis_annotates_crossover(self, runner, tmp_path):
        plant = write(tmp_path, "plant.json", {**PLANT_A, "k": 2.5})
        res = runner.invoke(
            main, ["nyquist", plant, "--points", "16", "--mark-neg-axis"]
        )
        [line] = [l for l in res.output.splitlines() if l.startswith("# crossover")]
        margin = float(line.split("gain_margin=")[1])
        assert margin == pytest.approx(0.4, rel=1e-9)

    def test_gain_scales_linearly(self, runner, tmp_path):
        rows = {}
        for k in (1.0, 2.0):
            plant = write(tmp_path, f"p{k}.json", {**PLANT_A, "k": k})
            res = runner.invoke(main, ["nyquist", plant, "--points", "8"])
            rows[k] = [
                tuple(map(float, l.split(","))) for l in res.output.strip().splitlines()[1:]
            ]
        for (w1, re1, im1), (w2, re2, im2) in zip(rows[1.0], rows[2.0]):
            assert w2 == w1
            assert re2 == pytest.approx(2.0 * re1, rel=1e-12)
            assert im2 == pytest.approx(2.0 * im1, rel=1e-12)

    def test_default_range_is_the_analysis_range(self):
        [option] = [p for p in cli.cmd_nyquist.params if p.name == "omega_range"]
        assert option.default is OMEGA_RANGE

    def test_invalid_range_exits_2(self, runner, tmp_path):
        plant = write(tmp_path, "plant.json", {**PLANT_A, "k": 1.0})
        res = runner.invoke(main, ["nyquist", plant, "--omega-range", "5", "1"])
        assert res.exit_code == 2

    def test_pole_on_axis_exits_2(self, runner, tmp_path):
        plant = write(tmp_path, "plant.json", PLANT_OSC)
        res = runner.invoke(
            main, ["nyquist", plant, "--omega-range", "0.5", "2", "--points", "3"]
        )
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert res.stderr.splitlines() == [f"error: {plant}: pole at s = 1j"]
        assert res.stdout == ""

    @pytest.mark.parametrize("extra", [[], ["--mark-neg-axis"]])
    def test_overflowing_plant_exits_2(self, runner, tmp_path, extra):
        plant = write(tmp_path, "plant.json", PLANT_OVERFLOW)
        res = runner.invoke(main, ["nyquist", plant, *extra])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert res.stderr.splitlines() == [
            f"error: {plant}: G(j omega) is not finite at omega = 0.001"
        ]
        assert res.stdout == ""


    @pytest.mark.parametrize("extra", [[], ["--mark-neg-axis"]])
    @pytest.mark.parametrize(
        "hi, at",
        [("1e300", "1e+200j"), (repr(sys.float_info.max), "3.1852513365224594e+205j")],
    )
    def test_denominator_overflow_exits_2(self, runner, tmp_path, hi, at, extra):
        # den(s) = s^2 + s overflows from omega = 1e200 on; the poles are 0 and -1
        plant = write(tmp_path, "plant.json", {**PLANT_A, "k": 2.5})
        args = ["nyquist", plant, "--omega-range", "1", hi, "--points", "4", *extra]
        res = runner.invoke(main, args)
        assert_one_line_exit_2(res)
        assert res.stderr.splitlines() == [
            f"error: {plant}: the denominator overflows at s = {at}"
        ]

    @pytest.mark.parametrize("extra", [[], ["--mark-neg-axis"]])
    def test_omega_range_up_to_the_largest_float(self, runner, tmp_path, extra):
        plant = write(tmp_path, "plant.json", {"num": [1], "den": [1, 1]})
        big = sys.float_info.max
        args = ["nyquist", plant, "--omega-range", "1", repr(big), "--points", "4", *extra]
        res = runner.invoke(main, args)
        assert res.exit_code == 0
        assert res.stderr == ""
        rows = [tuple(map(float, l.split(","))) for l in res.stdout.splitlines()[1:]]
        assert [w for w, _, _ in rows][::3] == [1.0, big]
        for w, re, im in rows:
            # G(jw) = 1 / (1 + jw), in a form that does not overflow
            assert re == pytest.approx(1.0 / w / (w + 1.0 / w), rel=1e-12)
            assert im == pytest.approx(-1.0 / (w + 1.0 / w), rel=1e-12)

    @pytest.mark.parametrize("extra", [[], ["--mark-neg-axis"]])
    @pytest.mark.parametrize(
        "plant_data", [PLANT_A, PLANT_B, PLANT_STATIC, {"num": [1], "den": [1, 1]},
                       {"num": [1, -1], "den": [1, 1]}, {"num": [1], "den": [1e-300, 1e300]}],
    )
    def test_widest_omega_range_ends_in_a_documented_exit(self, runner, tmp_path,
                                                           plant_data, extra):
        plant = write(tmp_path, "plant.json", plant_data)
        args = ["nyquist", plant, "--omega-range", "1e-300", "1e300", "--points", "64", *extra]
        res = runner.invoke(main, args)
        if res.exit_code == 0:
            assert res.stderr == ""
            assert res.stdout.startswith("omega,re,im\n")
        else:
            assert_one_line_exit_2(res)


def assert_one_line_exit_2(res):
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    [line] = res.stderr.splitlines()
    assert line.startswith("error: ")
    assert res.stdout == ""


class TestMalformedInput:
    @pytest.mark.parametrize("plant_data", PLANTS_NOT_NUMBERS)
    def test_nyquist_refuses(self, runner, tmp_path, plant_data):
        plant = write(tmp_path, "plant.json", plant_data)
        assert_one_line_exit_2(runner.invoke(main, ["nyquist", plant, "--points", "8"]))

    @pytest.mark.parametrize("plant_data", PLANTS_NOT_NUMBERS)
    def test_analyze_refuses_plant(self, runner, tmp_path, plant_data):
        nl = write(tmp_path, "nl.json", NL_B)
        plant = write(tmp_path, "plant.json", plant_data)
        assert_one_line_exit_2(runner.invoke(main, ["analyze", nl, plant]))

    @pytest.mark.parametrize("nl_data", NLS_NOT_NUMBERS)
    def test_analyze_refuses_nonlinearity(self, runner, tmp_path, nl_data):
        nl = write(tmp_path, "nl.json", nl_data)
        plant = write(tmp_path, "plant.json", {**PLANT_B, "k": 15})
        assert_one_line_exit_2(runner.invoke(main, ["analyze", nl, plant]))

    @pytest.mark.parametrize("command", ["df", "nyquist", "analyze"])
    def test_invalid_json(self, runner, tmp_path, command):
        bad = tmp_path / "bad.json"
        bad.write_text('{"x": [1, 2]')
        good = write(tmp_path, "plant.json", PLANT_B)
        args = [command, str(bad)] + ([good] if command == "analyze" else [])
        res = runner.invoke(main, args)
        assert_one_line_exit_2(res)
        assert res.stderr.startswith(f"error: {bad}: invalid JSON: ")

    @pytest.mark.parametrize("command", ["df", "nyquist", "analyze"])
    @pytest.mark.parametrize("out", ["adir", "missing/dir/f.csv"])
    def test_out_path_that_cannot_be_written(self, runner, tmp_path, command, out):
        (tmp_path / "adir").mkdir()
        out = str(tmp_path / out)
        nl = write(tmp_path, "nl.json", NL_B)
        plant = write(tmp_path, "plant.json", {**PLANT_B, "k": 15})
        inputs = {"df": [nl], "nyquist": [plant], "analyze": [nl, plant]}[command]
        res = runner.invoke(main, [command, *inputs, "--out", out])
        assert_one_line_exit_2(res)
        assert res.stderr.startswith(f"error: {out}: [Errno ")

    @pytest.mark.parametrize("nl_data", NLS_NOT_NUMBERS)
    def test_df_refuses(self, runner, tmp_path, nl_data):
        nl = write(tmp_path, "nl.json", nl_data)
        assert_one_line_exit_2(runner.invoke(main, ["df", nl]))

    @pytest.mark.parametrize("grid", [["1", "inf"], ["nan", "5"]])
    def test_df_grid_that_is_not_finite(self, runner, tmp_path, grid):
        nl = write(tmp_path, "nl.json", NL_B)
        assert_one_line_exit_2(runner.invoke(main, ["df", nl, "--grid", *grid]))

    @pytest.mark.parametrize(
        "command, nl_data, plant_data, message",
        [
            ("df", {"x": [1e308], "y": [1]}, None, "a grid up to 3 * 1e+308 is past"),
            ("analyze", {"x": [1e308], "y": [1]}, {"num": [1], "den": [1, 1]},
             "a grid up to 3 * 1e+308 is past"),
            # F = K at X = 9e307, near the largest float, where Y1 = F X overflows
            ("analyze", {"x": [1e307], "y": [1.7e308], "final_slope": 0}, {**PLANT_B, "k": 5},
             "the first harmonic Y1 = inf or the state ellipse of the cycle at omega = 1.73"),
            ("analyze", NL_B, {**PLANT_B, "k": 1e-310},
             "the gain margin 1/|G| is inf at omega = 1.73"),
            ("analyze", NL_B, {**PLANT_B, "k": 1e305}, "the Nyquist contour is not finite"),
            # the root scan's trial points stay finite, and Y1 = F(X) X overflows
            ("analyze", {"x": [1.7e306], "y": [1.7e306], "final_slope": 2},
             {**PLANT_B, "k": 6.0606},
             "the first harmonic Y1 = inf or the state ellipse of the cycle at omega = 1.73"),
            ("analyze", {"x": [1e305], "y": [1e305], "final_slope": 0},
             {"num": [1], "den": [1, 0.02, 0.0001, 0], "k": 5e-6},
             "or the state ellipse of the cycle at omega = "),
            # a cycle above a subnormal breakpoint, and a report's curve that
            # underflows there
            ("analyze", {"x": [5e-324], "y": [5e-324], "final_slope": 0}, {**PLANT_B, "k": 30},
             "the default grid underflows at the last breakpoint 5e-324"),
        ],
    )
    def test_past_the_largest_float(self, runner, tmp_path, command, nl_data, plant_data, message):
        args = [command, write(tmp_path, "nl.json", nl_data)]
        if plant_data is not None:
            args.append(write(tmp_path, "plant.json", plant_data))
        res = runner.invoke(main, args)
        assert_one_line_exit_2(res)
        assert message in res.stderr
        if message.endswith("omega = "):
            # the crossover of s (s + 0.01)^2 is at exactly omega = 0.01
            omega = float(res.stderr.split(message)[1].split(",")[0])
            assert omega == pytest.approx(0.01, rel=1e-9)

    @pytest.mark.parametrize(
        "command, nl_data",
        [
            ("df", {"x": [5e-324], "y": [5e-324], "final_slope": 0}),
            ("analyze", {"x": [5e-324], "y": [5e-324], "final_slope": 0}),
        ],
    )
    def test_default_grid_that_underflows(self, runner, tmp_path, command, nl_data):
        # the plant has no crossover, so only the default grid is built
        nl = write(tmp_path, "nl.json", nl_data)
        plant = write(tmp_path, "plant.json", {"num": [1], "den": [1, 1]})
        res = runner.invoke(main, [command, nl] if command == "df" else [command, nl, plant])
        assert_one_line_exit_2(res)
        last = nl_data["x"][-1]
        assert res.stderr == (
            f"error: {nl}: the default grid underflows at the last breakpoint {last}\n"
        )

    @pytest.mark.parametrize(
        "nl_data",
        [
            {"x": [1e-321], "y": [1e-321], "final_slope": 0},
            {"x": [1e-310], "y": [1e-310], "final_slope": 0},
            {"x": [1e-320], "y": [1e-320], "final_slope": 0},
            # y jumps at the origin, so the grid leaves out X = 0
            {"x": [0, 0, 4.5e-322], "y": [0, 1e-322, 2e-322]},
        ],
        ids=lambda nl_data: repr(nl_data["x"][-1]),
    )
    def test_default_grid_at_a_subnormal_breakpoint(self, runner, tmp_path, nl_data):
        # the report's curve is the df command's default curve, finite at every X
        nl = write(tmp_path, "nl.json", nl_data)
        plant = write(tmp_path, "plant.json", {"num": [1], "den": [1, 1]})
        res = runner.invoke(main, ["df", nl])
        assert res.exit_code == 0
        rows = [tuple(map(float, l.split(","))) for l in res.stdout.splitlines()[1:]]
        res = runner.invoke(main, ["analyze", nl, plant])
        assert res.exit_code == 3
        df = json.loads(res.stdout)["df"]
        assert list(zip(df["X"], df["F"])) == rows
        assert all(math.isfinite(f) for f in df["F"])

    @pytest.mark.parametrize(
        "args, message",
        [
            (["df", "nl", "--grid", "1e-300", "1"], f"gives more than {MAX_POINTS} points"),
            (["df", "nl", "--grid", "1e-320", "1e300"], f"gives more than {MAX_POINTS} points"),
            (["nyquist", "plant", "--points", "-1"], "invalid point count -1"),
            (["nyquist", "plant", "--points", "0", "--out", "n.svg"], "invalid point count 0"),
            (["nyquist", "plant", "--omega-range", "1", "inf"], "invalid omega range (1.0, inf)"),
        ],
    )
    def test_sample_count_past_the_limit(self, runner, tmp_path, args, message):
        files = {
            "nl": write(tmp_path, "nl.json", NL_B),
            "plant": write(tmp_path, "plant.json", {**PLANT_A, "k": 2.5}),
            "n.svg": str(tmp_path / "n.svg"),
        }
        res = runner.invoke(main, [files.get(a, a) for a in args])
        assert_one_line_exit_2(res)
        assert message in res.stderr
        assert not (tmp_path / "n.svg").exists()

    def test_point_limit_is_inclusive(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "MAX_POINTS", 10)
        nl = write(tmp_path, "nl.json", NL_B)
        plant = write(tmp_path, "plant.json", {**PLANT_A, "k": 2.5})
        res = runner.invoke(main, ["df", nl, "--grid", "0.1", "0.9"])
        assert res.exit_code == 0 and len(res.stdout.splitlines()) == 1 + 10
        assert_one_line_exit_2(runner.invoke(main, ["df", nl, "--grid", "0.1", "1"]))
        res = runner.invoke(main, ["nyquist", plant, "--points", "10"])
        assert res.exit_code == 0 and len(res.stdout.splitlines()) == 1 + 10
        assert_one_line_exit_2(runner.invoke(main, ["nyquist", plant, "--points", "11"]))

    def test_integer_too_large_for_a_float(self, runner, tmp_path):
        plant = tmp_path / "plant.json"
        plant.write_text('{"num": [1], "den": [1, 1, 0], "k": 1' + "0" * 400 + "}")
        assert_one_line_exit_2(runner.invoke(main, ["nyquist", str(plant)]))


def either(*strategies):
    """One of ``strategies``, each as often (``one_of`` weighs by leaf branches)."""
    return st.sampled_from(strategies).flatmap(lambda s: s)


# Numbers of every size, and the JSON values that are not numbers.
SIZES = st.one_of(
    st.floats(1e-3, 1e3),
    st.sampled_from([1e-300, 1e-12, 1e12, 1e300, 1.7e308, 5e-324]),
    st.floats(0.0, 1.7e308),
)
FINITE = st.one_of(st.integers(-5, 5), SIZES, SIZES.map(lambda v: -v))
NUMBERS = either(
    FINITE,
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([10**400, -(10**400)]),  # too large for a float
)
VALUES = either(NUMBERS, st.text(max_size=3), st.booleans(), st.none())
ARRAYS = either(st.lists(VALUES, max_size=6), VALUES)
MODERATE = st.floats(0.01, 100.0)


@st.composite
def lag_plants(draw, sizes):
    """Up to two integrators, up to three lags and maybe a pole pair at +-j w on the axis."""
    poles = [0.0] * draw(st.integers(0, 2)) + [-v for v in draw(st.lists(sizes, max_size=3))]
    w = draw(st.lists(sizes, max_size=1))
    den = np.atleast_1d(np.poly(poles + [1j * v for v in w] + [-1j * v for v in w]).real)
    num = draw(st.sampled_from([[1.0], [-1.0, 2.0], [1.0, 1.0]]))
    return {"num": num, "den": den.tolist(), "k": draw(either(sizes, NUMBERS))}


@st.composite
def nonlinearities(draw, sizes):
    """Sorted breakpoints, each repeated (a jump) or not, with values of either sign."""
    x = sorted(draw(st.lists(sizes, min_size=1, max_size=4)))
    x = [v for v in x for _ in range(draw(st.integers(1, 2)))]
    y = draw(st.lists(either(sizes, sizes.map(lambda v: -v)), min_size=len(x), max_size=len(x)))
    nl = {"x": x, "y": y}
    if draw(st.booleans()):
        nl["final_slope"] = draw(FINITE)
    return nl


PLANTS = either(
    lag_plants(MODERATE),
    lag_plants(SIZES),
    st.fixed_dictionaries({"num": ARRAYS, "den": ARRAYS}, optional={"k": VALUES}),
    VALUES,
)
NONLINEARITIES = either(
    nonlinearities(MODERATE),
    nonlinearities(SIZES),
    st.fixed_dictionaries({"x": ARRAYS, "y": ARRAYS}, optional={"final_slope": VALUES}),
    VALUES,
)


@given(PLANTS, NONLINEARITIES)
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_random_descriptors_end_in_a_documented_exit(tmp_path, plant_data, nl_data):
    """df, nyquist and analyze end in 0, 2 or 3, with at most one stderr line."""
    runner = CliRunner()
    plant = write(tmp_path, "plant.json", plant_data)
    nl = write(tmp_path, "nl.json", nl_data)
    for args in (["df", nl], ["nyquist", plant, "--points", "64"], ["analyze", nl, plant]):
        res = runner.invoke(main, args)
        assert res.exit_code in (0, 2, 3), (args, res.exception, res.stderr)
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.stderr
        assert len(res.stderr.splitlines()) <= 1
