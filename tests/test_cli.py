"""Command-line interface: formats, determinism, exit codes."""

from __future__ import annotations

import json
import math

import pytest
from click.testing import CliRunner

from dfcycle import LinearPlant, cycles, phase_crossovers
from dfcycle.cli import main

NL_A = {"x": [2, 7, 20, 20, 25], "y": [0, 4.5, 7.21, 4.21, 5.25]}
NL_B = {"x": [3, 6, 10, 19], "y": [3, 3, 10, 10]}
NL_FIG = {"x": [2, 5, 5, 9, 9, 13, 19], "y": [0, 4, 2, 4, 6, 6, 8]}
PLANT_A = {"num": [-1, 2], "den": [1, 1, 0]}
PLANT_B = {"num": [1], "den": [1, 4, 3, 0]}
PLANT_OSC = {"num": [1], "den": [1, 0, 1, 0]}  # poles at 0 and +-j
PLANT_FEEDTHROUGH = {"num": [0.01, 0, 0, 1], "den": [1, 2, 1, 0], "k": 5}  # D != 0
NL_SAT = {"x": [1], "y": [1], "final_slope": 0}
NL_STEEP = {"x": [1], "y": [1], "final_slope": 1e308}  # the integrand overflows
NL_SLOPE_OVERFLOW = {"x": [1e-300, 1], "y": [1e300, 1]}  # first slope is 1e600
PLANT_OVERFLOW = {"num": [1e300], "den": [1, 4, 3, 0], "k": 1e10}  # G(jw) overflows
PLANT_STATIC = {"num": [1], "den": [1]}  # G(jw) is real at every frequency
NL_TALL = {"x": [1e-300, 1e-300], "y": [0, 1e300]}  # F(X) overflows above the jump


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

    def test_bad_schema_exits_2(self, runner, tmp_path):
        nl = write(tmp_path, "nl.json", {"x": [2, 1], "y": [0, 1]})
        res = runner.invoke(main, ["df", nl])
        assert res.exit_code == 2

    def test_empty_grid_exits_2(self, runner, tmp_path):
        nl = write(tmp_path, "nl.json", NL_B)
        res = runner.invoke(main, ["df", nl, "--grid", "-1", "5"])
        assert res.exit_code == 2

    def test_oracle_failure_exits_2(self, runner, tmp_path):
        nl = write(tmp_path, "nl.json", NL_STEEP)
        res = runner.invoke(main, ["df", nl, "--grid", "1.5", "3", "--mode", "oracle"])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        [line] = res.stderr.splitlines()
        assert line.startswith(f"error: {nl}: quadrature gave a non-finite value")
        assert "X = 3.0" in line
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
        assert report["schema"] == 1
        assert report["omega"] == pytest.approx(math.sqrt(2.0), abs=1e-6)
        assert [c["stability"] for c in report["cycles"]] == ["unstable", "stable"]
        assert len(report["ellipse"]["x0"]) == 2

    def test_stable_origin_report(self, runner, tmp_path):
        nl = write(tmp_path, "nl.json", NL_B)
        plant = write(tmp_path, "plant.json", {**PLANT_B, "k": 5})
        res = runner.invoke(main, ["analyze", nl, plant])
        assert res.exit_code == 0
        report = json.loads(res.output)
        assert report["cycles"] == []
        assert any("stable" in note for note in report["notes"])

    def test_three_cycle_report(self, runner, tmp_path):
        nl = write(tmp_path, "nl.json", NL_B)
        plant = write(tmp_path, "plant.json", {**PLANT_B, "k": 15})
        report = json.loads(runner.invoke(main, ["analyze", nl, plant]).output)
        assert len(report["cycles"]) == 3

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
            ({**PLANT_B, "k": 5}, "1.003943799283937e-300"),
            (PLANT_STATIC, "1.0033333333333333e-300"),
        ],
    )
    def test_overflowing_describing_function_exits_2(self, runner, tmp_path, plant_desc, X):
        # with a crossover the F(X) = K scan refuses F, without one the report's curve
        nl = write(tmp_path, "nl.json", NL_TALL)
        plant = write(tmp_path, "plant.json", plant_desc)
        res = runner.invoke(main, ["analyze", nl, plant])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert res.stderr.splitlines() == [f"error: {nl}: F is not finite at X = {X}"]
        assert res.stdout == ""

    def test_bad_plant_exits_2(self, runner, tmp_path):
        nl = write(tmp_path, "nl.json", NL_B)
        plant = write(tmp_path, "plant.json", {"num": [1, 2, 3], "den": [1, 1]})
        assert runner.invoke(main, ["analyze", nl, plant]).exit_code == 2

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

    def test_ambiguous_stability_exits_2(self, runner, tmp_path, monkeypatch):
        def ambiguous(plant, nl, X, omega, **kwargs):
            raise cycles.AmbiguousStabilityError(X, omega, True, True)

        monkeypatch.setattr(cycles, "classify", ambiguous)
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
        assert "gain_margin=0.39999" in res.output

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
