"""The df command's array kernels against their earlier scalar and two-pass forms.

``svg.line_plot`` computes each series' screen coordinates as arrays and
formats a polyline in one operation (``dfcycle df`` writes its CSV rows the
same way), ``descfun._phi`` and ``_psi`` evaluate in place, and
``df_oracle`` integrates its quarter-period b1 panels and its full-period a1
panels in one pass, with ``_shift`` skipping its loop over the pieces below
the map's kept exponent bound.  Each rewrite keeps the arithmetic of the
form it replaced, so the references below, copies of those forms, must give
the same bits: ``==`` on every value, byte equality on every SVG and CSV
document, and the same ``QuadratureError`` message where the reference
raises one.
"""

from __future__ import annotations

import json
import math
import random

import numpy as np
import pytest
from click.testing import CliRunner

from dfcycle import NonlinearityError, PiecewiseNonlinearity, descfun, qualdf
from dfcycle.cli import main
from dfcycle.descfun import _NODES, _WEIGHTS, SYMMETRY_TOL, QuadratureError
from dfcycle.svg import HEIGHT, WIDTH, Series, line_plot

from conftest import random_nonlinearity

# -- references -------------------------------------------------------------

_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 16, 28, 44


def _fmt(v):
    return f"{v:.6g}"


def reference_line_plot(series, *, title, xlabel, ylabel):
    """One closure call and one ``_fmt`` call per coordinate, on plain lists."""
    xs = [v for s in series for v in s.x]
    ys = [v for s in series for v in s.y]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    pad = 0.04 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad
    pw = WIDTH - _MARGIN_L - _MARGIN_R
    ph = HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(v):
        return _MARGIN_L + pw * (v - x0) / (x1 - x0)

    def sy(v):
        return _MARGIN_T + ph * (1.0 - (v - y0) / (y1 - y0))

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<path d="M {_MARGIN_L} {_MARGIN_T} V {_MARGIN_T + ph} H {_MARGIN_L + pw}" '
        'fill="none" stroke="black" stroke-width="1"/>',
    ]
    if y0 < 0 < y1:
        out.append(
            f'<line x1="{_MARGIN_L}" y1="{_fmt(sy(0))}" x2="{_MARGIN_L + pw}" '
            f'y2="{_fmt(sy(0))}" stroke="#bbbbbb" stroke-width="0.7"/>'
        )
    font = 'font-family="sans-serif" font-size="12"'
    out += [
        f'<text x="{_MARGIN_L}" y="{_MARGIN_T + ph + 16}" {font}>{_fmt(x0)}</text>',
        f'<text x="{_MARGIN_L + pw}" y="{_MARGIN_T + ph + 16}" text-anchor="end" '
        f"{font}>{_fmt(x1)}</text>",
        f'<text x="{_MARGIN_L - 6}" y="{_MARGIN_T + ph}" text-anchor="end" {font}>'
        f"{_fmt(y0)}</text>",
        f'<text x="{_MARGIN_L - 6}" y="{_MARGIN_T + 10}" text-anchor="end" {font}>'
        f"{_fmt(y1)}</text>",
        f'<text x="{WIDTH // 2}" y="18" text-anchor="middle" {font}>{title}</text>',
        f'<text x="{_MARGIN_L + pw // 2}" y="{HEIGHT - 8}" text-anchor="middle" '
        f"{font}>{xlabel}</text>",
        f'<text x="14" y="{_MARGIN_T + ph // 2}" text-anchor="middle" {font} '
        f'transform="rotate(-90 14 {_MARGIN_T + ph // 2})">{ylabel}</text>',
    ]
    legend_y = _MARGIN_T + 14
    for s in series:
        pts = " ".join(f"{_fmt(sx(px))},{_fmt(sy(py))}" for px, py in zip(s.x, s.y))
        dash = f' stroke-dasharray="{s.dash}"' if s.dash else ""
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{s.color}" '
            f'stroke-width="1.5"{dash}/>'
        )
        for px, py in s.points:
            out.append(
                f'<circle cx="{_fmt(sx(px))}" cy="{_fmt(sy(py))}" r="3.5" '
                f'fill="{s.color}"/>'
            )
        lx = _MARGIN_L + pw - 150
        out.append(
            f'<line x1="{lx}" y1="{legend_y - 4}" x2="{lx + 26}" y2="{legend_y - 4}" '
            f'stroke="{s.color}" stroke-width="1.5"{dash}/>'
        )
        out.append(f'<text x="{lx + 32}" y="{legend_y}" {font}>{s.label}</text>')
        legend_y += 16
    out.append("</svg>")
    return "\n".join(out) + "\n"


def reference_phi(X, X1):
    u = X1 / X
    return 1.0 - (2.0 / math.pi) * (np.arcsin(u) + u * np.sqrt(1.0 - u * u))


def reference_psi(X1, X, Y):
    c = 2.0 ** max(0, -1000 - math.frexp(X[0])[1])
    u = X1 / X
    return (Y * c) * ((4.0 / (math.pi * (X * c))) * np.sqrt(1.0 - u * u))


def reference_df(nl, X):
    pos = X > 0
    F = np.full_like(X, nl.initial_slope)
    Xp = X[pos]
    acc = np.zeros_like(Xp)
    for x1, relay, magnitude in nl.terms:
        k = np.searchsorted(Xp, x1)
        if k == len(Xp):
            break
        tail = Xp[k:]
        acc[k:] += (reference_psi(x1, tail, magnitude) if relay
                    else magnitude * reference_phi(tail, x1))
    F[pos] += acc
    return F


def reference_integral(nl, X, shift, weight, splits, name):
    Xs = math.ldexp(X, shift)
    splits = np.array(splits)
    a, width = splits[:-1], np.diff(splits)
    x_mid = Xs * np.sin(a + 0.5 * width)
    lines = np.array(nl.lines)
    with np.errstate(over="ignore"):
        lines[:, :4] = np.ldexp(lines[:, :4], shift)
    _, _, x0, y0, m = lines[np.searchsorted(lines[:, 0], x_mid, side="right") - 1].T
    y_mid = y0 + m * (x_mid - x0)
    t = a[:, None] + width[:, None] * _NODES
    with np.errstate(all="ignore"):
        f = (y_mid[:, None] + m[:, None] * (Xs * np.sin(t) - x_mid[:, None])) * weight(t)
        total = float(width @ (f @ _WEIGHTS))
    if not math.isfinite(total):
        raise QuadratureError(
            f"quadrature gave a non-finite value in the {name} integral at X = {X}"
        )
    return total


def reference_shift(nl, X):
    """``descfun._shift`` with its loop over the pieces on every call."""
    up = -1000 - math.frexp(X)[1]
    if up > 0:
        return up
    xs, ys, slopes = nl.pieces
    top = max(
        max(math.frexp(y0)[1], math.frexp(m)[1] + math.frexp(X - x0)[1])
        for x0, y0, m in zip(xs, ys, slopes) if x0 <= X
    )
    return min(0, 1016 - top)


def reference_oracle(nl, X):
    """Two passes: the quarter-period b1 integral, then the full-period a1."""
    marks = sorted({xj for xj in nl.x if 0.0 < xj < X})
    thetas = [0.0] + [math.asin(xj / X) for xj in marks] + [math.pi / 2.0]
    shift = descfun._shift(nl, X)
    quarter = reference_integral(nl, X, shift, np.sin, thetas, "quarter-period b1")
    value = (4.0 / math.pi) * (quarter / math.ldexp(X, shift))
    full_marks = {-math.pi, -math.pi / 2.0, 0.0, math.pi / 2.0, math.pi}
    for xj in marks:
        t = math.asin(xj / X)
        full_marks.update((t, math.pi - t, -t, -math.pi + t))
    splits = sorted(full_marks)
    a1 = reference_integral(nl, X, shift, np.cos, splits, "full-period a1") / math.pi
    b1 = value * math.ldexp(X, shift)
    if abs(a1) > SYMMETRY_TOL * (math.ldexp(1.0, shift) + abs(b1)):
        raise QuadratureError(
            f"symmetry self-check failed: a1 = {a1:.3e} for b1 = {b1:.3e} "
            f"(y and X scaled by 2^{shift})"
        )
    return value


# -- inputs -----------------------------------------------------------------

# (x, y) scales by powers of two: subnormal breakpoints, amplitudes below
# 2^-1000 (the relay's scale-up), tiny and huge ordinates, steep and flat
# slopes, amplitudes near 2^1016 (pi X stays finite)
SCALES = [(0, 0), (-1060, -1060), (-1010, -1010), (-1010, 0), (0, 1000), (1010, 1010),
          (1010, 0), (0, -1000)]


def scaled(nl, ex, ey):
    return PiecewiseNonlinearity(
        x=tuple(math.ldexp(v, ex) for v in nl.x),
        y=tuple(math.ldexp(v, ey) for v in nl.y),
        final_slope=math.ldexp(nl.final_slope, ey - ex),
    )


def with_origin_jump(nl, h):
    """``nl`` shifted up by ``h`` past the origin: a jump of h at x = 0."""
    return PiecewiseNonlinearity(
        x=(0.0, 0.0, *nl.x), y=(0.0, h, *(v + h for v in nl.y)), final_slope=nl.final_slope
    )


def nonlinearities(seed, n):
    """Seeded random maps with relays, every fourth with a jump at the origin."""
    rng = random.Random(seed)
    out = []
    for i in range(n):
        nl = random_nonlinearity(rng, max_breakpoints=6, max_jumps=2)
        if i % 4 == 3:
            nl = with_origin_jump(nl, rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 2.0))
        out.append(nl)
    return out


def amplitudes(nl, rng):
    """An ascending grid from 0 (or above it) to 3 Xr, breakpoints included."""
    top = max(nl.max_breakpoint, 1.0)
    marks = [b for b in nl.breakpoints if b > 0]
    X = np.sort(np.concatenate([[rng.uniform(0.0, 3.0 * top) for _ in range(60)],
                                np.linspace(top / 1000.0, 3.0 * top, 40),
                                marks, np.nextafter(marks, math.inf)]))
    return X if nl.has_origin_jump else np.concatenate([[0.0], X])


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


def outcome(f, *args):
    try:
        return f(*args)
    except QuadratureError as exc:
        return str(exc)


# -- describing-function kernels ---------------------------------------------


@pytest.mark.parametrize("ex,ey", SCALES)
def test_factors_and_sums_keep_their_bits(ex, ey):
    rng = random.Random(20261018 + ex + 3 * ey)
    for nl in nonlinearities(ex - ey, 40):
        nl = scaled(nl, ex, ey)
        X = amplitudes(nl, rng)
        with np.errstate(all="ignore"):
            for x1, relay, magnitude in nl.terms:
                tail = X[np.searchsorted(X, x1):]
                tail = tail[tail > 0]
                if len(tail) == 0:
                    continue
                if relay:
                    assert_same_bits(descfun._psi(x1, tail, magnitude),
                                     reference_psi(x1, tail, magnitude))
                else:
                    assert_same_bits(descfun._phi(tail, x1), reference_phi(tail, x1))
            assert_same_bits(descfun._df(nl, X), reference_df(nl, X))
            new = qualdf._qualitative(nl, X)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(qualdf, "_psi", reference_psi)
                assert_same_bits(new, qualdf._qualitative(nl, X))


def test_case_study_grids_keep_their_bits(nl_a, nl_b):
    # the df command's default grid and the benchmark's dense grid
    for nl in (nl_a, nl_b, with_origin_jump(nl_b, 0.5)):
        top = nl.max_breakpoint
        for X in ((top / 100.0) * np.arange(1, 301), np.linspace(top / 1000.0, 3 * top, 20000)):
            assert_same_bits(descfun._df(nl, X), reference_df(nl, X))


# -- quadrature oracle -------------------------------------------------------


@pytest.mark.parametrize("ex,ey", SCALES)
def test_oracle_matches_the_two_pass_form(ex, ey):
    rng = random.Random(7 * ex + ey)
    for nl in nonlinearities(1000 + ex + ey, 24):
        top = max(nl.max_breakpoint, 1.0)
        xs = [rng.uniform(0.0, 3.0 * top) for _ in range(4)]
        xs += [b for b in nl.breakpoints if b > 0][:2] + [3.0 * top]
        nl = scaled(nl, ex, ey)
        for X in xs:
            X = math.ldexp(X, ex)
            if X > 0:
                assert outcome(descfun.df_oracle, nl, X) == outcome(reference_oracle, nl, X)


def test_oracle_at_the_float_limits():
    # the scale-down and scale-up shifts, and an X just above a breakpoint
    steep = PiecewiseNonlinearity(x=(1.0,), y=(1.0,), final_slope=1e308)
    tall = PiecewiseNonlinearity(x=(1.0,), y=(1.5e308,), final_slope=0.0)
    relay = PiecewiseNonlinearity(x=(5e307, 5e307), y=(0.0, 1e308))
    tiny = PiecewiseNonlinearity(x=(1e-310, 1e-310), y=(0.0, 1e-300))
    cases = [(steep, X) for X in (1.5, 2.25, 3.0)] + [(tall, 2.0)]
    cases += [(relay, X) for X in (6e307, 1.5e308)] + [(tiny, X) for X in (2e-310, 1e-305)]
    cases += [(steep, math.nextafter(1.0, 2.0))]
    for nl, X in cases:
        assert outcome(descfun.df_oracle, nl, X) == outcome(reference_oracle, nl, X)


def wide_nonlinearity(rng):
    """A map with breakpoints from subnormals up, and ordinates and slopes up
    to 1e308, or None where a slope overflows."""
    ex, ey = rng.randint(-1074, 1020), rng.randint(-1074, 1023)
    x = sorted(math.ldexp(rng.uniform(0.5, 8.0), ex + rng.randint(-30, 0))
               for _ in range(rng.randint(1, 5)))
    y = [rng.choice((-1.0, 1.0)) * math.ldexp(rng.random(), ey + rng.randint(-30, 0))
         for _ in x]
    slope = rng.choice((-1.0, 1.0)) * math.ldexp(rng.random(), rng.randint(-1074, 1023))
    try:
        return PiecewiseNonlinearity(tuple(x), tuple(y), rng.choice((None, slope)))
    except NonlinearityError:
        return None


def test_shift_bound_keeps_the_per_piece_shift():
    # the kept bound max(top_y, top_m + max(e(X), 0)) skips the loop only
    # where the loop gives 0; X from the least subnormal to 1e308
    rng = random.Random(20261019)
    maps = shifted = skipped = 0
    while maps < 5000:
        nl = wide_nonlinearity(rng)
        if nl is None:
            continue
        maps += 1
        _, top_y, top_m = nl._oracle_table
        xs = [math.ldexp(rng.random(), rng.randint(-1074, 1024)) for _ in range(4)]
        b = rng.choice(nl.x)
        xs += [b, math.nextafter(b, math.inf)]
        xs += [5e-324, 1e308, math.ldexp(1.0, -1000), math.ldexp(1.0, -1001)]
        for X in xs:
            if not X > 0:
                continue
            want = reference_shift(nl, X)
            assert descfun._shift(nl, X) == want, (nl, X)
            shifted += want < 0
            skipped += max(top_y, top_m + max(math.frexp(X)[1], 0)) <= 1016
    assert shifted >= 2000 and skipped >= 10000, (shifted, skipped)


def test_quarter_integral_error_comes_first(monkeypatch):
    # unscaled, y(3 sin t) overflows: the quarter-period sine integral is inf
    # and the full-period cosine integral NaN; the b1 message wins
    steep = PiecewiseNonlinearity(x=(1.0,), y=(1.0,), final_slope=1e308)
    monkeypatch.setattr(descfun, "_shift", lambda nl, X: 0)
    message = "quadrature gave a non-finite value in the quarter-period b1 integral at X = 3.0"
    assert outcome(reference_oracle, steep, 3.0) == message
    with pytest.raises(QuadratureError) as info:
        descfun.df_oracle(steep, 3.0)
    assert str(info.value) == message


# -- SVG ---------------------------------------------------------------------


def random_series(rng, i):
    n = rng.choice((0, 1, 2, 7, 50, 301))
    scale = rng.choice((1.0, 1e-300, 1e300, 1e5))
    if n == 1 or rng.random() < 0.2:  # constant x: x0 + 1 > x0 needs |x0| < 2^53
        x = [rng.uniform(-1, 1) * min(scale, 1e5)] * n
        y = [rng.choice((0.0, -0.0, 2.5))] * n
    else:
        x = sorted(rng.uniform(-1, 1) * scale for _ in range(n))
        y = [rng.choice((0.0, -0.0, rng.gauss(0, 1) * scale)) for _ in range(n)]
    points = [(v, 0.0) for v in rng.sample(x, min(n, rng.randint(0, 2)))]
    return Series(x, y, label=f"s{i}", color="#2040c0", dash=rng.choice((None, "6,4")),
                  points=points)


def forms(s):
    """The same series as Python floats, as NumPy scalars and as arrays."""
    as_scalars = [np.float64(v) for v in s.x], [np.float64(v) for v in s.y]
    return [s, Series(*as_scalars, s.label, s.color, s.dash, s.points),
            Series(np.array(s.x, dtype=float), np.array(s.y, dtype=float),
                   s.label, s.color, s.dash, s.points)]


def test_line_plot_matches_the_per_point_form():
    rng = random.Random(20261018)
    for _ in range(300):
        series = [random_series(rng, i) for i in range(rng.randint(1, 3))]
        if not any(s.x for s in series):
            continue
        kwargs = dict(title="t", xlabel="x", ylabel="y")
        expected = reference_line_plot([forms(s)[1] for s in series], **kwargs)
        for k in range(3):
            assert line_plot([forms(s)[k] for s in series], **kwargs) == expected


def test_first_extreme_keeps_its_zero_sign():
    # list min and max keep the first of -0.0 and 0.0; so must the bounds
    for x in ([0.0, -0.0, 1.0], [-0.0, 0.0, 1.0], [-1.0, 0.0, -0.0], [-1.0, -0.0, 0.0]):
        s = Series(x, [1.0, -0.0, 0.0], label="z")
        doc = line_plot([s], title="t", xlabel="x", ylabel="y")
        assert doc == reference_line_plot([s], title="t", xlabel="x", ylabel="y")


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _rows(text):
    return [line.split(",") for line in text.splitlines()[1:] if not line.startswith("#")]


@pytest.mark.parametrize("mode", ["exact", "qualitative", "both", "oracle"])
@pytest.mark.parametrize("nl_data", [
    {"x": [2, 7, 20, 20, 25], "y": [0, 4.5, 7.21, 4.21, 5.25]},
    {"x": [0, 0, 2, 2], "y": [0, 1, 1.5, 0.5]},
])
def test_df_svg_bytes(tmp_path, mode, nl_data):
    """``dfcycle df --out f.svg`` is the old plot of the curves the CSV prints."""
    runner = CliRunner()
    nl = _write(tmp_path, "nl.json", nl_data)
    svg_path = tmp_path / "f.svg"
    csv = runner.invoke(main, ["df", nl, "--mode", mode])
    res = runner.invoke(main, ["df", nl, "--mode", mode, "--out", str(svg_path)])
    assert csv.exit_code == 0 and res.exit_code == 0
    curves = {}
    for row in _rows(csv.output):
        X, F = curves.setdefault(row[2] if len(row) == 3 else mode, ([], []))
        X.append(np.float64(row[0]))
        F.append(np.float64(row[1]))
    series = [Series(X, F, label=name,
                     color="#c02020" if name == "exact" else "#208040",
                     dash=None if name == "exact" else "6,4")
              for name, (X, F) in curves.items()]
    expected = reference_line_plot(series, title="describing function", xlabel="X", ylabel="F")
    assert svg_path.read_text() == expected


@pytest.mark.parametrize("mode", ["exact", "qualitative", "both", "oracle"])
@pytest.mark.parametrize("nl_data", [
    {"x": [2, 7, 20, 20, 25], "y": [0, 4.5, 7.21, 4.21, 5.25]},
    {"x": [0, 0, 2, 2], "y": [0, 1, 1.5, 0.5]},
    {"x": [5e307, 5e307], "y": [0, 1e308]},
])
def test_df_csv_bytes(tmp_path, mode, nl_data):
    """The CSV rows, formatted a curve at a time, are the per-value ``_num`` rows."""
    nl = _write(tmp_path, "nl.json", nl_data)
    grid = ["--grid", "1e307", "1.5e308"] if nl_data["x"][0] == 5e307 else []
    res = CliRunner().invoke(main, ["df", nl, "--mode", mode, *grid])
    assert res.exit_code == 0
    header, *rows = res.output.splitlines()
    expected = [header]
    for row in _rows(res.output):
        x, f = float(row[0]), float(row[1])
        expected.append(f"{x:.17g},{f:.17g}" + ("," + row[2] if len(row) == 3 else ""))
    assert len(rows) > 10 and res.output == "\n".join(expected) + "\n"


@pytest.mark.parametrize("plant_data,extra", [
    ({"num": [1], "den": [1, 4, 3, 0], "k": 15}, ["--mark-neg-axis"]),
    ({"num": [-1, 2], "den": [1, 1, 0]}, ["--points", "300", "--mark-neg-axis"]),
    ({"num": [1], "den": [1, 2, 1]}, ["--omega-range", "0.01", "100"]),
])
def test_nyquist_svg_bytes(tmp_path, plant_data, extra):
    """``dfcycle nyquist --out n.svg`` is the old plot of the CSV's curve."""
    runner = CliRunner()
    plant = _write(tmp_path, "plant.json", plant_data)
    svg_path = tmp_path / "n.svg"
    csv = runner.invoke(main, ["nyquist", plant, *extra])
    res = runner.invoke(main, ["nyquist", plant, *extra, "--out", str(svg_path)])
    assert csv.exit_code == 0 and res.exit_code == 0
    rows = _rows(csv.output)
    marks = [line.split("gain_margin=")[1] for line in csv.output.splitlines()
             if line.startswith("# crossover")]
    series = [Series([np.float64(r[1]) for r in rows], [np.float64(r[2]) for r in rows],
                     label="G(jw)", color="#2040c0",
                     points=[(-1.0 / float(km), 0.0) for km in marks])]
    expected = reference_line_plot(series, title="Nyquist", xlabel="Re", ylabel="Im")
    assert svg_path.read_text() == expected
