"""Standalone SVG line plots for the CLI data products: no plotting library;
NumPy for the coordinate arithmetic."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

WIDTH = 720
HEIGHT = 480
_MARGIN_L = 64
_MARGIN_R = 16
_MARGIN_T = 28
_MARGIN_B = 44


@dataclass(frozen=True)
class Series:
    x: np.typing.ArrayLike  # 1-D and finite, as long as y
    y: np.typing.ArrayLike
    label: str
    color: str = "#c02020"
    dash: str | None = None  # e.g. "6,4"
    points: list = field(default_factory=list)


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _widen(v0, v1):
    """The range [v0, v1], or a constant one v widened to [v, v + 1].

    Where v + 1 rounds back to v (|v| >= 2^53), the range is 2^-50 |v| wide
    and reaches from v toward zero instead, so that it and the 4 % pad of the
    y range stay finite up to the largest float.
    """
    if v1 != v0:
        return v0, v1
    if v0 + 1.0 != v0:
        return v0, v0 + 1.0
    width = abs(v0) * 2.0**-50
    return (v0 - width, v0) if v0 > 0 else (v0, v0 + width)


def _bounds(coords):
    # the first extreme in series order, as list min/max pick between -0.0 and 0.0
    xs = np.concatenate([x for x, _ in coords])
    ys = np.concatenate([y for _, y in coords])
    x0, x1 = _widen(xs[xs.argmin()], xs[xs.argmax()])
    y0, y1 = _widen(ys[ys.argmin()], ys[ys.argmax()])
    pad = 0.04 * (y1 - y0)
    return x0, x1, y0 - pad, y1 + pad


def line_plot(
    series: list[Series],
    *,
    title: str,
    xlabel: str,
    ylabel: str,
) -> str:
    """Render polyline series on a WIDTH x HEIGHT canvas with axes, labels and legend."""
    coords = [(np.asarray(s.x, dtype=float), np.asarray(s.y, dtype=float)) for s in series]
    for s, (x, y) in zip(series, coords):
        if len(x) != len(y):
            raise ValueError(f"series {s.label!r}: {len(x)} x values but {len(y)} y values")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError(f"series {s.label!r} holds a non-finite value")
    if not any(len(x) for x, _ in coords):
        raise ValueError("nothing to plot")
    x0, x1, y0, y1 = _bounds(coords)
    pw = WIDTH - _MARGIN_L - _MARGIN_R
    ph = HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(v):  # a float or an array
        return _MARGIN_L + pw * (v - x0) / (x1 - x0)

    def sy(v):
        return _MARGIN_T + ph * (1.0 - (v - y0) / (y1 - y0))

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    ax = (
        f'<path d="M {_MARGIN_L} {_MARGIN_T} V {_MARGIN_T + ph} H {_MARGIN_L + pw}" '
        'fill="none" stroke="black" stroke-width="1"/>'
    )
    out.append(ax)
    if y0 < 0 < y1:  # zero line helps read sign changes
        out.append(
            f'<line x1="{_MARGIN_L}" y1="{_fmt(sy(0))}" x2="{_MARGIN_L + pw}" '
            f'y2="{_fmt(sy(0))}" stroke="#bbbbbb" stroke-width="0.7"/>'
        )
    font = 'font-family="sans-serif" font-size="12"'
    out += [  # min/max ticks, title, axis labels
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
    for s, (x, y) in zip(series, coords):
        xy = np.column_stack((sx(x), sy(y))).ravel().tolist()
        pts = " ".join(["%.6g,%.6g"] * len(x)) % tuple(xy)  # the format of _fmt
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
