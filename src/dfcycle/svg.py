"""Standalone SVG line plots for the CLI data products: no plotting library;
NumPy for the coordinate arithmetic.

Every number is written as ``%.6g`` formats it.  A polyline's points are
formatted in one array pass (``_polyline_points``) where all its screen
coordinates allow, else by ``%`` value by value.  The screen map of an axis
whose span overflows works on the values scaled by a power of two, so every
coordinate of a finite series stays finite.
"""

from __future__ import annotations

import math
import sys
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


# A screen coordinate v in [10, 1000) is n = rint(v 10^d), d = 4 decimals below
# 100 and 3 above, written as two words of four characters: n // 1000 gives
# "ddd." or, below 100, "dd.d" (_HEADS[n // 1000 + 1000]), and n % 1000 gives
# "ddd " (_TAILS), whose space is the separator.
_TAILS = np.frombuffer("".join(f"{k:03d} " for k in range(1000)).encode(), np.uint32)
_HEADS = np.frombuffer(
    "".join([f"{k:03d}." for k in range(1000)] + [f"{k // 10:02d}.{k % 10}" for k in range(1000)])
    .encode(), np.uint32
)


def _kept(d):
    """How many of the 7 characters of a 6-digit number with d decimals
    ``%.6g`` keeps, by fraction: trailing zeros and a bare point are stripped."""
    f = np.arange(10**d)
    zeros = sum(f % 10**i == 0 for i in range(1, d + 1))
    return 7 - zeros - (f == 0)


# by fraction: "ddd.fff" at entry fff, "dd.ffff" at 1000 + ffff
_KEPT = np.concatenate((_kept(3), _kept(4))).astype(np.uint8)
# row k keeps the first k characters and the separator
_MASKS = np.array([[c < k or c == 7 for c in range(8)] for k in range(8)])
_TIE = 0.5 - 1e-6  # |v 10^d - n| is below it away from a tie


def _polyline_points(xy):
    """``" ".join("%.6g,%.6g" % (x, y) ...)`` for an (n, 2) array, or None.

    Inside [10, 1000), ``%.6g`` is v correctly rounded to 4 decimals below
    100 and to 3 above, with trailing zeros and a bare point stripped.  There
    n = rint(v 10^d) is that rounding wherever v 10^d is not within 1e-6 of
    a tie, as the product's error is below 1.2e-10.  Returns None, and so
    leaves the whole series to ``%``, when a value lies below 10, rounds to
    10^6 (``%.6g`` writes "100" or "1000") or lies next to a tie.
    """
    v = xy.ravel()
    below_100 = v < 100.0
    scale = np.where(below_100, 10000, 1000)
    p = v * scale
    n = np.rint(p)
    if not ((v >= 10.0).all() and (n < 1e6).all() and (abs(p - n) < _TIE).all()):
        return None
    n = n.astype(np.intp)
    hi, lo = np.divmod(n, 1000)
    half = 1000 * below_100  # the 4-decimal entries of _HEADS and _KEPT
    chars = np.stack((_HEADS[hi + half], _TAILS[lo]), axis=1).view(np.uint8)
    chars[::2, 7] = ord(",")  # between x and y; a space between points
    keep = _MASKS[_KEPT[n % scale + half]]
    return chars[keep].tobytes()[:-1].decode()


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
    """The plot's range x0, x1, y0, y1 as Python floats, which overflow silently.

    The y range is padded by 4 % of its span on each side; where the span
    overflows, the pad is taken from the ends, and the padded ends stop at
    the largest float.
    """
    # the first extreme in series order, as list min/max pick between -0.0 and 0.0
    xs = np.concatenate([x for x, _ in coords])
    ys = np.concatenate([y for _, y in coords])
    x0, x1 = _widen(float(xs[xs.argmin()]), float(xs[xs.argmax()]))
    y0, y1 = _widen(float(ys[ys.argmin()]), float(ys[ys.argmax()]))
    pad = 0.04 * (y1 - y0)
    if pad == math.inf:
        pad = 0.04 * y1 - 0.04 * y0
    top = sys.float_info.max
    return x0, x1, max(y0 - pad, -top), min(y1 + pad, top)


def _unit(v0, v1, size):
    """The power of two c for which size (v c - v0 c) stays finite on [v0, v1].

    It is 1 wherever size (v1 - v0) is finite, so those coordinates keep
    their bits; else 2^-12, as v1 - v0 < 2^1025 and size < 2^10.
    """
    return 1.0 if math.isfinite(size * (v1 - v0)) else 2.0**-12


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
    cx, cy = _unit(x0, x1, pw), _unit(y0, y1, 1.0)
    x0c, x1c, y0c, y1c = x0 * cx, x1 * cx, y0 * cy, y1 * cy

    def sx(v):  # a float or an array
        return _MARGIN_L + pw * (v * cx - x0c) / (x1c - x0c)

    def sy(v):
        return _MARGIN_T + ph * (1.0 - (v * cy - y0c) / (y1c - y0c))

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
        xy = np.column_stack((sx(x), sy(y)))
        pts = _polyline_points(xy)
        if pts is None:  # the format of _fmt
            pts = " ".join(["%.6g,%.6g"] * len(x)) % tuple(xy.ravel().tolist())
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
