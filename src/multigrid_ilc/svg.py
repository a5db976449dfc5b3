"""Deterministic SVG line charts.

Self-contained output with linear axes, tick labels, and a legend; byte
output depends only on the input data, so identical inputs produce
identical files.
"""

from __future__ import annotations

import html
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .engine import format_blocks
from .errors import ValidationError

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
           "#17becf", "#7f7f7f")

WIDTH, HEIGHT = 960, 540
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 72, 24, 40, 56
# points per C-level %-format of a polyline
_BLOCK = 4096


@dataclass(frozen=True)
class Series:
    label: str
    x: Sequence[float]
    y: Sequence[float]


def _fmt(value: float) -> str:
    out = f"{value:.6g}"
    return "0" if out == "-0" else out


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    raw = (hi - lo) / target
    # a span near the subnormal range has no representable decade: one tick
    mag = 10.0 ** math.floor(math.log10(raw)) if raw > 0.0 else 0.0
    if mag == 0.0:
        return [lo]
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    while value <= hi + 1e-12 * step:
        ticks.append(0.0 if abs(value) < 1e-12 * step else value)
        if value + step == value:  # the step is below the resolution of value
            break
        value += step
    return ticks


def render_line_chart(
    series: Sequence[Series],
    x_label: str,
    y_label: str,
    title: str | None = None,
) -> str:
    """Render series (lists or arrays) as polylines; raises
    :class:`ValidationError` on empty or non-finite data, or when the data's
    span overflows the float range."""
    if not series:
        raise ValidationError("no series to plot")
    data = []
    for s in series:
        x, y = np.asarray(s.x, dtype=float), np.asarray(s.y, dtype=float)
        if x.ndim != 1 or len(x) == 0 or x.shape != y.shape:
            raise ValidationError(f"series {s.label!r} is empty or ragged")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValidationError(f"series {s.label!r} contains non-finite values")
        data.append((x, y))
    x_lo = min(float(x.min()) for x, _ in data)
    x_hi = max(float(x.max()) for x, _ in data)
    y_lo = min(float(y.min()) for _, y in data)
    y_hi = max(float(y.max()) for _, y in data)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
        if x_hi == x_lo:  # 1.0 is below the resolution of x_lo
            x_hi = x_lo + abs(x_lo) * 0.1
    if y_hi == y_lo:
        pad = abs(y_lo) * 0.1 or 1.0
        y_lo, y_hi = y_lo - pad, y_hi + pad
    else:
        pad = 0.05 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - pad, y_hi + pad
    if not (math.isfinite(x_hi - x_lo) and math.isfinite(y_hi - y_lo)):
        raise ValidationError("the data's span overflows the float range")

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    # one coordinate or an array of them, in the same float operations
    def px(x):
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
    ]
    if title:
        parts.append(
            f'<text x="{WIDTH / 2:g}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16">{html.escape(title, quote=False)}</text>'
        )
    # axes frame
    parts.append(
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333333" stroke-width="1"/>'
    )
    for t in _nice_ticks(x_lo, x_hi):
        x = px(t)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{MARGIN_T + plot_h}" x2="{_fmt(x)}" '
            f'y2="{MARGIN_T + plot_h + 5}" stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{MARGIN_T + plot_h + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{_fmt(t)}</text>'
        )
    for t in _nice_ticks(y_lo, y_hi):
        y = py(t)
        parts.append(
            f'<line x1="{MARGIN_L - 5}" y1="{_fmt(y)}" x2="{MARGIN_L}" '
            f'y2="{_fmt(y)}" stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 8}" y="{_fmt(y + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{_fmt(t)}</text>'
        )
        parts.append(
            f'<line x1="{MARGIN_L}" y1="{_fmt(y)}" x2="{MARGIN_L + plot_w}" '
            f'y2="{_fmt(y)}" stroke="#eeeeee"/>'
        )
    parts.append(
        f'<text x="{MARGIN_L + plot_w / 2:g}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{html.escape(x_label, quote=False)}</text>'
    )
    parts.append(
        f'<text x="18" y="{MARGIN_T + plot_h / 2:g}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {MARGIN_T + plot_h / 2:g})">'
        f'{html.escape(y_label, quote=False)}</text>'
    )
    for i, (x, y) in enumerate(data):
        color = PALETTE[i % len(PALETTE)]
        parts.append(
            f'<polyline points="{_points(px(x), py(y))}" fill="none" stroke="{color}" '
            'stroke-width="1.5"/>'
        )
    # legend
    legend_x = MARGIN_L + 12
    legend_y = MARGIN_T + 14
    for i, s in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        y = legend_y + 18 * i
        parts.append(
            f'<line x1="{legend_x}" y1="{y - 4}" x2="{legend_x + 22}" y2="{y - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{legend_x + 28}" y="{y}" font-family="sans-serif" '
            f'font-size="12">{html.escape(s.label, quote=False)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _points(x: np.ndarray, y: np.ndarray) -> str:
    """The pairs ``x,y`` as :func:`_fmt` writes them, ``_BLOCK`` points per
    C-level %-format: every coordinate is at least a margin, so none is -0."""
    return " ".join(format_blocks("%.6g,%.6g", " ", (x, y), _BLOCK))


def write_svg(path, series: Sequence[Series], x_label: str, y_label: str,
              title: str | None = None) -> None:
    content = render_line_chart(series, x_label, y_label, title)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(content)
