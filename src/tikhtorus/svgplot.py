"""Tiny self-contained SVG line plots.

Hand-rolled on purpose: the experiment outputs must regenerate byte for byte
from the same inputs, and the plots here are simple enough (axes, ticks,
polylines, text legend) that a plotting dependency would only add
nondeterminism. All output is inline SVG with no external references.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

import numpy as np

__all__ = ["Series", "line_plot"]

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf"]

_WIDTH, _HEIGHT = 760, 500
_MARGIN_LEFT, _MARGIN_RIGHT = 78, 24
_MARGIN_TOP, _MARGIN_BOTTOM = 46, 56


@dataclasses.dataclass(frozen=True)
class Series:
    label: str
    x: Sequence[float]
    y: Sequence[float]


def _fmt(value: float) -> str:
    return format(value, ".2f")


def _log10(values: np.ndarray, log: bool) -> np.ndarray:
    # math.log10 rather than np.log10, whose last bit may differ and move a
    # pixel; log axes carry few points
    return np.array([math.log10(v) for v in values.tolist()]) if log else values


def _tick_label(value: float, log: bool) -> str:
    if log:
        return f"1e{value:g}" if value != int(value) else f"1e{int(value)}"
    return format(value, "g")


def _ticks(low: float, high: float, log: bool) -> list:
    if log:
        first = math.ceil(low - 1e-9)
        last = math.floor(high + 1e-9)
        if last >= first:
            stride = max(1, (last - first) // 7 + (1 if (last - first) % 7 else 0))
            return [float(v) for v in range(first, last + 1, stride)]
    span = high - low
    if span <= 0:
        return [low]
    step = 10.0 ** math.floor(math.log10(span / 4))
    for multiplier in (1.0, 2.0, 5.0, 10.0):
        if span / (step * multiplier) <= 6:
            step *= multiplier
            break
    first = math.ceil(low / step)
    last = math.floor(high / step)
    return [round(v * step, 12) for v in range(first, last + 1)]


def line_plot(
    series: Sequence[Series],
    title: str,
    xlabel: str,
    ylabel: str,
    logx: bool = False,
    logy: bool = False,
) -> str:
    """Render series as an SVG document string.

    On a log axis the points at or below zero are dropped and the rest are
    plotted at their ``math.log10``."""
    transformed = []
    for item in series:
        xs = np.asarray(item.x, dtype=np.float64)
        ys = np.asarray(item.y, dtype=np.float64)
        if xs.shape != ys.shape:
            raise ValueError(f"series {item.label!r} has {xs.size} x and {ys.size} y values")
        if logx or logy:
            keep = ~((logx & (xs <= 0)) | (logy & (ys <= 0)))
            xs, ys = _log10(xs[keep], logx), _log10(ys[keep], logy)
        transformed.append((item.label, xs, ys))

    plotted = [(xs, ys) for _, xs, ys in transformed if xs.size]
    if not plotted:
        raise ValueError("nothing to plot")
    x_low = min(float(xs.min()) for xs, _ in plotted)
    x_high = max(float(xs.max()) for xs, _ in plotted)
    y_low = min(float(ys.min()) for _, ys in plotted)
    y_high = max(float(ys.max()) for _, ys in plotted)
    # 5% margins; degenerate ranges widen to a unit box
    if x_high == x_low:
        x_low, x_high = x_low - 0.5, x_high + 0.5
    if y_high == y_low:
        y_low, y_high = y_low - 0.5, y_high + 0.5
    x_pad = 0.05 * (x_high - x_low)
    y_pad = 0.05 * (y_high - y_low)
    x_low, x_high = x_low - x_pad, x_high + x_pad
    y_low, y_high = y_low - y_pad, y_high + y_pad

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def to_px(x, y) -> tuple:  # floats or arrays
        px = _MARGIN_LEFT + (x - x_low) / (x_high - x_low) * plot_w
        py = _MARGIN_TOP + (y_high - y) / (y_high - y_low) * plot_h
        return px, py

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH // 2}" y="24" font-family="monospace" font-size="15" '
        f'text-anchor="middle">{title}</text>',
    ]
    # axes frame
    x0, y0 = to_px(x_low, y_low)
    x1, y1 = to_px(x_high, y_high)
    parts.append(
        f'<rect x="{_fmt(x0)}" y="{_fmt(y1)}" width="{_fmt(x1 - x0)}" '
        f'height="{_fmt(y0 - y1)}" fill="none" stroke="black" stroke-width="1"/>'
    )
    for tick in _ticks(x_low, x_high, logx):
        if tick < x_low or tick > x_high:
            continue
        px, _ = to_px(tick, y_low)
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{_fmt(y0)}" x2="{_fmt(px)}" y2="{_fmt(y0 + 5)}" '
            'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(px)}" y="{_fmt(y0 + 19)}" font-family="monospace" '
            f'font-size="11" text-anchor="middle">{_tick_label(tick, logx)}</text>'
        )
    for tick in _ticks(y_low, y_high, logy):
        if tick < y_low or tick > y_high:
            continue
        _, py = to_px(x_low, tick)
        parts.append(
            f'<line x1="{_fmt(x0 - 5)}" y1="{_fmt(py)}" x2="{_fmt(x0)}" y2="{_fmt(py)}" '
            'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(x0 - 8)}" y="{_fmt(py + 4)}" font-family="monospace" '
            f'font-size="11" text-anchor="end">{_tick_label(tick, logy)}</text>'
        )
    parts.append(
        f'<text x="{_WIDTH // 2}" y="{_HEIGHT - 14}" font-family="monospace" '
        f'font-size="13" text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="20" y="{_HEIGHT // 2}" font-family="monospace" font-size="13" '
        f'text-anchor="middle" transform="rotate(-90 20 {_HEIGHT // 2})">{ylabel}</text>'
    )

    for index, (label, xs, ys) in enumerate(transformed):
        if not xs.size:
            continue
        color = _COLORS[index % len(_COLORS)]
        pxs, pys = to_px(xs, ys)
        coords = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in zip(pxs.tolist(), pys.tolist()))
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = _MARGIN_TOP + 16 + 16 * index
        lx = _WIDTH - _MARGIN_RIGHT - 150
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{ly}" font-family="monospace" font-size="12">{label}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
