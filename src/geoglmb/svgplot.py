"""Direct SVG emission of property-versus-depth profile plots.

Depth runs down the vertical axis (borehole convention); the property value
in percent runs along the horizontal axis.  Truth is a line, observations
are crosses, estimates are circles.
"""
from __future__ import annotations

import math
from pathlib import Path
from typing import Sequence

__all__ = ["profile_plot"]

WIDTH, HEIGHT = 420, 560
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 62, 18, 46, 46

TRUTH_STYLE = 'fill="none" stroke="#222222" stroke-width="1.6"'
OBS_STYLE = 'stroke="#e07b00" stroke-width="1.4"'
EST_STYLE = 'fill="none" stroke="#1f5fd0" stroke-width="1.4"'


def _axis_range(title: str, axis: str, values, share: float) -> tuple[float, float]:
    """The least and greatest of ``values``, each moved out by ``share`` of
    their span.  A span of 0, or one too narrow to tick (at most 1e-9 of the
    values' magnitude), counts as that magnitude, or 1 if the magnitude is
    less.  A range whose width is not a finite double raises ValueError
    naming the plot and the axis."""
    lo, hi = float(min(values)), float(max(values))
    magnitude = max(abs(lo), abs(hi))
    span = hi - lo if hi - lo > 1e-9 * magnitude else max(magnitude, 1.0)
    lo, hi = lo - share * span, hi + share * span
    if not math.isfinite(hi - lo):
        raise ValueError(f"plot {title!r}: the {axis} axis is wider than the largest double")
    return lo, hi


def _nice_ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    raw = (hi - lo) / max(n - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    return [i * step for i in range(math.ceil(lo / step), math.floor(hi / step + 1e-9) + 1)]


def profile_plot(
    title: str,
    truth: Sequence[tuple[float, float]],
    observations: Sequence[tuple[float, float]],
    estimates: Sequence[tuple[float, float]],
    target,
) -> None:
    """Write one profile figure to the path ``target``; each series is
    (depth m, value %) pairs, and ``title`` is plain text."""
    all_depths = [d for series in (truth, observations, estimates) for d, _ in series]
    all_values = [v for series in (truth, observations, estimates) for _, v in series]
    if not all_depths:
        all_depths, all_values = [0.0, 1.0], [0.0, 1.0]
    d_lo, d_hi = _axis_range(title, "depth", all_depths, 0.04)
    v_lo, v_hi = _axis_range(title, "value", all_values, 0.08)

    px_w = WIDTH - MARGIN_L - MARGIN_R
    px_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(value: float) -> float:
        return MARGIN_L + (value - v_lo) / (v_hi - v_lo) * px_w

    def sy(depth: float) -> float:
        return MARGIN_T + (depth - d_lo) / (d_hi - d_lo) * px_h

    title = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="11">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
    ]

    for tick in _nice_ticks(v_lo, v_hi):
        x = sx(tick)
        parts.append(
            f'<line x1="{x:.1f}" y1="{MARGIN_T}" x2="{x:.1f}" y2="{HEIGHT - MARGIN_B}" '
            'stroke="#dddddd" stroke-width="0.7"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{HEIGHT - MARGIN_B + 16}" text-anchor="middle">{tick:g}</text>'
        )
    for tick in _nice_ticks(d_lo, d_hi, 9):
        y = sy(tick)
        parts.append(
            f'<line x1="{MARGIN_L}" y1="{y:.1f}" x2="{WIDTH - MARGIN_R}" y2="{y:.1f}" '
            'stroke="#dddddd" stroke-width="0.7"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 6}" y="{y + 4:.1f}" text-anchor="end">{tick:g}</text>'
        )
    parts.append(
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{px_w}" height="{px_h}" '
        'fill="none" stroke="#444444" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{WIDTH / 2:.1f}" y="{HEIGHT - 10}" text-anchor="middle">value (%)</text>'
    )
    parts.append(
        f'<text x="14" y="{HEIGHT / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 14 {HEIGHT / 2:.1f})">depth (m)</text>'
    )

    if truth:
        pts = " ".join(f"{sx(v):.2f},{sy(d):.2f}" for d, v in truth)
        parts.append(f'<polyline points="{pts}" {TRUTH_STYLE}/>')
    for d, v in observations:
        x, y = sx(v), sy(d)
        parts.append(f'<line x1="{x - 3.2:.2f}" y1="{y - 3.2:.2f}" x2="{x + 3.2:.2f}" y2="{y + 3.2:.2f}" {OBS_STYLE}/>')
        parts.append(f'<line x1="{x - 3.2:.2f}" y1="{y + 3.2:.2f}" x2="{x + 3.2:.2f}" y2="{y - 3.2:.2f}" {OBS_STYLE}/>')
    for d, v in estimates:
        parts.append(f'<circle cx="{sx(v):.2f}" cy="{sy(d):.2f}" r="3.4" {EST_STYLE}/>')

    legend_y = MARGIN_T - 14
    parts.append(
        f'<line x1="{MARGIN_L}" y1="{legend_y}" x2="{MARGIN_L + 18}" y2="{legend_y}" {TRUTH_STYLE}/>'
        f'<text x="{MARGIN_L + 22}" y="{legend_y + 4}">truth</text>'
    )
    parts.append(
        f'<line x1="{MARGIN_L + 78}" y1="{legend_y - 3}" x2="{MARGIN_L + 84}" y2="{legend_y + 3}" {OBS_STYLE}/>'
        f'<line x1="{MARGIN_L + 78}" y1="{legend_y + 3}" x2="{MARGIN_L + 84}" y2="{legend_y - 3}" {OBS_STYLE}/>'
        f'<text x="{MARGIN_L + 90}" y="{legend_y + 4}">observations</text>'
    )
    parts.append(
        f'<circle cx="{MARGIN_L + 188}" cy="{legend_y}" r="3.4" {EST_STYLE}/>'
        f'<text x="{MARGIN_L + 196}" y="{legend_y + 4}">estimates</text>'
    )
    parts.append("</svg>")
    Path(target).write_text("\n".join(parts) + "\n", encoding="utf-8")
