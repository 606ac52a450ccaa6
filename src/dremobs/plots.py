"""Minimal SVG line plots rendered straight from a trace.

No plotting dependency: each panel is a fixed-size SVG with axes, tick
labels, a legend, and one polyline per series.  Rendering is a pure function
of the trace contents, so re-plotting a saved trace reproduces identical
bytes.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

WIDTH = 860
HEIGHT = 440
MARGIN_L = 72
MARGIN_R = 18
MARGIN_T = 42
MARGIN_B = 52
MAX_POINTS = 4000

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")


def _downsample(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if x.size <= MAX_POINTS:
        return x, y
    stride = int(math.ceil(x.size / MAX_POINTS))
    xs, ys = x[::stride], y[::stride]
    if xs[-1] != x[-1]:
        xs = np.append(xs, x[-1])
        ys = np.append(ys, y[-1])
    return xs, ys


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi == lo:
        return [lo]
    return [lo + (hi - lo) * k / (count - 1) for k in range(count)]


def _fmt(v: float) -> str:
    return "%.6g" % v


def _points(px, py, xs: np.ndarray, ys: np.ndarray) -> str:
    """SVG polyline points "x,y x,y ..." of the data (xs, ys) mapped to
    pixels by ``px`` and ``py``, at two decimals.  The maps run on whole
    arrays and one ``%`` formats the line."""
    pairs = np.empty(2 * xs.size)
    pairs[0::2] = px(xs)
    pairs[1::2] = py(ys)
    return " ".join(["%.2f,%.2f"] * xs.size) % tuple(pairs.tolist())


def render_line_plot(path, title: str, x: np.ndarray, series: list[tuple[str, np.ndarray]]) -> None:
    """Write one SVG panel: the named series against the common abscissa."""
    x = np.asarray(x, dtype=float)
    xlo, xhi = float(x.min()), float(x.max())
    ylo = min(float(np.min(y)) for _, y in series)
    yhi = max(float(np.max(y)) for _, y in series)
    if xhi == xlo:
        xlo, xhi = xlo - 1.0, xhi + 1.0
    if yhi == ylo:
        ylo, yhi = ylo - 1.0, yhi + 1.0
    pad = 0.05 * (yhi - ylo)
    ylo -= pad
    yhi += pad
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(v):
        return MARGIN_L + (v - xlo) / (xhi - xlo) * plot_w

    def py(v):
        return MARGIN_T + (yhi - v) / (yhi - ylo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#444444" stroke-width="1"/>',
    ]
    for tick in _ticks(xlo, xhi):
        tx = px(tick)
        parts.append(
            f'<line x1="{tx:.2f}" y1="{MARGIN_T + plot_h}" x2="{tx:.2f}" '
            f'y2="{MARGIN_T + plot_h + 5}" stroke="#444444"/>'
        )
        parts.append(
            f'<text x="{tx:.2f}" y="{MARGIN_T + plot_h + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(tick)}</text>'
        )
    for tick in _ticks(ylo, yhi):
        ty = py(tick)
        parts.append(
            f'<line x1="{MARGIN_L - 5}" y1="{ty:.2f}" x2="{MARGIN_L}" y2="{ty:.2f}" '
            f'stroke="#444444"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 8}" y="{ty + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(tick)}</text>'
        )
    parts.append(
        f'<text x="{MARGIN_L + plot_w / 2:.1f}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">t [s]</text>'
    )
    for k, (label, y) in enumerate(series):
        color = PALETTE[k % len(PALETTE)]
        xs, ys = _downsample(x, np.asarray(y, dtype=float))
        points = _points(px, py, xs, ys)
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.3" points="{points}"/>'
        )
        lx = MARGIN_L + plot_w - 150
        ly = MARGIN_T + 16 + 16 * k
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" font-size="11">{label}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="ascii")


def _staircase(times: np.ndarray, values: np.ndarray, switch_times: list[float]):
    """Compact step-plot points for a piecewise-constant signal."""
    t = [times[0]]
    v = [values[0]]
    idx = np.searchsorted(times, np.asarray(switch_times))
    for row in idx:
        if row <= 0 or row >= times.size:
            continue
        t.extend([times[row], times[row]])
        v.extend([values[row - 1], values[row]])
    t.append(times[-1])
    v.append(values[-1])
    return np.asarray(t), np.asarray(v)


def render_trace_plots(trace, out_dir) -> list[Path]:
    """All panels for one trace; returns the written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    t = trace.t
    s = trace.num_subsystems

    mode_path = out / "mode.svg"
    st, sv = _staircase(t, trace.sigma.astype(float), trace.switch_times)
    render_line_plot(mode_path, "Active subsystem", st, [("sigma", sv)])
    written.append(mode_path)

    exc_path = out / "excitation.svg"
    render_line_plot(
        exc_path,
        "Gated excitation integrals",
        t,
        [(f"subsystem {i + 1}", trace.excitation[:, i]) for i in range(s)],
    )
    written.append(exc_path)

    theta_path = out / "theta_error.svg"
    render_line_plot(
        theta_path,
        "Parameter estimation error norms",
        t,
        [(f"subsystem {i + 1}", trace.theta_error[:, i]) for i in range(s)],
    )
    written.append(theta_path)

    for comp in range(trace.n):
        p = out / f"state{comp + 1}.svg"
        render_line_plot(
            p,
            f"State component {comp + 1}: true vs estimate",
            t,
            [
                (f"x{comp + 1}", trace.x[:, comp]),
                (f"xhat{comp + 1}", trace.xhat[:, comp]),
            ],
        )
        written.append(p)

    xerr_path = out / "x_error.svg"
    render_line_plot(xerr_path, "State estimation error norm", t, [("|x_err|", trace.x_error)])
    written.append(xerr_path)
    return written
