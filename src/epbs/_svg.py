"""Minimal static SVG renderings (polylines and heatmaps), no external assets.

Deliberately tiny: enough to eyeball a sweep or a heatmap next to the CSV
data without pulling in a plotting stack.  Output is a pure function of the
data (no timestamps, no randomness), so files are byte-reproducible.
"""

from __future__ import annotations

import numpy as np

_WIDTH = 640
_HEIGHT = 420
_MARGIN = 54
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
           "#e377c2", "#7f7f7f", "#bcbd22", "#17becf", "#aec7e8")


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi == lo:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def _axes(x_lo, x_hi, y_lo, y_hi, x_label, y_label) -> list[str]:
    w, h, m = _WIDTH, _HEIGHT, _MARGIN
    parts = [
        f'<rect x="0" y="0" width="{w}" height="{h}" fill="white"/>',
        f'<rect x="{m}" y="{m}" width="{w - 2 * m}" height="{h - 2 * m}" '
        'fill="none" stroke="black" stroke-width="1"/>',
    ]
    for t in _ticks(x_lo, x_hi):
        px = m + (t - x_lo) / (x_hi - x_lo or 1.0) * (w - 2 * m)
        parts.append(
            f'<text x="{_fmt(px)}" y="{h - m + 18}" font-size="11" '
            f'text-anchor="middle" font-family="monospace">{t:.4g}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        py = h - m - (t - y_lo) / (y_hi - y_lo or 1.0) * (h - 2 * m)
        parts.append(
            f'<text x="{m - 6}" y="{_fmt(py + 4)}" font-size="11" '
            f'text-anchor="end" font-family="monospace">{t:.4g}</text>'
        )
    parts.append(
        f'<text x="{w / 2}" y="{h - 10}" font-size="13" text-anchor="middle" '
        f'font-family="monospace">{x_label}</text>'
    )
    parts.append(
        f'<text x="16" y="{h / 2}" font-size="13" text-anchor="middle" '
        f'font-family="monospace" transform="rotate(-90 16 {h / 2})">{y_label}</text>'
    )
    return parts


def line_plot(series, x_label: str = "", y_label: str = "") -> str:
    """Render one polyline per (xs, ys) pair on shared axes."""
    xs_all = np.concatenate([np.asarray(xs, float) for xs, _ in series])
    ys_all = np.concatenate([np.asarray(ys, float) for _, ys in series])
    finite = np.isfinite(ys_all)
    x_lo, x_hi = float(xs_all.min()), float(xs_all.max())
    y_lo = float(ys_all[finite].min()) if finite.any() else 0.0
    y_hi = float(ys_all[finite].max()) if finite.any() else 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    w, h, m = _WIDTH, _HEIGHT, _MARGIN

    parts = _axes(x_lo, x_hi, y_lo, y_hi, x_label, y_label)
    for idx, (xs, ys) in enumerate(series):
        ys = np.asarray(ys, float)
        keep = np.isfinite(ys)
        px = m + (np.asarray(xs, float)[keep] - x_lo) / (x_hi - x_lo or 1.0) * (w - 2 * m)
        py = h - m - (ys[keep] - y_lo) / (y_hi - y_lo) * (h - 2 * m)
        pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in zip(px.tolist(), py.tolist()))
        color = _COLORS[idx % len(_COLORS)]
        parts.append(
            f'<polyline points="{pts}" fill="none" '
            f'stroke="{color}" stroke-width="1.4"/>'
        )
    body = "\n".join(parts)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">\n{body}\n</svg>\n'
    )


def _shade(v: float) -> str:
    """Map 0..1 to a white -> blue -> dark gradient."""
    v = min(max(v, 0.0), 1.0)
    r = int(round(255 * (1.0 - v) ** 1.5))
    g = int(round(255 * (1.0 - 0.85 * v)))
    b = int(round(255 * (1.0 - 0.45 * v)))
    return f"#{r:02x}{g:02x}{b:02x}"


def heatmap(values, x_lo: float, x_hi: float, x_label: str = "", y_label: str = "") -> str:
    """Render a (rows=y, cols=x) matrix as colored cells; y is the row index."""
    vals = np.asarray(values, dtype=float)
    n_y, n_x = vals.shape
    v_max = float(vals.max()) or 1.0
    w, h, m = _WIDTH, _HEIGHT, _MARGIN
    parts = _axes(x_lo, x_hi, -0.5, n_y - 0.5, x_label, y_label)
    cell_w = (w - 2 * m) / n_x
    cell_h = (h - 2 * m) / n_y
    xs = [_fmt(m + ix * cell_w) for ix in range(n_x)]
    size = f'width="{_fmt(cell_w + 0.35)}" height="{_fmt(cell_h + 0.35)}"'
    # Python floats: np.power on the array differs from ** in the last bit
    for iy, row in enumerate((vals / v_max).tolist()):
        y = _fmt(h - m - (iy + 1) * cell_h)
        parts += [f'<rect x="{x}" y="{y}" {size} fill="{_shade(v)}"/>' for x, v in zip(xs, row)]
    body = "\n".join(parts)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">\n{body}\n</svg>\n'
    )
