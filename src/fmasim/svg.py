"""Minimal SVG plot writer for simulation traces.

No plotting dependency is worth dragging in for line charts of a few
columns, and the output here is a single self-contained file with no
scripts or external references, safe to drop into a report.
"""
from __future__ import annotations

import math
from pathlib import Path

_PALETTE = ("#1965b0", "#dc050c", "#4eb265", "#f7a600", "#882e72", "#777777")
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 16, 34, 46


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    """Round tick positions covering [lo, hi]."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("axis limits must be finite")
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / max(target - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if raw <= step:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(v) < 1e-12 * step else v)
        v += step
    return ticks


def _escape(text: str) -> str:
    """XML character data, as xml.sax.saxutils.escape, which imports urllib.request."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(v: float) -> str:
    text = f"{v:.6g}"
    return text


def line_plot(
    series,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    width: int = 720,
    height: int = 460,
) -> str:
    """Render series to SVG text.

    Each series is (label, x, y) or (label, x, y, style) with style
    "line" (default) or "dot" for a scatter.
    """
    if not series:
        raise ValueError("need at least one series")
    xs = [float(v) for _, x, *_rest in series for v in x]
    ys = [float(v) for _, _, y, *_rest in series for v in y]
    if not xs:
        raise ValueError("series are empty")
    x_ticks = _nice_ticks(min(xs), max(xs))
    y_ticks = _nice_ticks(min(ys), max(ys))
    x0, x1 = min(x_ticks[0], min(xs)), max(x_ticks[-1], max(xs))
    y0, y1 = min(y_ticks[0], min(ys)), max(y_ticks[-1], max(ys))
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    pw = width - _MARGIN_L - _MARGIN_R
    ph = height - _MARGIN_T - _MARGIN_B

    def px(x: float) -> float:
        return _MARGIN_L + (x - x0) / (x1 - x0) * pw

    def py(y: float) -> float:
        return _MARGIN_T + ph - (y - y0) / (y1 - y0) * ph

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for tx in x_ticks:
        out.append(
            f'<line x1="{px(tx):.1f}" y1="{_MARGIN_T}" x2="{px(tx):.1f}" '
            f'y2="{_MARGIN_T + ph}" stroke="#e0e0e0"/>'
        )
        out.append(
            f'<text x="{px(tx):.1f}" y="{_MARGIN_T + ph + 16}" '
            f'text-anchor="middle">{_fmt(tx)}</text>'
        )
    for ty in y_ticks:
        out.append(
            f'<line x1="{_MARGIN_L}" y1="{py(ty):.1f}" x2="{_MARGIN_L + pw}" '
            f'y2="{py(ty):.1f}" stroke="#e0e0e0"/>'
        )
        out.append(
            f'<text x="{_MARGIN_L - 6}" y="{py(ty) + 4:.1f}" '
            f'text-anchor="end">{_fmt(ty)}</text>'
        )
    out.append(
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{pw}" height="{ph}" '
        f'fill="none" stroke="#444"/>'
    )
    if title:
        out.append(
            f'<text x="{width / 2:.0f}" y="20" text-anchor="middle" '
            f'font-size="14" font-weight="bold">{_escape(title)}</text>'
        )
    if xlabel:
        out.append(
            f'<text x="{_MARGIN_L + pw / 2:.0f}" y="{height - 10}" '
            f'text-anchor="middle">{_escape(xlabel)}</text>'
        )
    if ylabel:
        out.append(
            f'<text x="16" y="{_MARGIN_T + ph / 2:.0f}" text-anchor="middle" '
            f'transform="rotate(-90 16 {_MARGIN_T + ph / 2:.0f})">{_escape(ylabel)}</text>'
        )

    for i, entry in enumerate(series):
        label, x, y = entry[0], entry[1], entry[2]
        style = entry[3] if len(entry) > 3 else "line"
        color = _PALETTE[i % len(_PALETTE)]
        if style == "dot":
            for xv, yv in zip(x, y):
                out.append(f'<circle cx="{px(xv):.1f}" cy="{py(yv):.1f}" r="3" fill="{color}"/>')
        else:
            pts = " ".join(f"{px(xv):.1f},{py(yv):.1f}" for xv, yv in zip(x, y))
            out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = _MARGIN_T + 14 + 16 * i
        out.append(
            f'<line x1="{_MARGIN_L + pw - 110}" y1="{ly - 4}" x2="{_MARGIN_L + pw - 86}" '
            f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>'
        )
        out.append(f'<text x="{_MARGIN_L + pw - 80}" y="{ly}">{_escape(label)}</text>')
    out.append("</svg>")
    return "\n".join(out)


def write_plot(path, series, **kwargs) -> None:
    Path(path).write_text(line_plot(series, **kwargs))
