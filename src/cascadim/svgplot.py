"""Minimal self-contained SVG scatter plots for scaling fits.

Diagnostics only: the CSV files are the record.  No plotting dependency is
used so the experiment outputs stay reproducible byte for byte.
"""
from __future__ import annotations

import numpy as np

_W, _H, _PAD = 640, 440, 56


def _map(v, lo, hi, out_lo, out_hi):
    if hi == lo:
        return (out_lo + out_hi) / 2.0
    return out_lo + (v - lo) * (out_hi - out_lo) / (hi - lo)


def write_loglog_svg(path, xs, ys, slope: float, label: str, target_slope: float):
    """Scatter of (xs, ys) with the fitted line and the target line."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    span = max(y1 - y0, 1e-9)
    y0 -= 0.08 * span
    y1 += 0.08 * span
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W/2:.0f}" y="20" text-anchor="middle" font-size="13">{label}</text>',
        f'<line x1="{_PAD}" y1="{_H-_PAD}" x2="{_W-_PAD}" y2="{_H-_PAD}" stroke="black"/>',
        f'<line x1="{_PAD}" y1="{_PAD}" x2="{_PAD}" y2="{_H-_PAD}" stroke="black"/>',
    ]

    def px(v):
        return _map(v, x0, x1, _PAD, _W - _PAD)

    def py(v):
        return _map(v, y0, y1, _H - _PAD, _PAD)

    xbar, ybar = xs.mean(), ys.mean()
    for name, sl, color in (("fit", slope, "#d62728"), ("target", target_slope, "#1f77b4")):
        ya = ybar + sl * (x0 - xbar)
        yb = ybar + sl * (x1 - xbar)
        parts.append(
            f'<line x1="{px(x0):.2f}" y1="{py(ya):.2f}" x2="{px(x1):.2f}" '
            f'y2="{py(yb):.2f}" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{_W-_PAD:.0f}" y="{py(yb)-6:.2f}" text-anchor="end" '
            f'font-size="11" fill="{color}">{name} slope {sl:.4f}</text>'
        )
    for x, y in zip(xs, ys):
        parts.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" fill="black"/>')
    parts.append(
        f'<text x="{_W/2:.0f}" y="{_H-16}" text-anchor="middle" font-size="11">'
        "log(1/scale)</text>"
    )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
        fh.write("\n")
