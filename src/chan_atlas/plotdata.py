"""Boundary plot data.  The CSV is the artifact of record; the SVG rendering
is cosmetic and derived from the same rows."""

from __future__ import annotations

import csv

import numpy as np

CSV_HEADER = ("theta", "x", "y")


def write_boundary_csv(path, rows):
    rows = np.asarray(rows)
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(CSV_HEADER)
        for theta, x, y in rows:
            w.writerow([f"{theta:.12g}", f"{x:.12g}", f"{y:.12g}"])


def write_boundary_svg(path, rows):
    """Closed boundary curve with axes on a 480-pixel square, scaled to fit;
    no plotting library."""
    size, margin = 480, 48
    rows = np.asarray(rows)
    xs, ys = rows[:, 1], rows[:, 2]
    span = max(float(np.max(np.abs(xs))), float(np.max(np.abs(ys))), 1e-12)
    half = size / 2.0 - margin
    scale = half / span

    def to_px(x, y):
        return size / 2.0 + x * scale, size / 2.0 - y * scale

    pts = " ".join("{:.2f},{:.2f}".format(*to_px(x, y)) for x, y in zip(xs, ys))
    tick = span
    tx, _ = to_px(tick, 0.0)
    _, ty = to_px(0.0, tick)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<line x1="{margin}" y1="{size / 2:.1f}" x2="{size - margin}" y2="{size / 2:.1f}" '
        'stroke="#bbb" stroke-width="1"/>',
        f'<line x1="{size / 2:.1f}" y1="{margin}" x2="{size / 2:.1f}" y2="{size - margin}" '
        'stroke="#bbb" stroke-width="1"/>',
        f'<polygon points="{pts}" fill="#4477aa22" stroke="#4477aa" stroke-width="1.5"/>',
        f'<text x="{tx:.1f}" y="{size / 2 + 16:.1f}" font-size="11" fill="#666" '
        f'text-anchor="middle">{tick:.3g}</text>',
        f'<text x="{size / 2 + 6:.1f}" y="{ty:.1f}" font-size="11" fill="#666">{tick:.3g}</text>',
        "</svg>",
    ]
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(parts) + "\n")
