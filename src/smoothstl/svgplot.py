"""Dependency-free SVG rendering of regions and planar trajectories.

Output is structural by design: one <rect> per region with a spatial
footprint, one <polyline> per trajectory, one <circle> per sample. Tests
and downstream tooling can parse it with nothing but string matching.
Regions that constrain only control dimensions have no footprint in the
plane and are not drawn.
"""

from __future__ import annotations

import math
from html import escape
from pathlib import Path

__all__ = ["scene_svg", "save_scene_svg"]

_VIEW = 640.0  # longer viewport edge, px
_PAD = 0.6  # world-unit margin around the scene

# fill, stroke by region role: obs*, goal*, and every other region (stations)
_PALETTE = {
    "obs": ("#e06666", "#8c2f2f"),
    "goal": ("#7fbf7f", "#2e6b2e"),
    "station": ("#7da7d9", "#2f5a8c"),
}
_TRAJ_COLORS = ("#1a355e", "#7a3b8f", "#b05c10", "#2d6d66")


def _region_color(name):
    if name.startswith("obs"):
        return _PALETTE["obs"]
    if name.startswith("goal"):
        return _PALETTE["goal"]
    return _PALETTE["station"]


def _spatial_box(faces):
    # a drawable region constrains dim 0 or 1; a missing side is clipped
    # to the scene bounds later (None marks "unbounded")
    if 0 not in faces and 1 not in faces:
        return None
    return faces.get(0), faces.get(1)


def _scene_bounds(boxes, trails):
    xs, ys = [], []
    for bx, by in boxes:
        if bx is not None:
            xs.extend(bx)
        if by is not None:
            ys.extend(by)
    for pts in trails:
        xs.extend(p[0] for p in pts)
        ys.extend(p[1] for p in pts)
    if not xs:
        xs = [0.0, 1.0]
    if not ys:
        ys = [0.0, 1.0]
    return min(xs) - _PAD, max(xs) + _PAD, min(ys) - _PAD, max(ys) + _PAD


def scene_svg(regions, trajectories=(), title=None):
    """Render named box regions and trajectories to an SVG string.

    @param regions:      RegionTable (or anything with .items() yielding
                         (name, {dim: (lo, hi)}))
    @param trajectories: iterables of samples; only dims 0 and 1 are drawn,
                         and a non-finite one raises a ValueError
    @param title:        optional caption in the top-left corner, escaped
                         like the region names
    """
    named_boxes = []
    for name, faces in regions.items():
        box = _spatial_box(faces)
        if box is not None:
            named_boxes.append((name, box))
    trails = [[(float(p[0]), float(p[1])) for p in traj] for traj in trajectories]
    if not all(map(math.isfinite, (v for pts in trails for p in pts for v in p))):
        raise ValueError("trajectory samples must be finite")

    x_lo, x_hi, y_lo, y_hi = _scene_bounds([b for _, b in named_boxes], trails)
    span_x, span_y = x_hi - x_lo, y_hi - y_lo
    scale = _VIEW / max(span_x, span_y)
    width, height = span_x * scale, span_y * scale

    def to_px(x, y):
        # SVG y grows downward; world y grows upward
        return (x - x_lo) * scale, (y_hi - y) * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width:.1f} {height:.1f}">',
        f'<rect x="0" y="0" width="{width:.1f}" height="{height:.1f}" fill="#fbfbf8"/>',
    ]
    for name, (bx, by) in named_boxes:
        rx = bx if bx is not None else (x_lo, x_hi)
        ry = by if by is not None else (y_lo, y_hi)
        px, py = to_px(rx[0], ry[1])
        fill, stroke = _region_color(name)
        parts.append(
            f'<rect class="region" data-name="{escape(name)}" x="{px:.1f}" y="{py:.1f}" '
            f'width="{(rx[1] - rx[0]) * scale:.1f}" height="{(ry[1] - ry[0]) * scale:.1f}" '
            f'fill="{fill}" fill-opacity="0.5" stroke="{stroke}"/>'
        )
        tx, ty = to_px(rx[0], ry[1])
        parts.append(
            f'<text x="{tx + 4:.1f}" y="{ty + 14:.1f}" font-size="12" '
            f'font-family="sans-serif" fill="#333">{escape(name)}</text>'
        )
    for i, pts in enumerate(trails):
        color = _TRAJ_COLORS[i % len(_TRAJ_COLORS)]
        coords = " ".join("{:.2f},{:.2f}".format(*to_px(x, y)) for x, y in pts)
        parts.append(
            f'<polyline class="trajectory" points="{coords}" fill="none" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        for j, (x, y) in enumerate(pts):
            cx, cy = to_px(x, y)
            r = 5.0 if j == 0 else 2.6
            parts.append(
                f'<circle class="sample" cx="{cx:.2f}" cy="{cy:.2f}" r="{r}" fill="{color}"/>'
            )
    if title:
        parts.append(
            f'<text x="8" y="20" font-size="15" font-family="sans-serif" '
            f'fill="#111">{escape(str(title))}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def save_scene_svg(regions, trajectories, path, title=None):
    Path(path).write_text(scene_svg(regions, trajectories, title=title) + "\n")
