"""Deterministic SVG rendering of 2-D labeled subdivisions.

Black edges, region labels at interior points, weight badges (white
number on a filled disk) at facet midpoints, then filled vertex dots.
Rays are clipped at a viewport padded by a quarter of the drawing's span
plus one unit.  Coordinates stay exact until each pixel value is rounded
once to a float and written at six decimal digits.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .complexes import LabeledSubdivision, _region_representative, finite_endpoints
from .exactmath import Vec, ZERO, format_rational

SCALE = 40  # pixels per unit
VERTEX_RADIUS = 3.0
BADGE_RADIUS = 9.0


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def render_subdivision(s: LabeledSubdivision) -> str:
    """The subdivision as an SVG document, y pointing up.

    Each edge's two ends, its finite endpoints and then its rays clipped
    at the viewport, are computed once for its line and its badge.  A ray
    starts strictly inside the viewport, so its clip is a positive step.
    """
    points = [p for c in s.cells.values() for p in c.points] or [(ZERO, ZERO)]
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    span = max(max(xs) - min(xs), max(ys) - min(ys), Fraction(1))
    pad = span / 4 + 1
    lo = (min(xs) - pad, min(ys) - pad)
    hi = (max(xs) + pad, max(ys) + pad)

    def px(p: Sequence[Fraction]) -> tuple[float, float]:
        return float((p[0] - lo[0]) * SCALE), float((hi[1] - p[1]) * SCALE)

    def clip(start: Vec, ray: Sequence[int]) -> Vec:
        t = min(((hi if d > 0 else lo)[k] - start[k]) / d for k, d in enumerate(ray) if d)
        return tuple(c + t * d for c, d in zip(start, ray))

    ends: dict[int, tuple[Vec, Vec]] = {}
    for edge_id in s.edges():
        cell = s.cells[edge_id]
        ends[edge_id] = (*finite_endpoints(cell), *(clip(cell.points[0], r) for r in cell.rays))

    width = _fmt(float((hi[0] - lo[0]) * SCALE))
    height = _fmt(float((hi[1] - lo[1]) * SCALE))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]

    for a, b in ends.values():
        (x1, y1), (x2, y2) = px(a), px(b)
        parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            'stroke="black" stroke-width="2"/>'
        )

    for region_id in s.regions():
        rep = _region_representative(s, region_id)
        if rep is None:
            continue
        x, y = px(rep)
        label = "(" + ",".join(format_rational(c) for c in s.region_labels[region_id]) + ")"
        parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="13" text-anchor="middle" '
            f'font-family="sans-serif">{label}</text>'
        )

    for edge_id, (a, b) in ends.items():
        fd = s.facet_data.get(edge_id)
        if fd is None:
            continue
        x, y = px(tuple((ca + cb) / 2 for ca, cb in zip(a, b)))
        parts.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(BADGE_RADIUS)}" fill="steelblue"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y + 4.0)}" font-size="11" text-anchor="middle" '
            f'font-family="sans-serif" fill="white">{format_rational(fd.weight)}</text>'
        )

    for vertex_id in s.vertices():
        x, y = px(s.cells[vertex_id].points[0])
        parts.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(VERTEX_RADIUS)}" fill="black"/>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
