"""Deterministic SVG rendering of 2-D labeled subdivisions.

Black edges, filled vertex dots, region labels at interior points, and
weight badges (white number on a filled disk) at facet midpoints.  Exact
coordinates are rendered at six decimal digits; rays are clipped at a
viewport padded by a quarter of the drawing's span plus one unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .complexes import LabeledSubdivision, _region_representative, finite_endpoints
from .exactmath import Vec, ZERO, format_rational

SCALE = 40  # pixels per unit
VERTEX_RADIUS = 3.0
BADGE_RADIUS = 9.0


@dataclass(frozen=True)
class _Viewport:
    """A box that strictly contains every point of every cell."""

    xmin: Fraction
    xmax: Fraction
    ymin: Fraction
    ymax: Fraction


def _viewport(s: LabeledSubdivision) -> _Viewport:
    points = [p for c in s.cells.values() for p in c.points]
    if not points:
        points = [(ZERO, ZERO)]
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    span = max(max(xs) - min(xs), max(ys) - min(ys), Fraction(1))
    pad = span / 4 + 1
    return _Viewport(
        xmin=min(xs) - pad, xmax=max(xs) + pad, ymin=min(ys) - pad, ymax=max(ys) + pad
    )


def _fmt(x: float) -> str:
    return f"{x:.6f}"


class _Mapper:
    def __init__(self, view: _Viewport):
        self.view = view
        self.width = float((view.xmax - view.xmin) * SCALE)
        self.height = float((view.ymax - view.ymin) * SCALE)

    def to_px(self, p: Sequence[Fraction]) -> tuple[float, float]:
        x = float((p[0] - self.view.xmin) * SCALE)
        y = float((self.view.ymax - p[1]) * SCALE)
        return x, y


def _clip_ray(view: _Viewport, start: Vec, direction: Sequence[int]) -> Vec:
    """Last point of the ray inside the viewport box."""
    best: Fraction | None = None
    for coord, d in enumerate(direction):
        lo = (view.xmin, view.ymin)[coord]
        hi = (view.xmax, view.ymax)[coord]
        if d > 0:
            t = (hi - start[coord]) / d
        elif d < 0:
            t = (lo - start[coord]) / d
        else:
            continue
        if best is None or t < best:
            best = t
    if best is None or best < 0:
        best = Fraction(0)
    return tuple(c + best * Fraction(d) for c, d in zip(start, direction))


def _edge_endpoints(s: LabeledSubdivision, edge_id: int, view: _Viewport) -> tuple[Vec, Vec]:
    """The edge's finite endpoints, then each of its rays from its first
    point, clipped at the viewport: two ends for a segment, a ray or a line."""
    cell = s.cells[edge_id]
    a, b = (*finite_endpoints(cell), *(_clip_ray(view, cell.points[0], r) for r in cell.rays))
    return a, b


def render_subdivision(s: LabeledSubdivision) -> str:
    view = _viewport(s)
    mapper = _Mapper(view)
    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(mapper.width)}" '
        f'height="{_fmt(mapper.height)}" viewBox="0 0 {_fmt(mapper.width)} {_fmt(mapper.height)}">'
    )
    parts.append('<rect width="100%" height="100%" fill="white"/>')

    for edge_id in s.edges():
        a, b = _edge_endpoints(s, edge_id, view)
        (x1, y1), (x2, y2) = mapper.to_px(a), mapper.to_px(b)
        parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            'stroke="black" stroke-width="2"/>'
        )

    for region_id in s.regions():
        rep = _region_representative(s, region_id)
        if rep is None:
            continue
        x, y = mapper.to_px(rep)
        label = "(" + ",".join(format_rational(c) for c in s.region_labels[region_id]) + ")"
        parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="13" text-anchor="middle" '
            f'font-family="sans-serif">{label}</text>'
        )

    for edge_id in s.edges():
        if edge_id not in s.facet_data:
            continue
        fd = s.facet_data[edge_id]
        a, b = _edge_endpoints(s, edge_id, view)
        mid = tuple((ca + cb) / 2 for ca, cb in zip(a, b))
        x, y = mapper.to_px(mid)
        parts.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(BADGE_RADIUS)}" fill="steelblue"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y + 4.0)}" font-size="11" text-anchor="middle" '
            f'font-family="sans-serif" fill="white">{format_rational(fd.weight)}</text>'
        )

    for vertex_id in s.vertices():
        x, y = mapper.to_px(s.cells[vertex_id].points[0])
        parts.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(VERTEX_RADIUS)}" fill="black"/>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
