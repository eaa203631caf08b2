"""Deterministic SVG rendering of 2-D labeled subdivisions.

Black edges, region labels at interior points, weight badges (white
number on a filled disk) at facet midpoints, then filled vertex dots.
Rays are clipped at a viewport padded by a quarter of the drawing's span
plus one unit.  Coordinates stay exact until each pixel value is rounded
once to a float and written at six decimal digits.

The exact work runs on ints.  A coordinate is an int pair (numerator,
positive denominator) on its point's own scale, and the viewport's two
corners share one scale V, the lcm of at most four denominators.  A
clipped end or a badge midpoint is again such a pair per coordinate, and
each pixel value is one int true division n / d, which CPython rounds
correctly, so it is the float that ``float(Fraction(n, d))`` gives.  No
lcm is taken over the whole document: over many distinct large
denominators it would make every product huge.
"""

from __future__ import annotations

from fractions import Fraction

from .complexes import LabeledSubdivision, _region_representative, finite_endpoints
from .exactmath import Vec, ZERO, format_rational, scaled_ints

SCALE = 40  # pixels per unit
VERTEX_RADIUS = 3.0
BADGE_RADIUS = 9.0

# A point (xn / xd, yn / yd) as (xn, xd, yn, yd), xd > 0 and yd > 0.
_Pairs = tuple[int, int, int, int]


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _pairs(p: Vec) -> _Pairs:
    x, y = p
    return x.numerator, x.denominator, y.numerator, y.denominator


def render_subdivision(s: LabeledSubdivision) -> str:
    """The subdivision as an SVG document, y pointing up.

    Each edge's two ends, its finite endpoints and then its rays clipped
    at the viewport, are computed once for its line and its badge.  A ray
    starts strictly inside the viewport, so its clip is a positive step.
    """
    points = [p for c in s.cells.values() for p in c.points] or [(ZERO, ZERO)]
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    low, high = (min(xs), min(ys)), (max(xs), max(ys))
    span = max(high[0] - low[0], high[1] - low[1], 1)
    # A Fraction also when the points are ints, as a demand complex's are.
    pad = Fraction(span, 4) + 1
    view, (lo, hi) = scaled_ints([tuple(c - pad for c in low), tuple(c + pad for c in high)])

    def px(p: _Pairs) -> tuple[float, float]:
        xn, xd, yn, yd = p
        return (
            (xn * view - lo[0] * xd) * SCALE / (view * xd),
            (hi[1] * yd - yn * view) * SCALE / (view * yd),
        )

    def clip(start: Vec, ray: tuple[int, int]) -> _Pairs:
        # The least step t = tn / td > 0 to the viewport over the ray's
        # nonzero coordinates, compared by cross-multiplying; then each
        # coordinate n / d + t * r as one pair over d * td.
        xn, xd, yn, yd = _pairs(start)
        tn = td = 0
        for n, d, r, lo_k, hi_k in ((xn, xd, ray[0], lo[0], hi[0]), (yn, yd, ray[1], lo[1], hi[1])):
            if r > 0:
                step = (hi_k * d - n * view, view * d * r)
            elif r < 0:
                step = (n * view - lo_k * d, -view * d * r)
            else:
                continue
            if not td or step[0] * td < tn * step[1]:
                tn, td = step
        return xn * td + tn * ray[0] * xd, xd * td, yn * td + tn * ray[1] * yd, yd * td

    ends: dict[int, tuple[_Pairs, _Pairs]] = {}
    for edge_id in s.edges():
        cell = s.cells[edge_id]
        ends[edge_id] = (
            *map(_pairs, finite_endpoints(cell)),
            *(clip(cell.points[0], r) for r in cell.rays),
        )

    width = _fmt((hi[0] - lo[0]) * SCALE / view)
    height = _fmt((hi[1] - lo[1]) * SCALE / view)
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
        x, y = px(_pairs(rep))
        label = "(" + ",".join(format_rational(c) for c in s.region_labels[region_id]) + ")"
        parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="13" text-anchor="middle" '
            f'font-family="sans-serif">{label}</text>'
        )

    for edge_id, ((axn, axd, ayn, ayd), (bxn, bxd, byn, byd)) in ends.items():
        fd = s.facet_data.get(edge_id)
        if fd is None:
            continue
        x, y = px((axn * bxd + bxn * axd, 2 * axd * bxd, ayn * byd + byn * ayd, 2 * ayd * byd))
        parts.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(BADGE_RADIUS)}" fill="steelblue"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y + 4.0)}" font-size="11" text-anchor="middle" '
            f'font-family="sans-serif" fill="white">{format_rational(fd.weight)}</text>'
        )

    for vertex_id in s.vertices():
        x, y = px(_pairs(s.cells[vertex_id].points[0]))
        parts.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(VERTEX_RADIUS)}" fill="black"/>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
