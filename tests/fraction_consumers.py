"""The Fraction routes of the three 2-D subdivision consumers, kept as the
oracles of the integer ones in ``tropical_demand``: the SVG renderer, the
balancing check and the integration up to a potential.  Also the crossing
walk of a potential's path integral, kept as the oracle of the closed form
in ``tropical_demand.potential``.

Every coordinate, direction, clip parameter and constant here is a
``Fraction`` and every operand of a dot product or a difference is wrapped
in one.  The integer routes must give the same SVG text, the same
``BalanceReport`` and the same ``PolyhedralFunction``, or raise the same
exception with the same message.  The walk splits each segment at every
parameter where two pieces cross and sums the active slope over the parts:
the closed form must give the same value, or raise the same exception type.
"""

from __future__ import annotations

import functools
from collections import deque
from fractions import Fraction
from typing import Sequence

from tropical_demand.complexes import (
    BalanceReport,
    LabeledSubdivision,
    VertexBalance,
    finite_endpoints,
)
from tropical_demand.errors import DegenerateInput, DomainError, NonConservative, clipped, quoted
from tropical_demand.exactmath import IVec, Vec, ZERO, ccw_compare, format_rational, rot90ccw
from tropical_demand.polyhedra import AffinePiece
from tropical_demand.potential import Polyline, _tree_cycle
from tropical_demand.svg import BADGE_RADIUS, SCALE, VERTEX_RADIUS, _fmt
from tropical_demand.valuation import PolyhedralFunction


def dot(u: Sequence[Fraction | int], v: Sequence[Fraction | int]) -> Fraction:
    if len(u) != len(v):
        raise DegenerateInput(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum((Fraction(a) * b for a, b in zip(u, v)), ZERO)


def vsub(u: Sequence[Fraction | int], v: Sequence[Fraction | int]) -> Vec:
    if len(u) != len(v):
        raise DegenerateInput(f"dimension mismatch: {len(u)} vs {len(v)}")
    return tuple(Fraction(a) - Fraction(b) for a, b in zip(u, v))


def edge_direction(cell) -> Vec:
    if len(cell.points) == 2:
        return vsub(cell.points[1], cell.points[0])
    return tuple(Fraction(c) for c in cell.rays[0])


def region_representative(s: LabeledSubdivision, region_id: int) -> Vec | None:
    cell = s.cells[region_id]
    if cell.dim != 2:
        return None
    if not cell.points and not cell.rays:
        return (ZERO, ZERO)
    if not cell.points:
        anchors = [s.cells[e].points[0] for e in cell.incident if len(s.cells[e].rays) == 2]
        if len(anchors) == 2:
            return tuple((a + b) / 2 for a, b in zip(*anchors))
        if len(anchors) == 1:
            return tuple(a + c for a, c in zip(anchors[0], rot90ccw(cell.rays[0])))
        return None
    k = Fraction(len(cell.points))
    avg = tuple(sum(p[i] for p in cell.points) / k for i in range(2))
    for r in cell.rays:
        avg = tuple(a + Fraction(x) for a, x in zip(avg, r))
    return avg


def render_subdivision(s: LabeledSubdivision) -> str:
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
        rep = region_representative(s, region_id)
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


def _sort_ccw(items: list, key) -> list:
    return sorted(items, key=functools.cmp_to_key(lambda x, y: ccw_compare(key(x), key(y))))


def check_balancing(s: LabeledSubdivision) -> BalanceReport:
    edges_at: dict[int, list[int]] = {}
    for e in s.edges():
        for vertex_id in set(s.cells[e].incident):
            edges_at.setdefault(vertex_id, []).append(e)
    per_vertex: dict[int, VertexBalance] = {}
    skipped: list[int] = []
    for vertex_id in s.vertices():
        incident = edges_at.get(vertex_id, [])
        if not incident or any(e not in s.facet_data for e in incident):
            skipped.append(vertex_id)
            continue
        point = s.cells[vertex_id].points[0]
        entries = []
        for e in incident:
            cell = s.cells[e]
            d = edge_direction(cell)
            if len(cell.points) == 2 and cell.points[1] == point:
                d = (-d[0], -d[1])
            entries.append((e, d))
        entries = _sort_ccw(entries, key=lambda item: item[1])
        contributions: list[tuple[Fraction, IVec]] = []
        for e, d in entries:
            fd = s.facet_data[e]
            side = dot(fd.normal, rot90ccw(d))
            oriented = tuple(-c for c in fd.normal) if side > 0 else fd.normal
            contributions.append((fd.weight, oriented))
        residual = (
            sum((w * n[0] for w, n in contributions), ZERO),
            sum((w * n[1] for w, n in contributions), ZERO),
        )
        per_vertex[vertex_id] = VertexBalance(
            point=point,
            residual=residual,
            balanced=residual == (0, 0),
            contributions=tuple(contributions),
        )
    overall = all(vb.balanced for vb in per_vertex.values())
    return BalanceReport(per_vertex=per_vertex, skipped_boundary=tuple(skipped), overall=overall)


def _label_slope(convention: str, v: Vec) -> Vec:
    return tuple(-c for c in v) if convention == "max" else v


def _constant_step(
    s: LabeledSubdivision, from_region: int, to_region: int, point: Vec
) -> Fraction:
    diff = vsub(s.region_labels[from_region], s.region_labels[to_region])
    return dot(point, _label_slope(s.convention, diff))


def integrate_subdivision(
    s: LabeledSubdivision, anchor: tuple[int, Fraction]
) -> PolyhedralFunction:
    regions = s.regions()
    if not regions:
        raise DegenerateInput("subdivision has no regions to integrate")
    anchor_region, anchor_value = anchor
    if anchor_region not in s.region_labels:
        raise DegenerateInput(f"anchor region {anchor_region} is not a region")

    adjacency: dict[int, list[tuple[int, int]]] = {r: [] for r in regions}
    for edge_id, fd in sorted(s.facet_data.items()):
        adjacency[fd.from_region].append((fd.to_region, edge_id))
        adjacency[fd.to_region].append((fd.from_region, edge_id))
        diff = vsub(s.region_labels[fd.from_region], s.region_labels[fd.to_region])
        if dot(diff, edge_direction(s.cells[edge_id])) != 0:
            raise NonConservative(
                f"label difference across edge {quoted(edge_id)} is not normal to it",
                cycle=(fd.from_region, fd.to_region, fd.from_region),
            )

    constants: dict[int, Fraction] = {anchor_region: Fraction(anchor_value)}
    parent: dict[int, int] = {anchor_region: anchor_region}
    tree_edges: set[int] = set()
    queue = deque([anchor_region])
    while queue:
        current = queue.popleft()
        for neighbor, edge_id in sorted(adjacency[current]):
            if neighbor in constants:
                continue
            point = s.cells[edge_id].points[0]
            constants[neighbor] = constants[current] + _constant_step(s, current, neighbor, point)
            parent[neighbor] = current
            tree_edges.add(edge_id)
            queue.append(neighbor)

    if len(constants) != len(regions):
        missing = [r for r in regions if r not in constants]
        raise DegenerateInput(
            f"region adjacency graph is disconnected (unreached: {quoted(missing)})"
        )

    for edge_id, fd in sorted(s.facet_data.items()):
        if edge_id in tree_edges:
            continue
        point = s.cells[edge_id].points[0]
        expected = constants[fd.from_region] + _constant_step(
            s, fd.from_region, fd.to_region, point
        )
        if constants[fd.to_region] != expected:
            cycle = _tree_cycle(parent, fd.from_region, fd.to_region)
            raise NonConservative(
                f"inconsistent constant across edge {quoted(edge_id)}: "
                f"{clipped(format_rational(constants[fd.to_region]))} != "
                f"{clipped(format_rational(expected))}",
                cycle=cycle,
            )

    slopes = {r: _label_slope(s.convention, s.region_labels[r]) for r in regions}
    pieces = {AffinePiece(slope=slopes[r], intercept=constants[r]) for r in regions}
    ordered = tuple(sorted(pieces, key=lambda p: (p.slope, p.intercept)))
    return PolyhedralFunction(s.convention, ordered, s.domain)


def path_integral(f: PolyhedralFunction, path: Polyline) -> Fraction:
    """Exact integral of the induced correspondence along a polyline.

    For a convex max-of-affine potential the correspondence is the demand
    selection (minus the active slope); for a concave min-of-affine
    potential it is the active slope itself.  Each segment is split at the
    parameters where the active piece changes.
    """
    points = list(path.waypoints)
    if path.closed:
        points.append(points[0])
    for p in points:
        if not f.domain.contains(p):
            raise DomainError(f"waypoint {p} is outside the potential's domain")

    total = ZERO
    for a, b in zip(points, points[1:]):
        if a == b:
            continue
        step = vsub(b, a)
        cuts = {ZERO, Fraction(1)}
        n_pieces = len(f.pieces)
        for i in range(n_pieces):
            for j in range(i + 1, n_pieces):
                si, sj = f.pieces[i], f.pieces[j]
                rate = dot(vsub(si.slope, sj.slope), step)
                if rate == 0:
                    continue
                gap = (sj.intercept + dot(sj.slope, a)) - (
                    si.intercept + dot(si.slope, a)
                )
                t = gap / rate
                if 0 < t < 1:
                    cuts.add(t)
        ordered = sorted(cuts)
        for t0, t1 in zip(ordered, ordered[1:]):
            mid = (t0 + t1) / 2
            x = tuple(pa + mid * d for pa, d in zip(a, step))
            selection = _label_slope(f.convention, f.active_pieces(x)[0].slope)
            delta = tuple((t1 - t0) * d for d in step)
            total += dot(selection, delta)
    return total
