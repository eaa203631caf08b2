"""The Fraction route to the 2-D active regions: the one half-plane walk
left in the project.  It is the oracle of the lifted hull's pieces and of
the pieces active on a full-dimensional region, which a potential
integrated from the price complex must reproduce, and ``walk_route``
builds the price complex's oracle from its polygons, so no oracle of a
complex goes through the lift it checks.  Its regions are checked in turn
against ``PolyhedralFunction.active_pieces``.

Each piece k gets one ``HalfSpace`` per other non-parallel piece, built from
``Fraction`` slope and intercept differences, followed by the domain rows.
The rows are scaled to primitive integer normals one by one
(``rational_direction``), the tightest row per normal is kept by comparing
``Fraction`` offsets, and the offsets are scaled by the lcm of their reduced
denominators before the angle sort and the deque walk.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterator, Sequence

from tropical_demand.exactmath import IVec, Vec, ccw_compare, rational_direction, vsub
from tropical_demand.polyhedra import HalfSpace
from tropical_demand.valuation import PolyhedralFunction


@dataclass(frozen=True)
class Polygon2:
    """2-D polyhedron geometry: ccw vertex chain plus recession rays.

    kind is one of "bounded" (the chain starts at its lex-min vertex),
    "unbounded" (pointed, rays at the chain ends), "plane" (no constraints)
    or "unpointed" (contains a line: rays hold the lineality directions).
    """

    vertices: tuple[Vec, ...]
    rays: tuple[IVec, ...]
    kind: str


@dataclass(frozen=True)
class PolygonEdge:
    """One boundary edge of a 2-D region, run with the region on its left.

    start and end are None where the edge runs to infinity.  line is the
    supporting half-plane scaled to a primitive integer normal, and sources
    indexes every input half-plane that equals it after scaling.
    """

    start: Vec | None
    end: Vec | None
    line: HalfSpace
    sources: tuple[int, ...]


def active_region(
    f: PolyhedralFunction, k: int
) -> tuple[tuple[HalfSpace, ...], tuple[int, ...]] | None:
    """Rows of the set where piece k attains f, one per other non-parallel
    piece in piece order, the domain rows after them, and the tied pieces;
    None when a parallel piece beats k everywhere."""
    piece = f.pieces[k]
    rows: list[HalfSpace] = []
    tied: list[int] = []
    for j, other in enumerate(f.pieces):
        if j == k:
            continue
        if f.convention == "max":
            normal = vsub(other.slope, piece.slope)
            offset = piece.intercept - other.intercept
        else:
            normal = vsub(piece.slope, other.slope)
            offset = other.intercept - piece.intercept
        if all(c == 0 for c in normal):
            if offset < 0:
                return None
            continue
        rows.append(HalfSpace(normal=normal, offset=offset))
        tied.append(j)
    return (*rows, *f.domain.halfspaces), tuple(tied)


def _tightest_rows(halfspaces: Sequence[HalfSpace]) -> dict[IVec, tuple[Fraction, list[int]]]:
    best: dict[IVec, tuple[Fraction, list[int]]] = {}
    for i, h in enumerate(halfspaces):
        n, w = rational_direction(h.normal)
        c = h.offset / w
        if n not in best or c < best[n][0]:
            best[n] = (c, [i])
        elif c == best[n][0]:
            best[n][1].append(i)
    return best


def _cross(p, q):
    return p[0] * q[1] - p[1] * q[0]


def _meet(p, q, scale: int) -> Vec:
    det = _cross(p, q) * scale
    return (
        Fraction(p[2] * q[1] - q[2] * p[1], det),
        Fraction(p[0] * q[2] - q[0] * p[2], det),
    )


def _excess_sign(row, p, q) -> int:
    det = _cross(p, q)
    x = p[2] * q[1] - q[2] * p[1]
    y = p[0] * q[2] - q[0] * p[2]
    num = row[0] * x + row[1] * y - row[2] * det
    return num if det > 0 else -num


def _line(row) -> HalfSpace:
    return HalfSpace((Fraction(row[0]), Fraction(row[1])), row[4])


_BY_ANGLE = functools.cmp_to_key(lambda p, q: ccw_compare(p[:2], q[:2]))


def halfplane_intersection(
    halfspaces: Sequence[HalfSpace],
) -> tuple[Polygon2, tuple[PolygonEdge, ...]] | None:
    """The half-plane intersection with its offsets scaled from reduced
    ``Fraction``s, or None when it has no interior."""
    tightest = _tightest_rows(halfspaces)
    scale = lcm(*(c.denominator for c, _ in tightest.values()))
    rows = sorted(
        (
            (n[0], n[1], c.numerator * (scale // c.denominator), src, c)
            for n, (c, src) in tightest.items()
        ),
        key=_BY_ANGLE,
    )
    m = len(rows)
    if m == 0:
        return Polygon2((), (), "plane"), ()
    if all(_cross(rows[0], row) == 0 for row in rows):
        if m == 2 and rows[0][2] + rows[1][2] <= 0:
            return None
        n = next(iter(tightest))
        d = (-n[1], n[0])
        edges = tuple(PolygonEdge(None, None, _line(row), tuple(row[3])) for row in rows)
        return Polygon2((), (d, (-d[0], -d[1])), "unpointed"), edges

    gap = next((i for i in range(m) if _cross(rows[i], rows[(i + 1) % m]) <= 0), m - 1)
    dq: deque = deque()
    closed = False
    for row in rows[gap + 1 :] + rows[: gap + 1]:
        if closed and _excess_sign(row, dq[-1], dq[0]) <= 0:
            continue
        while len(dq) >= 2 and _excess_sign(row, dq[-2], dq[-1]) >= 0:
            dq.pop()
        while len(dq) >= 2 and _excess_sign(row, dq[0], dq[1]) >= 0:
            dq.popleft()
        if dq:
            turn = _cross(dq[0], row)
            if len(dq) == 1 and turn <= 0:
                return None
            closed = closed or turn < 0
        dq.append(row)

    lines = list(dq)
    if closed:
        starts = [_meet(lines[i - 1], lines[i], scale) for i in range(len(lines))]
        s = starts.index(min(starts))
        lines, starts = lines[s:] + lines[:s], starts[s:] + starts[:s]
        ends = starts[1:] + starts[:1]
        polygon = Polygon2(tuple(starts), (), "bounded")
    else:
        starts = [None] + [_meet(lines[i - 1], lines[i], scale) for i in range(1, len(lines))]
        ends = starts[1:] + [None]
        first, last = lines[0], lines[-1]
        rays = ((first[1], -first[0]), (-last[1], last[0]))
        polygon = Polygon2(tuple(starts[1:]), rays, "unbounded")
    edges = tuple(
        PolygonEdge(a, b, _line(row), tuple(row[3])) for row, a, b in zip(lines, starts, ends)
    )
    return polygon, edges


def active_polygons(
    f: PolyhedralFunction,
) -> Iterator[tuple[int, Polygon2, tuple[PolygonEdge, ...], tuple[int, ...]]]:
    """One ``Fraction`` half-plane intersection per piece, in piece order."""
    for k in range(len(f.pieces)):
        active = active_region(f, k)
        region = halfplane_intersection(active[0]) if active is not None else None
        if region is not None:
            yield (k, *region, active[1])
