"""The walk route to the 2-D price complex, kept as the oracle of
``complexes.price_complex``.

Each region and its edges come from the Fraction walk
(``fraction_regions.active_polygons``) of the indirect utility, one
half-plane walk over every other bundle's tie row per bundle, and the
region is labeled by the piece's bundle.  An edge of region k lies on the
tie line of every piece its rows come from; two pieces tied with k along
one line differ by a multiple of its equation, so exactly one kept piece l
lies across.  The edge is the facet (k, l), read off the region
that comes first in piece order, with the weight and primitive normal
factored from the label difference; its geometry is the walk's edge
(``_edge_geometry``).  The goods check and the bundle cap come first, so a
valuation the lift route refuses is refused here with the same error.
"""

from __future__ import annotations

from tropical_demand.complexes import LabeledSubdivision, _EdgeDraft, _assemble
from tropical_demand.errors import DegenerateInput, UnsupportedDimension
from tropical_demand.exactmath import IVec, Vec, dot, rational_direction, vsub
from tropical_demand.polyhedra import check_hull_cap
from tropical_demand.valuation import Valuation, indirect_utility
from fraction_regions import PolygonEdge, active_polygons


def _edge_geometry(edge: PolygonEdge) -> tuple[tuple[Vec, ...], tuple[IVec, ...]]:
    """Cell points and rays of a region edge: a segment's sorted endpoints, a
    ray's endpoint and direction, or a line's point nearest the origin and
    both directions."""
    n = edge.line.normal
    d = (-int(n[1]), int(n[0]))
    back = (-d[0], -d[1])
    if edge.start is not None and edge.end is not None:
        return tuple(sorted((edge.start, edge.end))), ()
    if edge.start is not None:
        return (edge.start,), (d,)
    if edge.end is not None:
        return (edge.end,), (back,)
    anchor = tuple(edge.line.offset / dot(n, n) * x for x in n)
    return (anchor,), tuple(sorted((d, back)))


def price_complex(v: Valuation) -> LabeledSubdivision:
    if v.goods != 2:
        raise UnsupportedDimension("price complexes are built in 2-D only")
    check_hull_cap("price complex", len(v.entries))
    f = indirect_utility(v)
    labels = [tuple(-c for c in piece.slope) for piece in f.pieces]
    regions = {k: (polygon, edges, tied) for k, polygon, edges, tied in active_polygons(f)}

    edges: list[_EdgeDraft] = []
    for k, (_, region_edges, tied) in regions.items():
        for edge in region_edges:
            l = next((tied[i] for i in edge.sources if tied[i] in regions), None)
            if l is None:
                raise DegenerateInput(f"an edge of the region of piece {k} has no region across")
            if l < k:
                continue
            prim, weight = rational_direction(vsub(labels[k], labels[l]))
            edges.append(_EdgeDraft(*_edge_geometry(edge), (k, l), weight, prim, None))

    polygons = [
        (k, labels[k], polygon.vertices, polygon.rays) for k, (polygon, _, _) in regions.items()
    ]
    return _assemble(edges, polygons, f.convention, f.domain)
