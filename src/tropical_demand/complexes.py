"""Normally labeled polyhedral subdivisions of the plane.

The price complex is the subdivision induced by the indirect utility: 2-cells
where one bundle is demanded, 1-cells where two tie, 0-cells where three or
more meet.  The demand complex is its cell-wise dual, ``dualize_complex``,
on the bundle hull; no concave hull is lifted to build either.
Region labels encode the active piece; each interior facet stores a weight
and a primitive integer normal with the invariant

    label(from) - label(to) == weight * normal,

where the normal points geometrically from the ``from`` region into the
``to`` region (labels decrease along facet normals, the decreasing-demand
convention).  At every interior vertex the weighted normals of the incident
facets, oriented counterclockwise, sum to zero; that balancing condition is
what makes the subdivision integrable back to a potential.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from .errors import (
    DegenerateInput,
    InstanceTooLarge,
    NonConservative,
    UnsupportedDimension,
)
from .exactmath import (
    IVec,
    Vec,
    ZERO,
    ccw_compare,
    cross2,
    dot,
    independent_directions,
    is_primitive,
    ivec_to_vec,
    rational_direction,
    rot90ccw,
    vsub,
)
from .polyhedra import (
    HPolyhedron,
    MAX_HULL_POINTS,
    Polygon2,
    PolygonEdge,
    convex_hull_halfspaces,
    halfplane_intersection,
)
from .valuation import Valuation, indirect_utility


@dataclass(frozen=True)
class Cell:
    """One cell of a subdivision.

    dim 0: points = (location,).
    dim 1: segment (two points), ray (point + direction), or full line
           (anchor point + both directions).
    dim 2: ccw vertex chain plus up to two recession rays; a chain with no
           points and no rays is the whole plane.
    incident lists the ids of the cell's boundary cells.
    """

    dim: int
    points: tuple[Vec, ...]
    rays: tuple[IVec, ...]
    incident: tuple[int, ...]


@dataclass(frozen=True)
class FacetData:
    weight: Fraction
    normal: IVec
    from_region: int
    to_region: int


@dataclass(frozen=True)
class LabeledSubdivision:
    ambient_dim: int
    convention: str  # potential convention this subdivision integrates to
    domain: HPolyhedron
    cells: dict[int, Cell]
    region_labels: dict[int, Vec]
    facet_data: dict[int, FacetData]

    def vertices(self) -> list[int]:
        return sorted(i for i, c in self.cells.items() if c.dim == 0)

    def edges(self) -> list[int]:
        return sorted(i for i, c in self.cells.items() if c.dim == 1)

    def regions(self) -> list[int]:
        return sorted(i for i, c in self.cells.items() if c.dim == 2)

    def boundary_edges(self) -> list[int]:
        return [e for e in self.edges() if e not in self.facet_data]


@dataclass(frozen=True)
class VertexBalance:
    point: Vec
    residual: Vec
    balanced: bool
    contributions: tuple[tuple[Fraction, IVec], ...]  # ccw-oriented (weight, normal)


@dataclass(frozen=True)
class BalanceReport:
    per_vertex: dict[int, VertexBalance]
    skipped_boundary: tuple[int, ...]
    overall: bool


@dataclass(frozen=True)
class LabelingViolation:
    edge: int
    message: str


# ---------------------------------------------------------------------------
# geometry helpers
# ---------------------------------------------------------------------------


def _edge_kind(cell: Cell) -> str:
    if len(cell.points) == 2:
        return "segment"
    if len(cell.rays) == 1:
        return "ray"
    return "line"


def edge_direction(cell: Cell) -> Vec:
    if _edge_kind(cell) == "segment":
        return vsub(cell.points[1], cell.points[0])
    return ivec_to_vec(cell.rays[0])


def _sort_ccw(items: list, key) -> list:
    return sorted(items, key=functools.cmp_to_key(lambda x, y: ccw_compare(key(x), key(y))))


def _hull_chain_ccw(points: Sequence[Vec]) -> tuple[Vec, ...]:
    """CCW convex hull chain (strict corners only), starting at the lex-min point."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return tuple(pts)

    def half(iterable):
        chain: list[Vec] = []
        for p in iterable:
            while len(chain) >= 2 and cross2(vsub(chain[-1], chain[-2]), vsub(p, chain[-2])) <= 0:
                chain.pop()
            chain.append(p)
        return chain

    lower = half(pts)
    upper = half(reversed(pts))
    return tuple(lower[:-1] + upper[:-1])


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


def _region_representative(cell: Cell) -> Vec | None:
    """A point inside the region (exact for convex chains), None if unknown."""
    if cell.dim != 2:
        return None
    if not cell.points and not cell.rays:
        return (ZERO, ZERO)  # whole plane
    if not cell.points:
        return None
    k = Fraction(len(cell.points))
    avg = tuple(sum(p[i] for p in cell.points) / k for i in range(2))
    for r in cell.rays:
        avg = tuple(a + Fraction(x) for a, x in zip(avg, r))
    return avg


# ---------------------------------------------------------------------------
# construction from affine pieces
# ---------------------------------------------------------------------------


@dataclass
class _EdgeDraft:
    points: tuple[Vec, ...]
    rays: tuple[IVec, ...]
    facet: tuple[int, int] | None  # region keys (from, to)
    weight: Fraction | None
    normal: IVec | None
    owner: int | None  # region key for boundary edges

    def sort_key(self):
        return (len(self.points), self.points, self.rays)


def _assemble(
    edges: list[_EdgeDraft],
    regions: list[tuple[int, Vec, Polygon2]],
    convention: str,
    domain: HPolyhedron,
) -> LabeledSubdivision:
    """Assign canonical ids (vertices, then edges, then regions) and wire
    incidence."""
    # Segments contribute both endpoints, rays their single endpoint; full
    # lines have no 0-cells.
    vertex_points: set[Vec] = set()
    for e in edges:
        if len(e.points) == 2:
            vertex_points.update(e.points)
        elif len(e.rays) == 1:
            vertex_points.add(e.points[0])

    ordered_vertices = sorted(vertex_points)
    vid = {p: i for i, p in enumerate(ordered_vertices)}

    edges_sorted = sorted(edges, key=lambda e: e.sort_key())
    n_v = len(ordered_vertices)
    eid_base = n_v
    regions_sorted = sorted(regions, key=lambda r: r[1])
    rid = {key: eid_base + len(edges_sorted) + i for i, (key, _, _) in enumerate(regions_sorted)}

    cells: dict[int, Cell] = {}
    for p, i in sorted(vid.items(), key=lambda kv: kv[1]):
        cells[i] = Cell(dim=0, points=(p,), rays=(), incident=())

    facet_data: dict[int, FacetData] = {}
    region_edge_ids: dict[int, list[int]] = {key: [] for key, _, _ in regions}
    for i, e in enumerate(edges_sorted):
        edge_id = eid_base + i
        if len(e.points) == 2:
            incident = tuple(sorted((vid[e.points[0]], vid[e.points[1]])))
        elif len(e.rays) == 1:
            incident = (vid[e.points[0]],)
        else:
            incident = ()
        cells[edge_id] = Cell(dim=1, points=e.points, rays=e.rays, incident=incident)
        if e.facet is not None:
            facet_data[edge_id] = FacetData(
                weight=e.weight,
                normal=e.normal,
                from_region=rid[e.facet[0]],
                to_region=rid[e.facet[1]],
            )
            region_edge_ids[e.facet[0]].append(edge_id)
            region_edge_ids[e.facet[1]].append(edge_id)
        else:
            region_edge_ids[e.owner].append(edge_id)

    region_labels: dict[int, Vec] = {}
    for key, label, poly in regions_sorted:
        region_id = rid[key]
        cells[region_id] = Cell(
            dim=2,
            points=poly.vertices,
            rays=poly.rays,
            incident=tuple(sorted(region_edge_ids[key])),
        )
        region_labels[region_id] = label

    return LabeledSubdivision(
        ambient_dim=2,
        convention=convention,
        domain=domain,
        cells=cells,
        region_labels=region_labels,
        facet_data=facet_data,
    )


# ---------------------------------------------------------------------------
# public constructions
# ---------------------------------------------------------------------------


def price_complex(v: Valuation) -> LabeledSubdivision:
    """Subdivision of price space into regions of constant demand.

    Each region and its edges come from one half-plane intersection of a
    piece's ``active_region`` in the indirect utility, and the region is
    labeled by the piece's bundle.  An edge of region k lies on the tie line
    of every piece its rows come from; two pieces tied with k along one line
    differ by a multiple of its equation, so exactly one kept piece l lies
    across.  The edge is the facet (k, l), read off the region that comes
    first in piece order, with the weight and primitive normal factored from
    the label difference.  The domain is the plane, so no edge lies on a
    boundary.  Capped at MAX_HULL_POINTS bundles, which also caps the demand
    complex, its dual.
    """
    if v.goods != 2:
        raise UnsupportedDimension("price complexes are built in 2-D only")
    if len(v.entries) > MAX_HULL_POINTS:
        raise InstanceTooLarge(
            f"price complex: {len(v.entries)} bundles exceed the cap of {MAX_HULL_POINTS}"
        )
    f = indirect_utility(v)
    labels = [tuple(-c for c in piece.slope) for piece in f.pieces]
    regions: dict[int, tuple[Polygon2, tuple[PolygonEdge, ...], tuple[int, ...]]] = {}
    for k in range(len(f.pieces)):
        active = f.active_region(k)
        region = halfplane_intersection(active[0]) if active is not None else None
        if region is not None:
            regions[k] = (*region, active[1])

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

    polygons = [(k, labels[k], polygon) for k, (polygon, _, _) in regions.items()]
    return _assemble(edges, polygons, f.convention, f.domain)


def demand_complex(v: Valuation) -> LabeledSubdivision:
    """Subdivision of the bundle hull into the cells demanded together,
    labeled by their indifference prices: the cell-wise dual of the price
    complex, on the bundle hull as its domain."""
    if v.goods != 2:
        raise UnsupportedDimension("demand complexes are built in 2-D only")
    bundles = [ivec_to_vec(q) for q in v.bundles()]
    if len(independent_directions(bundles)) == 1:
        raise DegenerateInput("bundles are affinely collinear; the dual complex is 1-D")
    dual = dualize_complex(price_complex(v))
    # The dual's own domain, the hull of the region labels, is the same set
    # but can list its rows in another order, when a bundle that is no hull
    # vertex lies on the hull's boundary.
    return replace(dual, domain=convex_hull_halfspaces(bundles, 2))


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_normal_labeling(s: LabeledSubdivision) -> tuple[bool, list[LabelingViolation]]:
    """Verify every interior facet factors its label difference as stated."""
    violations: list[LabelingViolation] = []
    for edge_id, fd in sorted(s.facet_data.items()):
        cell = s.cells.get(edge_id)
        if cell is None or cell.dim != 1:
            violations.append(LabelingViolation(edge_id, "facet data on a non-edge"))
            continue
        if fd.from_region not in s.region_labels or fd.to_region not in s.region_labels:
            violations.append(LabelingViolation(edge_id, "facet references unknown region"))
            continue
        if fd.weight <= 0:
            violations.append(LabelingViolation(edge_id, f"weight {fd.weight} is not positive"))
        if all(c == 0 for c in fd.normal) or not is_primitive(fd.normal):
            violations.append(LabelingViolation(edge_id, f"normal {fd.normal} is not primitive"))
            continue
        diff = vsub(s.region_labels[fd.from_region], s.region_labels[fd.to_region])
        expected = tuple(fd.weight * c for c in fd.normal)
        if diff != expected:
            violations.append(
                LabelingViolation(
                    edge_id,
                    f"label difference {diff} != weight*normal {expected}",
                )
            )
            continue
        direction = edge_direction(cell)
        if dot(fd.normal, direction) != 0:
            violations.append(
                LabelingViolation(edge_id, "normal is not perpendicular to the facet")
            )
            continue
        rep_from = _region_representative(s.cells[fd.from_region])
        rep_to = _region_representative(s.cells[fd.to_region])
        if rep_from is not None and rep_to is not None:
            side = dot(fd.normal, vsub(rep_to, rep_from))
            if side < 0:
                violations.append(
                    LabelingViolation(edge_id, "normal points from 'to' into 'from'")
                )
    return (not violations), violations


def _incident_edges(s: LabeledSubdivision, vertex_id: int) -> list[int]:
    return [e for e in s.edges() if vertex_id in s.cells[e].incident]


def _direction_from_vertex(s: LabeledSubdivision, edge_id: int, vertex_id: int) -> Vec:
    cell = s.cells[edge_id]
    vpoint = s.cells[vertex_id].points[0]
    if _edge_kind(cell) == "segment":
        other = cell.points[1] if cell.points[0] == vpoint else cell.points[0]
        return vsub(other, vpoint)
    return ivec_to_vec(cell.rays[0])


def check_balancing(s: LabeledSubdivision) -> BalanceReport:
    """Sum the ccw-oriented weighted facet normals around each interior vertex.

    Vertices incident to any boundary facet (no facet data) are reported as
    skipped, not checked.
    """
    per_vertex: dict[int, VertexBalance] = {}
    skipped: list[int] = []
    for vertex_id in s.vertices():
        incident = _incident_edges(s, vertex_id)
        if not incident or any(e not in s.facet_data for e in incident):
            skipped.append(vertex_id)
            continue
        entries = []
        for e in incident:
            d = _direction_from_vertex(s, e, vertex_id)
            entries.append((e, d))
        entries = _sort_ccw(entries, key=lambda item: item[1])
        contributions: list[tuple[Fraction, IVec]] = []
        for e, d in entries:
            fd = s.facet_data[e]
            crossing = rot90ccw(d)
            side = dot(fd.normal, crossing)
            if side > 0:
                oriented = tuple(-c for c in fd.normal)
            else:
                oriented = fd.normal
            contributions.append((fd.weight, oriented))
        residual = (
            sum((w * n[0] for w, n in contributions), ZERO),
            sum((w * n[1] for w, n in contributions), ZERO),
        )
        per_vertex[vertex_id] = VertexBalance(
            point=s.cells[vertex_id].points[0],
            residual=residual,
            balanced=residual == (0, 0),
            contributions=tuple(contributions),
        )
    overall = all(vb.balanced for vb in per_vertex.values())
    return BalanceReport(
        per_vertex=per_vertex, skipped_boundary=tuple(skipped), overall=overall
    )


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------


def _boundary_outer_normal(s: LabeledSubdivision, edge_id: int) -> IVec:
    cell = s.cells[edge_id]
    anchor = cell.points[0]
    direction = edge_direction(cell)
    for h in s.domain.halfspaces:
        if h.tight_at(anchor) and dot(h.normal, direction) == 0:
            prim, _ = rational_direction(h.normal)
            return prim
    raise DegenerateInput(f"boundary edge {edge_id} lies on no domain facet")


def dualize_complex(s: LabeledSubdivision) -> LabeledSubdivision:
    """Cell-wise dual: regions become vertices at their labels, vertices
    become regions labeled by their location, and every edge becomes a dual
    edge by one rule.

    The dual edge's geometry comes from the edge's kind: a facet gives the
    segment between its two region labels, a boundary edge the ray from its
    owner's label along minus the domain's outer normal.  Its relation
    comes from the edge's endpoints: two give a facet between their dual
    regions, weighted by the lattice length between them; one gives a
    boundary edge of that dual region; a full line has no dual region to
    bound and is refused.  Each dual region is the hull of the corners its
    vertex's edges give, plus their rays; a lone vertex, with no edges,
    gets the whole plane.
    """
    ok, violations = check_normal_labeling(s)
    if not ok:
        detail = "; ".join(v.message for v in violations[:3])
        raise NonConservative(f"subdivision is not normally labeled: {detail}")
    convention = "min" if s.convention == "max" else "max"
    regions = s.regions()
    if regions and not s.edges():
        # The whole plane: no edge carries its label to a dual vertex.
        if len(s.cells) > 1:
            raise DegenerateInput("a region with no edges must be the only cell")
        label = s.region_labels[regions[0]]
        return LabeledSubdivision(
            ambient_dim=2,
            convention=convention,
            domain=convex_hull_halfspaces([label], 2),
            cells={0: Cell(dim=0, points=(label,), rays=(), incident=())},
            region_labels={},
            facet_data={},
        )

    # A boundary edge belongs to the lowest-numbered region that lists it.
    owner = {e: r for r in reversed(regions) for e in s.cells[r].incident}
    corners: dict[int, list[Vec]] = {v: [] for v in s.vertices()}
    rays: dict[int, list[IVec]] = {v: [] for v in s.vertices()}
    dual_edges: list[_EdgeDraft] = []
    for edge_id in s.edges():
        if edge_id in s.facet_data:
            fd = s.facet_data[edge_id]
            labels = (s.region_labels[fd.from_region], s.region_labels[fd.to_region])
            points, ray = tuple(sorted(labels)), ()
        elif edge_id in owner:
            points = (s.region_labels[owner[edge_id]],)
            ray = (tuple(-c for c in _boundary_outer_normal(s, edge_id)),)
        else:
            raise DegenerateInput(f"boundary edge {edge_id} belongs to no region")
        endpoints = s.cells[edge_id].incident
        if len(endpoints) == 2:
            u, w = endpoints
            prim, weight = rational_direction(vsub(s.cells[u].points[0], s.cells[w].points[0]))
            dual_edges.append(_EdgeDraft(points, ray, (u, w), weight, prim, None))
        elif len(endpoints) == 1:
            dual_edges.append(_EdgeDraft(points, ray, None, None, None, endpoints[0]))
        else:
            raise DegenerateInput("cannot dualize a subdivision with line edges")
        for vertex in endpoints:
            corners[vertex].extend(points)
            rays[vertex].extend(ray)

    dual_regions = []
    for vertex in s.vertices():
        if not corners[vertex] and len(s.cells) > 1:
            # Only a lone vertex may dualize to the whole plane.
            raise DegenerateInput(f"vertex {vertex} lies on no edge")
        vertex_rays = tuple(_sort_ccw(list(dict.fromkeys(rays[vertex])), key=ivec_to_vec))
        kind = "unbounded" if vertex_rays else "bounded"
        poly = Polygon2(_hull_chain_ccw(corners[vertex]), vertex_rays, kind)
        dual_regions.append((vertex, s.cells[vertex].points[0], poly))

    if s.domain.halfspaces:
        dual_domain = HPolyhedron(2, ())
    else:
        dual_domain = convex_hull_halfspaces([s.region_labels[r] for r in regions], 2)
    return _assemble(dual_edges, dual_regions, convention, dual_domain)


# ---------------------------------------------------------------------------
# canonical comparison form
# ---------------------------------------------------------------------------


def canonical_form(s: LabeledSubdivision):
    """Rotation- and id-independent description, for exact cell-for-cell
    comparison of subdivisions built along different routes."""
    verts = frozenset(s.cells[v].points[0] for v in s.vertices())
    edge_sigs = []
    for e in s.edges():
        cell = s.cells[e]
        if e in s.facet_data:
            fd = s.facet_data[e]
            la = s.region_labels[fd.from_region]
            lb = s.region_labels[fd.to_region]
            normal = fd.normal
            if (la, lb) > (lb, la):
                la, lb = lb, la
                normal = tuple(-c for c in normal)
            rel = (la, lb, fd.weight, normal)
        else:
            rel = None
        edge_sigs.append(
            (tuple(sorted(cell.points)), tuple(sorted(cell.rays)), rel)
        )
    region_sigs = []
    for r in s.regions():
        cell = s.cells[r]
        region_sigs.append(
            (
                s.region_labels[r],
                frozenset(cell.points),
                frozenset(cell.rays),
            )
        )
    return (
        verts,
        frozenset(edge_sigs),
        frozenset(region_sigs),
        s.convention,
    )
