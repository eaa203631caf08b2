"""Normally labeled polyhedral subdivisions of the plane.

The price complex is the subdivision induced by the indirect utility: 2-cells
where one bundle is demanded, 1-cells where two tie, 0-cells where three or
more meet.  The demand complex is its cell-wise dual: the regular subdivision
that the values induce on the bundle hull.  Both are read off the pieces of
the concave dual (``polyhedra.upper_concave_hull``): each piece is a cell of
the demand complex, the bundles it is tight on, and its slope is a vertex of
the price complex, the price where those bundles tie.
Region labels encode the active piece; each interior facet stores a weight
and a primitive integer normal with the invariant

    label(from) - label(to) == weight * normal,

where the normal points geometrically from the ``from`` region into the
``to`` region (labels decrease along facet normals, the decreasing-demand
convention).  At every interior vertex the weighted normals of the incident
facets, oriented counterclockwise, sum to zero; that balancing condition is
what makes the subdivision integrable back to a potential.

An edge is a segment, a ray or a line; ``finite_endpoints`` alone decides
its 0-cells, for assembly, the parser's check and the SVG.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    DegenerateInput,
    NonConservative,
    UnsupportedDimension,
)
from .exactmath import (
    IVec,
    Vec,
    ZERO,
    ccw_compare,
    dot,
    first_independent,
    is_primitive,
    ivec_to_vec,
    primitive_direction,
    rational_direction,
    rot90ccw,
    scaled_ints,
    vsub,
)
from .polyhedra import (
    HPolyhedron,
    check_hull_cap,
    convex_hull_halfspaces,
    upper_concave_hull,
)
from .valuation import Valuation


@dataclass(frozen=True)
class Cell:
    """One cell of a subdivision.

    dim 0: points = (location,).
    dim 1: segment (two points), ray (point + direction), or full line
           (anchor point + both directions).
    dim 2: ccw vertex chain plus up to two recession rays; a chain with no
           points and no rays is the whole plane, and one with rays but no
           points is a strip or a half-plane (the latter lies to the left
           of its first ray).
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


def finite_endpoints(edge: Cell | _EdgeDraft) -> tuple[Vec, ...]:
    """An edge's 0-cells: both points of a segment, the point of a ray, and
    none of a line, whose one point is an anchor, not a vertex."""
    return edge.points[: 2 - len(edge.rays)]


def _int_direction(cell: Cell) -> IVec:
    """A positive integer multiple of an edge's direction: a segment's b - a,
    from its first point to its second, times the denominators of the four
    coordinates, else the edge's first ray."""
    if len(cell.points) != 2:
        return cell.rays[0]
    (ax, ay), (bx, by) = cell.points
    dx = (bx.numerator * ax.denominator - ax.numerator * bx.denominator) * ay.denominator
    dy = (by.numerator * ay.denominator - ay.numerator * by.denominator) * ax.denominator
    return dx * by.denominator, dy * bx.denominator


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
            while len(chain) >= 2:
                a, b = chain[-2], chain[-1]
                if (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0]) > 0:
                    break
                chain.pop()
            chain.append(p)
        return chain

    lower = half(pts)
    upper = half(reversed(pts))
    return tuple(lower[:-1] + upper[:-1])


def _region_representative(s: LabeledSubdivision, region_id: int) -> Vec | None:
    """A point inside the region (exact for convex chains), None if unknown.

    A region with corners steps their average along its rays.  A region
    with rays but no corners is cut out by parallel line edges: a strip
    gives the midpoint of its two lines' anchors, and a half-plane its
    line's anchor stepped to the left of its first ray.
    """
    cell = s.cells[region_id]
    if cell.dim != 2:
        return None
    if not cell.points and not cell.rays:
        return (ZERO, ZERO)  # whole plane
    if not cell.points:
        anchors = [s.cells[e].points[0] for e in cell.incident if len(s.cells[e].rays) == 2]
        if len(anchors) == 2:
            return tuple((a + b) / 2 for a, b in zip(*anchors))
        if len(anchors) == 1:
            return tuple(a + c for a, c in zip(anchors[0], rot90ccw(cell.rays[0])))
        return None
    # sum(points) / k + sum(rays), with the points scaled by the lcm L of
    # their denominators: both coordinates over k * L.
    scale, ints = scaled_ints(cell.points)
    den = len(ints) * scale
    return tuple(
        Fraction(sum(p[i] for p in ints) + den * sum(r[i] for r in cell.rays), den)
        for i in range(2)
    )


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
    regions: list[tuple[object, Vec, tuple[Vec, ...], tuple[IVec, ...]]],
    convention: str,
    domain: HPolyhedron,
    lone: Sequence[Vec] = (),
) -> LabeledSubdivision:
    """Assign canonical ids (vertices, then edges, then regions) and wire
    incidence.  Each region is (key, label, points, rays), the key being
    the name its edges' ``facet`` and ``owner`` use; ``lone`` holds the
    points of 0-cells on no edge.  The other 0-cells are the edges' finite
    endpoints."""
    vertex_points: set[Vec] = set(lone)
    for e in edges:
        vertex_points.update(finite_endpoints(e))

    ordered_vertices = sorted(vertex_points)
    vid = {p: i for i, p in enumerate(ordered_vertices)}

    edges_sorted = sorted(edges, key=lambda e: e.sort_key())
    n_v = len(ordered_vertices)
    eid_base = n_v
    regions_sorted = sorted(regions, key=lambda r: r[1])
    rid = {r[0]: eid_base + len(edges_sorted) + i for i, r in enumerate(regions_sorted)}

    cells: dict[int, Cell] = {}
    for p, i in sorted(vid.items(), key=lambda kv: kv[1]):
        cells[i] = Cell(dim=0, points=(p,), rays=(), incident=())

    facet_data: dict[int, FacetData] = {}
    region_edge_ids: dict[int, list[int]] = {r[0]: [] for r in regions}
    for i, e in enumerate(edges_sorted):
        edge_id = eid_base + i
        incident = tuple(sorted(vid[p] for p in finite_endpoints(e)))
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
    for key, label, points, rays in regions_sorted:
        region_id = rid[key]
        cells[region_id] = Cell(
            dim=2, points=points, rays=rays, incident=tuple(sorted(region_edge_ids[key]))
        )
        region_labels[region_id] = label

    return LabeledSubdivision(
        convention=convention,
        domain=domain,
        cells=cells,
        region_labels=region_labels,
        facet_data=facet_data,
    )


def _dual_cells(
    v: Valuation, bundles: list[IVec]
) -> tuple[list[tuple[Vec, tuple[IVec, ...]]], HPolyhedron]:
    """The concave dual's pieces on the sorted bundles as cells, and its
    domain, the bundle hull (``upper_concave_hull``): each piece's slope,
    the price at which the bundles of its cell are demanded together, with
    their strict hull chain."""
    pieces, cells, domain = upper_concave_hull([(q, v.entries[q]) for q in bundles])
    chains = [_hull_chain_ccw([bundles[i] for i in cell]) for cell in cells]
    return [(p.slope, chain) for p, chain in zip(pieces, chains)], domain


def _collinear(bundles: Sequence[IVec]) -> bool:
    """Whether the bundles, two or more, lie on one line."""
    return len(first_independent([(*q, 1) for q in bundles], 3)) == 2


def _fan(cells: list[tuple[Vec, tuple[IVec, ...]]]) -> dict[tuple[IVec, IVec], tuple[Vec, IVec]]:
    """The side table of the lifted cells: each side q -> b of a cell's ccw
    chain, mapped to the cell's price and its corner before q.  A side two
    cells share is in the table both ways; a side on the bundle hull only
    one way."""
    fan = {}
    for price, chain in cells:
        for a, q, b in zip(chain[-1:] + chain[:-1], chain, chain[1:] + chain[:1]):
            fan[q, b] = price, a
    return fan


def _inner_normal(a: IVec, b: IVec) -> IVec:
    """The primitive normal of the side a -> b of a ccw chain, into the chain."""
    return primitive_direction((a[1] - b[1], b[0] - a[0]))[0]


def _facet(a: IVec, b: IVec, points: tuple[Vec, ...], rays: tuple[IVec, ...]) -> _EdgeDraft:
    """The price complex's edge between the regions of bundles a and b, from
    the lex-larger to the smaller, weighted by their difference's lattice
    length."""
    high, low = max(a, b), min(a, b)
    normal, weight = primitive_direction((high[0] - low[0], high[1] - low[1]))
    return _EdgeDraft(points, rays, (high, low), Fraction(weight), normal, None)


# ---------------------------------------------------------------------------
# public constructions
# ---------------------------------------------------------------------------


def price_complex(v: Valuation) -> LabeledSubdivision:
    """Subdivision of price space into regions of constant demand, labeled by
    the bundle demanded.

    It is the cell-wise dual of the regular subdivision that the values
    induce on the bundles, read off the concave dual's pieces and cells
    (``_dual_cells``), as the demand complex is.  Each piece's slope is a
    price vertex, where the bundles of its cell are demanded together; their
    strict hull chain gives the cell's sides.  Every side is the facet
    between the regions of its two ends, from the lex-larger bundle to the
    smaller, weighted by the lattice length of their difference: a side two
    cells share is the segment between their prices, and a side on the
    bundle hull is the ray from its cell's price along its primitive inner
    normal.  A corner of a chain gets a region, its cells' prices in ccw
    order around it: a walk from the hull side it starts to the one it ends,
    between two rays, or once round when no hull side meets it, from the
    least price.  Collinear bundles give one full line through each price,
    across the bundles' line, and strips and half-planes between them; one
    bundle gives the whole plane.  The domain is the plane.  Capped at
    MAX_HULL_POINTS bundles, which also caps the demand complex, its dual.
    """
    if v.goods != 2:
        raise UnsupportedDimension("price complexes are built in 2-D only")
    bundles = v.bundles()
    check_hull_cap("price complex", len(bundles))
    plane = HPolyhedron(2, ())
    if len(bundles) == 1:
        q = bundles[0]
        return _assemble([], [(q, ivec_to_vec(q), (), ())], "max", plane)
    cells, _ = _dual_cells(v, bundles)

    if _collinear(bundles):
        # Each cell is a segment (low, high) of the bundles' line, and its
        # price lies on that line, where the tie line across it meets it.
        r = _inner_normal(bundles[0], bundles[-1])
        back = (-r[0], -r[1])
        line = tuple(sorted((r, back)))
        edges, strips = [], {}
        for price, (low, high) in cells:
            edges.append(_facet(high, low, (price,), line))
            for q in (low, high):
                # A half-plane lies left of its first ray.
                dirs = (r, back) if q == bundles[-1] else (back, r)
                strips[q] = (q, ivec_to_vec(q), (), dirs)
        return _assemble(edges, list(strips.values()), "max", plane)

    fan = _fan(cells)
    edges, start = [], {}
    for (a, b), (price, _) in fan.items():
        across = fan.get((b, a))
        if across is None:
            # a -> b lies on the bundle hull; the walk round a starts here.
            start[a] = b
            edges.append(_facet(a, b, (price,), (_inner_normal(a, b),)))
        else:
            start.setdefault(a, b)
            if a > b:
                edges.append(_facet(a, b, tuple(sorted((price, across[0]))), ()))
    regions = []
    for q, first in start.items():
        b, chain, rays = first, [], ()
        while True:
            price, a = fan[q, b]
            chain.append(price)
            if (q, a) not in fan:
                # a -> q lies on the bundle hull: the walk ends between two rays.
                rays = (_inner_normal(q, first), _inner_normal(a, q))
                break
            b = a
            if b == first:
                i = chain.index(min(chain))
                chain = chain[i:] + chain[:i]
                break
        regions.append((q, ivec_to_vec(q), tuple(chain), rays))
    return _assemble(edges, regions, "max", plane)


def demand_complex(v: Valuation) -> LabeledSubdivision:
    """Subdivision of the bundle hull into the cells demanded together,
    labeled by their indifference prices.

    Each piece of the concave dual (``_dual_cells``) is a cell: the bundles
    it is tight on are demanded together at its slope, so it gives the
    region labeled by that price, the hull chain of those bundles.  The
    sides come off the side table (``_fan``) that the price complex reads.
    A side in it both ways is shared by two regions: the facet from the
    lex-smaller price to the larger, weighted by the lattice length of
    their difference.  A side in it one way only lies on the domain, the
    bundle hull, which ``upper_concave_hull`` returns too.  One bundle
    gives one lone vertex.  Capped at MAX_HULL_POINTS bundles.
    """
    if v.goods != 2:
        raise UnsupportedDimension("demand complexes are built in 2-D only")
    bundles = v.bundles()
    if _collinear(bundles):
        raise DegenerateInput("bundles are affinely collinear; the dual complex is 1-D")
    check_hull_cap("demand complex", len(bundles))
    cells, domain = _dual_cells(v, bundles)
    if len(bundles) == 1:
        return _assemble([], [], "min", domain, bundles)

    fan, edges = _fan(cells), []
    for (a, b), (price, _) in fan.items():
        across = fan.get((b, a))
        if across is None:
            edges.append(_EdgeDraft(tuple(sorted((a, b))), (), None, None, None, price))
        elif a < b:
            low, high = sorted((price, across[0]))
            prim, weight = rational_direction(vsub(low, high))
            edges.append(_EdgeDraft((a, b), (), (low, high), weight, prim, None))
    regions = [(price, price, chain, ()) for price, chain in cells]
    return _assemble(edges, regions, "min", domain)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_normal_labeling(s: LabeledSubdivision) -> tuple[bool, list[LabelingViolation]]:
    """Verify every interior facet factors its label difference as stated."""
    violations: list[LabelingViolation] = []
    # One point per region per call, for the facets that reach it.
    representative = functools.cache(functools.partial(_region_representative, s))
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
        if not is_primitive(fd.normal):
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
        direction = _int_direction(cell)
        if dot(fd.normal, direction) != 0:
            violations.append(
                LabelingViolation(edge_id, "normal is not perpendicular to the facet")
            )
            continue
        rep_from, rep_to = representative(fd.from_region), representative(fd.to_region)
        if rep_from is not None and rep_to is not None:
            side = dot(fd.normal, vsub(rep_to, rep_from))
            if side < 0:
                violations.append(
                    LabelingViolation(edge_id, "normal points from 'to' into 'from'")
                )
    return (not violations), violations


def check_balancing(s: LabeledSubdivision) -> BalanceReport:
    """Sum the ccw-oriented weighted facet normals around each interior vertex.

    Vertices incident to any boundary facet (no facet data) are reported as
    skipped, not checked.

    The ccw order and the side of each normal depend only on the direction
    of each edge, so both run on an integer direction per edge: a segment's
    b - a times the positive denominators of its own coordinates, or the
    ray itself.  Each edge takes its own scale: a parsed document may carry
    many distinct large denominators, and one lcm over all of them would
    make every product huge.  Weights, contributions and residuals stay
    Fractions.
    """
    # Each vertex's incident edges in id order, built in one pass.
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
            d = _int_direction(cell)
            if len(cell.points) == 2 and cell.points[1] == point:
                d = (-d[0], -d[1])  # the vertex is the segment's far end
            entries.append((e, d))
        entries = _sort_ccw(entries, key=lambda item: item[1])
        contributions: list[tuple[Fraction, IVec]] = []
        for e, (dx, dy) in entries:
            fd = s.facet_data[e]
            nx, ny = fd.normal
            # The normal's side of the edge: its dot with rot90ccw(d).
            if nx * -dy + ny * dx > 0:
                oriented = (-nx, -ny)
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
    direction = _int_direction(cell)
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
    gets the whole plane, and a lone region becomes one vertex on its label.
    The dual lies on the hull of the region labels, except that the dual of
    a subdivision with a domain and at least one edge lies in the plane.
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
        return _assemble([], [], convention, convex_hull_halfspaces([label]), [label])

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
        dual_regions.append(
            (vertex, s.cells[vertex].points[0], _hull_chain_ccw(corners[vertex]), vertex_rays)
        )
    if s.domain.halfspaces:
        domain = HPolyhedron(2, ())
    else:
        domain = convex_hull_halfspaces([s.region_labels[r] for r in regions])
    return _assemble(dual_edges, dual_regions, convention, domain)
