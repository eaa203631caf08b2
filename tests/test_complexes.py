import dataclasses
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings

from tropical_demand import (
    DegenerateInput,
    HalfSpace,
    HPolyhedron,
    NonConservative,
    UnsupportedDimension,
    canonical_form,
    check_balancing,
    check_normal_labeling,
    convex_hull_halfspaces,
    demand,
    demand_complex,
    dualize,
    dualize_complex,
    indirect_utility,
    price_complex,
)
from tropical_demand.complexes import Cell, LabeledSubdivision, edge_direction
from tropical_demand.exactmath import (
    cross2,
    dot,
    independent_directions,
    ivec_to_vec,
    lattice_length,
    vsub,
)

from conftest import make_valuation, price_vectors, valuations

F = Fraction


def region_by_label(s, label):
    want = tuple(F(c) for c in label)
    return next(r for r in s.regions() if s.region_labels[r] == want)


# ---------------------------------------------------------------------------
# price complex
# ---------------------------------------------------------------------------


def test_price_complex_structure(five_bundle_valuation):
    s = price_complex(five_bundle_valuation)
    labels = sorted(s.region_labels.values())
    assert labels == [
        (F(0), F(0)),
        (F(0), F(2)),
        (F(1), F(1)),
        (F(2), F(0)),
        (F(2), F(2)),
    ]
    zero_cells = {s.cells[v].points[0] for v in s.vertices()}
    assert zero_cells == {
        (F(1), F(9)),
        (F(3), F(7)),
        (F(8), F(16)),
        (F(10), F(14)),
    }
    assert len(s.edges()) == 8
    rays = [e for e in s.edges() if len(s.cells[e].rays) == 1]
    assert len(rays) == 4


def test_price_complex_edge_between_empty_and_two_zero(five_bundle_valuation):
    # The facet between the regions demanding (0,0) and (2,0): weight 2,
    # normal (1,0), the vertical ray upward from (8,16).
    s = price_complex(five_bundle_valuation)
    edge = next(
        e
        for e, fd in s.facet_data.items()
        if {s.region_labels[fd.from_region], s.region_labels[fd.to_region]}
        == {(F(0), F(0)), (F(2), F(0))}
    )
    fd = s.facet_data[edge]
    cell = s.cells[edge]
    assert cell.points == ((F(8), F(16)),) and cell.rays == ((0, 1),)
    assert fd.weight == 2
    assert fd.normal == (1, 0)
    assert s.region_labels[fd.from_region] == (F(2), F(0))
    assert s.region_labels[fd.to_region] == (F(0), F(0))
    # stored relation: label(from) - label(to) == weight * normal
    assert vsub(s.region_labels[fd.from_region], s.region_labels[fd.to_region]) == (
        F(2),
        F(0),
    )


def test_price_complex_single_bundle():
    s = price_complex(make_valuation({(0, 0): 0}))
    assert len(s.regions()) == 1
    assert not s.edges() and not s.vertices()
    region = s.cells[s.regions()[0]]
    assert region.points == () and region.rays == ()  # whole plane


def test_price_complex_dimension_guard():
    v = make_valuation({(0, 0, 0): 0, (1, 0, 0): 5}, goods=3)
    with pytest.raises(UnsupportedDimension):
        price_complex(v)


def test_price_complex_is_normally_labeled(five_bundle_valuation):
    ok, violations = check_normal_labeling(price_complex(five_bundle_valuation))
    assert ok and not violations


def test_price_complex_balanced_at_all_four_vertices(five_bundle_valuation):
    report = check_balancing(price_complex(five_bundle_valuation))
    assert report.overall
    assert len(report.per_vertex) == 4 and not report.skipped_boundary
    for vb in report.per_vertex.values():
        assert vb.residual == (0, 0)


# ---------------------------------------------------------------------------
# demand complex
# ---------------------------------------------------------------------------


def test_demand_complex_structure(five_bundle_valuation):
    s = demand_complex(five_bundle_valuation)
    assert sorted(s.region_labels.values()) == [
        (F(1), F(9)),
        (F(3), F(7)),
        (F(8), F(16)),
        (F(10), F(14)),
    ]
    zero_cells = {s.cells[v].points[0] for v in s.vertices()}
    assert zero_cells == {
        (F(0), F(0)),
        (F(2), F(0)),
        (F(1), F(1)),
        (F(0), F(2)),
        (F(2), F(2)),
    }
    assert len(s.edges()) == 8
    assert len(s.boundary_edges()) == 4


def test_demand_complex_balancing_display(five_bundle_valuation):
    # Counterclockwise around the interior vertex (1,1): weights (2,7,2,7)
    # with normals (-1,1),(-1,-1),(1,-1),(1,1), summing to zero.
    s = demand_complex(five_bundle_valuation)
    report = check_balancing(s)
    assert report.overall
    assert len(report.per_vertex) == 1
    vb = next(iter(report.per_vertex.values()))
    assert vb.point == (F(1), F(1))
    assert vb.residual == (0, 0)
    expected = [
        (F(2), (-1, 1)),
        (F(7), (-1, -1)),
        (F(2), (1, -1)),
        (F(7), (1, 1)),
    ]
    got = list(vb.contributions)
    rotations = [got[i:] + got[:i] for i in range(len(got))]
    assert expected in rotations
    # total weighted sum is zero by inspection too
    assert sum(w * n[0] for w, n in expected) == 0
    assert sum(w * n[1] for w, n in expected) == 0


def test_demand_complex_single_bundle():
    s = demand_complex(make_valuation({(0, 0): 0}))
    assert not s.regions() and not s.edges()
    assert len(s.vertices()) == 1
    assert s.cells[s.vertices()[0]].points == ((F(0), F(0)),)


def test_demand_complex_domain_is_the_bundle_hull():
    # (1,1) lies on the hull edge from (0,0) to (2,2) and is demanded on no
    # region.  The hull of the region labels alone, the dual's own domain,
    # lists the same rows in another order.
    v = make_valuation({(0, 0): 0, (1, 1): 0, (2, 0): 0, (2, 2): 0})
    bundles = [ivec_to_vec(q) for q in v.bundles()]
    dc = demand_complex(v)
    assert dc.domain == convex_hull_halfspaces(bundles, 2)
    assert dc.domain != dualize_complex(price_complex(v)).domain


def test_demand_complex_is_normally_labeled(five_bundle_valuation):
    ok, violations = check_normal_labeling(demand_complex(five_bundle_valuation))
    assert ok and not violations


# ---------------------------------------------------------------------------
# checks on tampered data
# ---------------------------------------------------------------------------


def test_normal_labeling_catches_perturbed_label(five_bundle_valuation):
    s = price_complex(five_bundle_valuation)
    bad_region = region_by_label(s, (1, 1))
    labels = dict(s.region_labels)
    labels[bad_region] = (F(3), F(0))
    tampered = dataclasses.replace(s, region_labels=labels)
    ok, violations = check_normal_labeling(tampered)
    assert not ok
    flagged = {v.edge for v in violations}
    incident = {
        e
        for e, fd in s.facet_data.items()
        if bad_region in (fd.from_region, fd.to_region)
    }
    assert flagged & incident


def test_balancing_catches_tampered_weight(five_bundle_valuation):
    s = demand_complex(five_bundle_valuation)
    edge = next(
        e for e, fd in s.facet_data.items() if fd.weight == 2 and len(s.cells[e].points) == 2
    )
    fd = s.facet_data[edge]
    facets = dict(s.facet_data)
    facets[edge] = dataclasses.replace(fd, weight=F(3))
    tampered = dataclasses.replace(s, facet_data=facets)
    report = check_balancing(tampered)
    assert not report.overall
    bad = [vb for vb in report.per_vertex.values() if not vb.balanced]
    # the tampered edge is interior: its one checked endpoint picks up the
    # residual +/- the facet normal
    assert bad
    for vb in bad:
        assert vb.residual in (fd.normal, tuple(-c for c in fd.normal))


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------


def test_dualize_complex_is_an_involution(five_bundle_valuation):
    pc = price_complex(five_bundle_valuation)
    dc = demand_complex(five_bundle_valuation)
    assert canonical_form(dualize_complex(dualize_complex(pc))) == canonical_form(pc)
    assert canonical_form(dualize_complex(dc)) == canonical_form(pc)


def test_dual_edges_are_orthogonal_with_dual_weights(five_bundle_valuation):
    # Pair each price facet with its dual demand edge through the region
    # labels; directions must be exactly orthogonal and the weight of one
    # equals the lattice length of the other.
    pc = price_complex(five_bundle_valuation)
    dc = demand_complex(five_bundle_valuation)
    dc_by_labelpair = {}
    for e, fd in dc.facet_data.items():
        key = frozenset(
            (dc.region_labels[fd.from_region], dc.region_labels[fd.to_region])
        )
        dc_by_labelpair[key] = e

    paired = 0
    for e, fd in pc.facet_data.items():
        cell = pc.cells[e]
        if len(cell.points) != 2:
            continue  # bounded price facets pair with interior demand edges
        key = frozenset(p for p in cell.points)
        dual_edge = dc_by_labelpair.get(key)
        assert dual_edge is not None
        d_price = edge_direction(cell)
        d_demand = edge_direction(dc.cells[dual_edge])
        assert dot(d_price, d_demand) == 0
        assert dc.facet_data[dual_edge].weight == lattice_length(d_price)
        dual_cell = dc.cells[dual_edge]
        assert fd.weight == lattice_length(edge_direction(dual_cell))
        paired += 1
    assert paired == 4


def test_dualize_complex_rejects_broken_labeling(five_bundle_valuation):
    s = price_complex(five_bundle_valuation)
    labels = dict(s.region_labels)
    labels[region_by_label(s, (1, 1))] = (F(3), F(0))
    tampered = dataclasses.replace(s, region_labels=labels)
    with pytest.raises(NonConservative):
        dualize_complex(tampered)


def test_one_region_complex_dualizes_to_one_vertex():
    s = price_complex(make_valuation({(0, 0): 0}))
    dual = dualize_complex(s)
    assert not dual.regions() and len(dual.vertices()) == 1


def test_one_vertex_complex_dualizes_to_the_whole_plane():
    s = demand_complex(make_valuation({(0, 0): 5}))
    dual = dualize_complex(s)
    (region,) = dual.regions()
    assert not dual.vertices() and not dual.edges()
    assert dual.cells[region].points == () and dual.cells[region].rays == ()
    assert dual.region_labels == {region: (F(0), F(0))}
    assert dual.domain.halfspaces == ()


def test_dualize_complex_rejects_a_vertex_on_no_edge(five_bundle_valuation):
    s = demand_complex(five_bundle_valuation)
    stray = Cell(dim=0, points=((F(5), F(5)),), rays=(), incident=())
    tampered = dataclasses.replace(s, cells={**s.cells, max(s.cells) + 1: stray})
    with pytest.raises(DegenerateInput, match="lies on no edge"):
        dualize_complex(tampered)


def test_dualize_complex_rejects_two_whole_plane_regions():
    s = price_complex(make_valuation({(0, 0): 0}))
    (region,) = s.regions()
    tampered = dataclasses.replace(
        s,
        cells={**s.cells, region + 1: s.cells[region]},
        region_labels={**s.region_labels, region + 1: (F(1), F(0))},
    )
    with pytest.raises(DegenerateInput, match="only cell"):
        dualize_complex(tampered)


def test_dualize_complex_rejects_a_boundary_line():
    # The half-plane x <= 1: one region whose only edge is the full line
    # x = 1 on the domain boundary.  Its dual would be a ray with no dual
    # region to bound, so it is refused like a line facet.
    line = Cell(dim=1, points=((F(1), F(0)),), rays=((0, -1), (0, 1)), incident=())
    region = Cell(dim=2, points=(), rays=((0, -1), (0, 1)), incident=(0,))
    s = LabeledSubdivision(
        ambient_dim=2,
        convention="max",
        domain=HPolyhedron(2, (HalfSpace((F(1), F(0)), F(1)),)),
        cells={0: line, 1: region},
        region_labels={1: (F(0), F(0))},
        facet_data={},
    )
    with pytest.raises(DegenerateInput, match="line edges"):
        dualize_complex(s)


# ---------------------------------------------------------------------------
# covering properties
# ---------------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(valuations(max_bundles=6), price_vectors())
def test_price_complex_tiles_the_plane(v, p):
    s = price_complex(v)
    f = indirect_utility(v)
    target = f.evaluate(p)
    # regions containing p == pieces active at p among full-dim regions
    containing = []
    for r in s.regions():
        label = s.region_labels[r]
        bundle = tuple(int(c) for c in label)
        if v.entries[bundle] - dot(p, bundle) == target:
            containing.append(r)
    assert len(containing) >= 1
    if len(containing) > 1:
        # p lies on the shared facet: the demanded set at p is multi-valued
        assert len(demand(v, p).bundles) > 1


@settings(max_examples=20, deadline=None)
@given(valuations(max_bundles=8))
def test_random_price_complexes_are_balanced(v):
    s = price_complex(v)
    ok, violations = check_normal_labeling(s)
    assert ok, violations
    assert check_balancing(s).overall


@settings(max_examples=20, deadline=None)
@given(valuations(max_bundles=8))
def test_random_demand_complexes_are_balanced(v):
    try:
        s = demand_complex(v)
    except DegenerateInput:
        assume(False)  # collinear bundle sets have no 2-D dual
        return
    ok, violations = check_normal_labeling(s)
    assert ok, violations
    assert check_balancing(s).overall


@settings(max_examples=30, deadline=None)
@given(valuations(max_bundles=8, rational=True))
def test_random_price_and_demand_complexes_are_dual(v):
    # The demand complex is built as the dual of the price complex; check it
    # along a second route.  Its regions are the pieces of the concave dual,
    # each region is the ccw chain, from its least point, of the extreme
    # points of the demand set at its price, and its domain is the bundle
    # hull.  Dualizing it again gives back the price complex.
    try:
        dc = demand_complex(v)
    except DegenerateInput:
        assume(False)  # collinear bundle sets have no 2-D dual
        return
    assume(len(v.entries) > 1)  # one bundle dualizes to a lone vertex
    assert sorted(dc.region_labels.values()) == [piece.slope for piece in dualize(v).pieces]
    for region, price in dc.region_labels.items():
        demanded = [ivec_to_vec(q) for q in demand(v, price).bundles]
        rows = convex_hull_halfspaces(demanded, 2).halfspaces
        corners = {
            q
            for q in demanded
            if len(independent_directions([(0, 0), *(h.normal for h in rows if h.tight_at(q))]))
            == 2
        }
        chain = dc.cells[region].points
        assert set(chain) == corners and chain[0] == min(chain)
        turns = zip(chain, chain[1:] + chain[:1], chain[2:] + chain[:2])
        assert all(cross2(vsub(b, a), vsub(c, b)) > 0 for a, b, c in turns)
    assert dc.domain == convex_hull_halfspaces([ivec_to_vec(q) for q in v.bundles()], 2)
    assert canonical_form(dualize_complex(dc)) == canonical_form(price_complex(v))
