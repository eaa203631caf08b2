import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tropical_demand import (
    AffinePiece,
    CorrespondenceSample,
    Economy,
    HalfSpace,
    HPolyhedron,
    PolyhedralFunction,
    ValidationError,
    Valuation,
    check_cyclic_monotonicity,
    cli,
    demand,
    dualize,
    indirect_utility,
    price_complex,
    serialize,
)
from tropical_demand.exactmath import dot

import fraction_regions
from conftest import bundle_regions, in_region, make_valuation, price_vectors, valuations
from facet_walk import independent_directions

F = Fraction


def test_valuation_requires_zero_bundle():
    with pytest.raises(ValidationError):
        Valuation(goods=2, entries={(1, 0): F(3)})


def test_valuation_rejects_negative_coordinates():
    with pytest.raises(ValidationError):
        Valuation(goods=2, entries={(0, 0): F(0), (-1, 0): F(1)})


ONE_GOOD = Valuation(goods=1, entries={(0,): F(0), (1,): F(3)})


@pytest.mark.parametrize(
    "build",
    [
        lambda: Valuation(goods=True, entries={(0,): F(0)}),
        lambda: Valuation(goods=1, entries={(0,): F(0), (True,): F(3)}),
        lambda: Economy(goods=True, consumers=(ONE_GOOD,), endowment=(1,)),
        lambda: Economy(goods=1, consumers=(ONE_GOOD,), endowment=(True,)),
    ],
    ids=["valuation goods", "bundle coordinate", "economy goods", "endowment entry"],
)
def test_a_bool_is_not_a_count_or_a_coordinate(build):
    # bool is a subclass of int, and JSON would write it as true, which
    # the readers refuse as "expected an integer array".
    with pytest.raises(ValidationError):
        build()


def test_indirect_utility_pieces(five_bundle_valuation):
    f = indirect_utility(five_bundle_valuation)
    got = {(p.slope, p.intercept) for p in f.pieces}
    assert got == {
        ((F(0), F(0)), F(0)),
        ((F(-2), F(0)), F(16)),
        ((F(-1), F(-1)), F(24)),
        ((F(0), F(-2)), F(28)),
        ((F(-2), F(-2)), F(34)),
    }


def test_indirect_utility_values(five_bundle_valuation):
    f = indirect_utility(five_bundle_valuation)
    assert f.evaluate((F(0), F(0))) == 34
    assert f.evaluate((F(8), F(16))) == 0


def test_demand_golden_prices(five_bundle_valuation):
    v = five_bundle_valuation
    assert demand(v, (F(8), F(16))).bundles == {(0, 0), (2, 0), (1, 1)}
    assert demand(v, (F(9), F(15))).bundles == {(0, 0), (1, 1)}
    assert demand(v, (F(11), F(14))).bundles == {(0, 0), (0, 2)}
    free = demand(v, (F(0), F(0)))
    assert free.bundles == {(2, 2)} and free.value == 34


def test_dualize_pieces(five_bundle_valuation):
    dual, below = dualize(five_bundle_valuation)
    assert dual.convention == "min" and below == frozenset()
    got = {(p.slope, p.intercept) for p in dual.pieces}
    assert got == {
        ((F(1), F(9)), F(14)),
        ((F(3), F(7)), F(14)),
        ((F(8), F(16)), F(0)),
        ((F(10), F(14)), F(0)),
    }
    assert dual.evaluate((F(1), F(1))) == 24


def test_dualize_single_bundle():
    v = make_valuation({(0, 0): 0})
    dual, below = dualize(v)
    assert len(dual.pieces) == 1 and below == frozenset()
    assert dual.evaluate((F(0), F(0))) == 0


@settings(max_examples=25, deadline=None)
@given(valuations(rational=True))
def test_dualize_with_a_zero_third_good_pads_the_two_good_dual(v):
    # Bundles with q3 = 0 span at most a plane in R^3: the dual is the
    # 2-good dual with slopes and rows padded by zeros, plus x3 = 0 as the
    # pair of rows x3 <= 0 and -x3 <= 0.  The same bundles are never demanded.
    flat = Valuation(3, {(*q, 0): u for q, u in v.entries.items()})
    (two, two_below), (three, three_below) = dualize(v), dualize(flat)
    assert {(*q, 0) for q in two_below} == three_below
    assert [((*p.slope, 0), p.intercept) for p in two.pieces] == [
        (p.slope, p.intercept) for p in three.pieces
    ]
    padded = {((*h.normal, 0), h.offset) for h in two.domain.halfspaces}
    padded |= {((0, 0, 1), 0), ((0, 0, -1), 0)}
    assert {(h.normal, h.offset) for h in three.domain.halfspaces} == padded
    assert len(three.domain.halfspaces) == len(padded)


def test_inverse_demand_region_center_bundle(five_bundle_valuation):
    s = price_complex(five_bundle_valuation)
    region = s.cells[bundle_regions(s)[(1, 1)]]
    assert region.rays == ()
    assert set(region.points) == {
        (F(1), F(9)),
        (F(3), F(7)),
        (F(8), F(16)),
        (F(10), F(14)),
    }


def test_inverse_demand_region_zero_bundle(five_bundle_valuation):
    s = price_complex(five_bundle_valuation)
    region = s.cells[bundle_regions(s)[(0, 0)]]
    assert set(region.points) == {(F(8), F(16)), (F(10), F(14))}
    assert set(region.rays) == {(1, 0), (0, 1)}


def test_inverse_demand_region_dominated_bundle():
    v = make_valuation({(0, 0): 0, (2, 0): 16, (1, 1): 1, (0, 2): 28, (2, 2): 34})
    _, below = dualize(v)
    assert below == {(1, 1)}
    assert set(bundle_regions(price_complex(v))) == set(v.entries) - below


def test_hull_support(five_bundle_valuation):
    # Every bundle of the running example is on the concave hull.
    assert dualize(five_bundle_valuation)[1] == frozenset()


@pytest.mark.parametrize("k", range(5, 25))
def test_moment_curve_dual_has_the_cyclic_polytope_count(k):
    # The worst case for 3 goods.  A piece of the dual is an upper facet of
    # the lifted points (t, t^2, t^3, -t^4): points t1 < t2 < t3 < t4 where a
    # quartic with positive leading term vanishes, nonnegative at every other
    # t.  So t2 = t1 + 1 and t4 = t3 + 1 (Gale's evenness condition for the
    # cyclic 4-polytope): C(k - 2, 2) pieces, with every point on one.
    v = Valuation(goods=3, entries={(t, t**2, t**3): F(-(t**4)) for t in range(k)})
    dual, below = dualize(v)
    assert len(dual.pieces) == math.comb(k - 2, 2)
    assert below == frozenset()


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(valuations(), price_vectors())
def test_young_fenchel_equality(v, p):
    # With the dual defined as U(q) = min_p V(p) + p.q, conjugacy reads
    # U(q) = V(p) + p.q exactly when q is demanded at p.  A hull bundle that
    # is not demanded is strictly below; a below-hull bundle only satisfies
    # the weak inequality (it can sit inside a demanded face).
    V = indirect_utility(v)
    U, below = dualize(v)
    demanded = demand(v, p).bundles
    on_hull = set(v.entries) - below
    for q in sorted(v.entries):
        lhs = U.evaluate(q)
        rhs = V.evaluate(p) + dot(p, q)
        if q in demanded:
            assert lhs == rhs
        elif q in on_hull:
            assert lhs < rhs
        else:
            assert lhs <= rhs


@settings(max_examples=25, deadline=None)
@given(valuations(max_bundles=6), price_vectors())
def test_inverse_correspondence(v, p):
    # q's inverse-demand set is its region of the price complex; a bundle
    # with no region is demanded only where demand is multi-valued.  The
    # complex's vertices test the closed regions where they meet.
    s = price_complex(v)
    regions = bundle_regions(s)
    for price in [p, *(s.cells[x].points[0] for x in s.vertices())]:
        demanded = demand(v, price).bundles
        for q in sorted(v.entries):
            if q in regions:
                assert in_region(s, regions[q], price) == (q in demanded)
            else:
                assert q not in demanded or len(demanded) >= 2


@settings(max_examples=25, deadline=None)
@given(valuations())
def test_biconjugation_on_concavified_data(v):
    dual, below = dualize(v)
    on_hull = {q: u for q, u in v.entries.items() if q not in below}
    v_hull = Valuation(goods=v.goods, entries=on_hull)
    assert {(p.slope, p.intercept) for p in dual.pieces} == {
        (p.slope, p.intercept) for p in dualize(v_hull)[0].pieces
    }
    # The pieces with a full-dimensional region, by the Fraction walk.
    essential = [
        {f.pieces[k] for k, *_ in fraction_regions.active_polygons(f)}
        for f in (indirect_utility(v), indirect_utility(v_hull))
    ]
    assert essential[0] == essential[1]


@st.composite
def valuations_with_prices(draw):
    """A valuation and one to three prices, each a random price or the slope
    of a piece of the dual, where demand is most multi-valued."""
    v = draw(st.one_of(valuations(max_bundles=6), valuations(max_bundles=6, max_value=3)))
    slopes = [piece.slope for piece in dualize(v)[0].pieces]
    price = st.one_of(price_vectors(), st.sampled_from(slopes))
    return v, draw(st.lists(price, min_size=1, max_size=3))


@settings(max_examples=50, deadline=None)
@given(valuations_with_prices())
def test_every_demand_selection_is_cyclically_monotone(drawn):
    # Demand is the subdifferential of the convex indirect utility, so every
    # selection of the demand sets at the sampled prices passes the cycle
    # inequalities, pairs (2-cycles) included.
    v, prices = drawn
    demand_sets = [sorted(demand(v, p).bundles) for p in prices]
    for selection in itertools.product(*demand_sets):
        pairs = tuple((p, tuple(F(c) for c in q)) for p, q in zip(prices, selection))
        assert check_cyclic_monotonicity(CorrespondenceSample(pairs=pairs)) == (True, None)


# ---------------------------------------------------------------------------
# two routes to the same object
# ---------------------------------------------------------------------------

any_valuations = st.one_of(
    valuations(max_bundles=12),
    valuations(max_bundles=12, rational=True),
    valuations(max_bundles=12, max_value=3),  # ties
)


@settings(max_examples=200, deadline=None)
@given(any_valuations)
def test_dual_from_the_price_complex_matches_the_lifted_hull(v):
    # Price/demand duality read the other way: for affinely full-dimensional
    # 2-good bundles the dual's pieces are the corners p of the indirect
    # utility's active polygons, each with intercept f(p).  That route, by
    # the Fraction walk, is the oracle of the lifted hull, in the same order.
    assume(len(independent_directions(list(v.entries))) == 2)
    f = indirect_utility(v)
    corners = {
        AffinePiece(slope=p, intercept=f.pieces[k].evaluate(p))
        for k, polygon, _, _ in fraction_regions.active_polygons(f)
        for p in polygon.vertices
    }
    assert list(dualize(v)[0].pieces) == sorted(corners, key=lambda p: (p.slope, p.intercept))


# ---------------------------------------------------------------------------
# evaluation against the Fraction route's regions
# ---------------------------------------------------------------------------

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def polyhedral_functions(draw):
    """2-D max or min functions with rational pieces, repeated slopes and
    intercepts, and a domain of 0-3 rows whose normals can repeat the tie
    rows' directions."""
    slopes = st.tuples(small_fractions, small_fractions)
    pieces = draw(
        st.lists(
            st.builds(AffinePiece, slope=slopes, intercept=small_fractions),
            min_size=1,
            max_size=7,
        )
    )
    normals = slopes.filter(lambda n: any(n))
    domain = draw(
        st.lists(st.builds(HalfSpace, normal=normals, offset=small_fractions), max_size=3)
    )
    convention = draw(st.sampled_from(("max", "min")))
    return PolyhedralFunction(convention, tuple(pieces), HPolyhedron(2, tuple(domain)))


def _inner_point(polygon, edges):
    """A point inside a walked region: its corners' mean stepped along its
    rays; the origin of the whole plane; on the line through the origin
    along the normal n of a cornerless region, midway between a strip's two
    lines, or where n . x is one less than a half-plane's offset."""
    if polygon.vertices:
        k = len(polygon.vertices)
        return tuple(
            sum(x[i] for x in polygon.vertices) / k + sum(r[i] for r in polygon.rays)
            for i in range(2)
        )
    if not edges:
        return (F(0), F(0))
    n, high = edges[0].line.normal, edges[0].line.offset
    low = -edges[1].line.offset if len(edges) == 2 else high - 2
    return tuple((high + low) / 2 * c / dot(n, n) for c in n)


def _assert_same_regions(f):
    # Where f's own evaluation puts piece k against the Fraction walk, the
    # oracle of the lift and of every essential-piece comparison: k is
    # active at each corner of its walked region, and at a point inside
    # the region only k and its copies are.
    for k, polygon, edges, _ in fraction_regions.active_polygons(f):
        piece = f.pieces[k]
        assert all(piece in f.active_pieces(x) for x in polygon.vertices)
        inner = _inner_point(polygon, edges)
        assert all(dot(e.line.normal, inner) < e.line.offset for e in edges)
        assert set(f.active_pieces(inner)) == {piece}


@settings(max_examples=150, deadline=None)
@given(valuations(max_bundles=12, rational=True))
def test_max_regions_match_the_fraction_route(v):
    _assert_same_regions(indirect_utility(v))


@settings(max_examples=100, deadline=None)
@given(any_valuations)
def test_min_regions_of_the_dual_match_the_fraction_route(v):
    # Rational slopes, and the bundle hull's rows as the domain.
    _assert_same_regions(dualize(v)[0])


@settings(max_examples=200, deadline=None)
@given(polyhedral_functions())
def test_regions_of_hand_drawn_functions_match_the_fraction_route(f):
    _assert_same_regions(f)


def _function(convention, *pieces, domain=()):
    return PolyhedralFunction(
        convention,
        tuple(AffinePiece(tuple(map(F, slope)), F(b)) for slope, b in pieces),
        HPolyhedron(2, tuple(HalfSpace(tuple(map(F, n)), F(c)) for n, c in domain)),
    )


@pytest.mark.parametrize("convention", ["max", "min"])
@pytest.mark.parametrize(
    "pieces, domain",
    [
        # a duplicate slope that loses everywhere
        ([((1, 0), 0), ((1, 0), 2), ((0, 1), 0)], ()),
        # a duplicate slope that ties: both copies get the same region
        ([((1, 0), 1), ((0, 1), 0), ((1, 0), 1)], ()),
        # two pieces: each region is a half-plane
        ([((0, 0), 0), ((2, -2), F(1, 3))], ()),
        # three parallel slopes: the middle region is a strip
        ([((0, 0), 0), ((1, 1), F(-1, 2)), ((2, 2), -3)], ()),
        # a strip of the domain that shares its normals with the tie rows
        ([((0, 0), 0), ((3, 0), 1)], [((1, 0), F(5, 2)), ((-2, 0), 2)]),
    ],
)
def test_degenerate_regions_match_the_fraction_route(convention, pieces, domain):
    _assert_same_regions(_function(convention, *pieces, domain=domain))


@st.composite
def collinear_valuations(draw, goods: int):
    """Bundles on one ray from the zero bundle, with tie-heavy values."""
    step = draw(st.tuples(*[st.integers(0, 2)] * goods).filter(any))
    ks = draw(st.lists(st.integers(1, 4), max_size=4, unique=True))
    entries = {tuple(k * c for c in step): draw(st.integers(0, 3)) for k in ks}
    return make_valuation({(0,) * goods: 0, **entries}, goods)


def any_goods(goods: int):
    return st.one_of(
        valuations(max_bundles=12, rational=True, goods=goods),
        valuations(max_bundles=12, max_value=3, goods=goods),  # ties
        collinear_valuations(goods),
    )


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(any_goods))
def test_never_demanded_matches_fraction_evaluation(tmp_path_factory, v):
    # A bundle is never demanded iff the dual's min lies strictly above its
    # value; dualize and the CLI read it off the lifted hull instead.
    dual, below = dualize(v)
    expected = {q for q, u in v.entries.items() if dual.evaluate(q) > u}
    assert below == expected
    d = tmp_path_factory.mktemp("dualize")
    (d / "v.json").write_text(serialize.dumps(serialize.valuation_to_dict(v)))
    assert cli.main(["dualize", "--in", str(d / "v.json"), "--out", str(d / "d.json")]) == 0
    never = json.loads((d / "d.json").read_text())["never_demanded"]
    assert never == sorted(list(q) for q in expected)
