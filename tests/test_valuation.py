from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropical_demand import (
    AffinePiece,
    EmptyCell,
    HalfSpace,
    HPolyhedron,
    PolyhedralFunction,
    UnknownBundle,
    ValidationError,
    Valuation,
    check_monotone,
    demand,
    dualize,
    essential_pieces,
    hull_support,
    indirect_utility,
    inverse_demand_region,
)
from tropical_demand.exactmath import dot
from tropical_demand.polyhedra import halfplane_intersection, interior_point, upper_concave_hull

from conftest import make_valuation, price_vectors, valuations

F = Fraction


def test_valuation_requires_zero_bundle():
    with pytest.raises(ValidationError):
        Valuation(goods=2, entries={(1, 0): F(3)})


def test_valuation_rejects_negative_coordinates():
    with pytest.raises(ValidationError):
        Valuation(goods=2, entries={(0, 0): F(0), (-1, 0): F(1)})


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
    dual = dualize(five_bundle_valuation)
    assert dual.convention == "min"
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
    dual = dualize(v)
    assert len(dual.pieces) == 1
    assert dual.evaluate((F(0), F(0))) == 0


@settings(max_examples=25, deadline=None)
@given(valuations(rational=True))
def test_dualize_with_a_zero_third_good_pads_the_two_good_dual(v):
    # Bundles with q3 = 0 span at most a plane in R^3: the dual is the
    # 2-good dual with slopes and rows padded by zeros, plus x3 = 0 as the
    # pair of rows x3 <= 0 and -x3 <= 0.
    flat = Valuation(3, {(*q, 0): u for q, u in v.entries.items()})
    two, three = dualize(v), dualize(flat)
    assert [((*p.slope, 0), p.intercept) for p in two.pieces] == [
        (p.slope, p.intercept) for p in three.pieces
    ]
    padded = {((*h.normal, 0), h.offset) for h in two.domain.halfspaces}
    padded |= {((0, 0, 1), 0), ((0, 0, -1), 0)}
    assert {(h.normal, h.offset) for h in three.domain.halfspaces} == padded
    assert len(three.domain.halfspaces) == len(padded)


def test_inverse_demand_region_center_bundle(five_bundle_valuation):
    region = inverse_demand_region(five_bundle_valuation, (1, 1))
    out, _ = halfplane_intersection(region.halfspaces)
    assert out.kind == "bounded"
    assert set(out.vertices) == {
        (F(1), F(9)),
        (F(3), F(7)),
        (F(8), F(16)),
        (F(10), F(14)),
    }


def test_inverse_demand_region_zero_bundle(five_bundle_valuation):
    region = inverse_demand_region(five_bundle_valuation, (0, 0))
    out, _ = halfplane_intersection(region.halfspaces)
    assert out.kind == "unbounded"
    assert set(out.vertices) == {(F(8), F(16)), (F(10), F(14))}
    assert set(out.rays) == {(1, 0), (0, 1)}


def test_inverse_demand_region_dominated_bundle():
    v = make_valuation({(0, 0): 0, (2, 0): 16, (1, 1): 1, (0, 2): 28, (2, 2): 34})
    on_hull, below = hull_support(v)
    assert (1, 1) in below
    with pytest.raises(EmptyCell):
        inverse_demand_region(v, (1, 1))


def test_inverse_demand_region_unknown_bundle(five_bundle_valuation):
    with pytest.raises(UnknownBundle):
        inverse_demand_region(five_bundle_valuation, (7, 7))


def test_inverse_demand_region_on_nonnegative_prices(five_bundle_valuation):
    nonneg = HPolyhedron(2, (HalfSpace((F(-1), F(0)), F(0)), HalfSpace((F(0), F(-1)), F(0))))
    region = inverse_demand_region(five_bundle_valuation, (2, 2), price_domain=nonneg)
    out, _ = halfplane_intersection(region.halfspaces)
    assert out.kind == "bounded"
    assert set(out.vertices) == {
        (F(0), F(0)),
        (F(3), F(0)),
        (F(3), F(7)),
        (F(1), F(9)),
        (F(0), F(9)),
    }


def test_parallel_piece_that_loses_everywhere_has_no_active_region():
    # Two pieces share slope (1, 0); the one with the lower intercept never
    # attains the max, so the shared builder drops it before any geometry.
    low = AffinePiece(slope=(F(1), F(0)), intercept=F(0))
    high = AffinePiece(slope=(F(1), F(0)), intercept=F(2))
    other = AffinePiece(slope=(F(0), F(1)), intercept=F(0))
    f = PolyhedralFunction("max", (low, high, other), HPolyhedron(2, ()))
    assert f.active_region(0) is None
    rows, tied = f.active_region(1)
    assert tied == (2,)
    assert rows == (HalfSpace(normal=(F(-1), F(1)), offset=F(2)),)
    assert essential_pieces(f) == {high, other}
    g = PolyhedralFunction("min", (low, high, other), HPolyhedron(2, ()))
    assert g.active_region(1) is None
    assert essential_pieces(g) == {low, other}


def test_hull_support(five_bundle_valuation):
    on_hull, below = hull_support(five_bundle_valuation)
    assert on_hull == {(0, 0), (2, 0), (1, 1), (0, 2), (2, 2)}
    assert below == frozenset()


def test_check_monotone_on_sampled_prices(five_bundle_valuation):
    samples = [
        (F(0), F(0)),
        (F(8), F(16)),
        (F(9), F(15)),
        (F(3), F(7)),
        (F(25), F(3)),
        (F(1, 2), F(40)),
    ]
    assert check_monotone(five_bundle_valuation, samples) is True


def test_check_monotone_single_sample_vacuous(five_bundle_valuation):
    assert check_monotone(five_bundle_valuation, [(F(1), F(1))]) is True


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
    U = dualize(v)
    demanded = demand(v, p).bundles
    on_hull, _ = hull_support(v)
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
    demanded = demand(v, p).bundles
    for q in sorted(v.entries):
        try:
            region = inverse_demand_region(v, q)
        except EmptyCell:
            assert q not in demanded
            continue
        assert region.contains(p) == (q in demanded)


@settings(max_examples=25, deadline=None)
@given(valuations())
def test_biconjugation_on_concavified_data(v):
    on_hull, _ = hull_support(v)
    v_hull = Valuation(goods=v.goods, entries={q: v.entries[q] for q in on_hull})
    assert {(p.slope, p.intercept) for p in dualize(v).pieces} == {
        (p.slope, p.intercept) for p in dualize(v_hull).pieces
    }
    assert essential_pieces(indirect_utility(v)) == essential_pieces(
        indirect_utility(v_hull)
    )


@settings(max_examples=25, deadline=None)
@given(valuations(), st.lists(price_vectors(), min_size=2, max_size=4))
def test_demand_is_monotone(v, prices):
    assert check_monotone(v, prices) is True


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
    # Full-dimensional 2-good sets read the dual off the region corners;
    # the lifted hull's facet walk is the oracle, in the same order.
    assert list(dualize(v).pieces) == upper_concave_hull(sorted(v.entries.items()))[0]


@settings(max_examples=60, deadline=None)
@given(any_valuations)
def test_essential_pieces_in_2d_match_the_interior_point_lp(v):
    for f in (indirect_utility(v), dualize(v)):
        expected = set()
        for k, piece in enumerate(f.pieces):
            active = f.active_region(k)
            if active is not None and interior_point(HPolyhedron(2, active[0])) is not None:
                expected.add(piece)
        assert essential_pieces(f) == expected
