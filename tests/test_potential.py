import dataclasses
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropical_demand import (
    CorrespondenceSample,
    DegenerateInput,
    DomainError,
    InstanceTooLarge,
    NonConservative,
    Polyline,
    ToolkitError,
    check_cyclic_monotonicity,
    demand,
    demand_complex,
    dualize,
    indirect_utility,
    integrate_subdivision,
    path_integral,
    price_complex,
)

from tropical_demand.exactmath import ZERO, dot, vsub
from tropical_demand.potential import MAX_SAMPLE_PAIRS

import fraction_regions
from conftest import make_valuation, price_vectors, valuations
from fraction_consumers import path_integral as crossing_walk

F = Fraction


def vec(*cs):
    return tuple(F(c) for c in cs)


def region_by_label(s, label):
    want = tuple(F(c) for c in label)
    return next(r for r in s.regions() if s.region_labels[r] == want)


# ---------------------------------------------------------------------------
# integrate_subdivision
# ---------------------------------------------------------------------------


def test_integrate_price_complex_recovers_indirect_utility(five_bundle_valuation):
    s = price_complex(five_bundle_valuation)
    anchor = (region_by_label(s, (0, 0)), F(0))
    potential = integrate_subdivision(s, anchor)
    assert potential.convention == "max"
    got = {(p.slope, p.intercept) for p in potential.pieces}
    assert got == {
        ((F(0), F(0)), F(0)),
        ((F(-2), F(0)), F(16)),
        ((F(-1), F(-1)), F(24)),
        ((F(0), F(-2)), F(28)),
        ((F(-2), F(-2)), F(34)),
    }


def test_integrate_demand_complex_recovers_dual(five_bundle_valuation):
    s = demand_complex(five_bundle_valuation)
    anchor = (region_by_label(s, (8, 16)), F(0))
    potential = integrate_subdivision(s, anchor)
    assert potential.convention == "min"
    got = {(p.slope, p.intercept) for p in potential.pieces}
    assert got == {
        ((F(1), F(9)), F(14)),
        ((F(3), F(7)), F(14)),
        ((F(8), F(16)), F(0)),
        ((F(10), F(14)), F(0)),
    }


def test_integrate_detects_perturbed_label(five_bundle_valuation):
    s = price_complex(five_bundle_valuation)
    bad_region = region_by_label(s, (1, 1))
    labels = dict(s.region_labels)
    labels[bad_region] = (F(3), F(0))
    tampered = dataclasses.replace(s, region_labels=labels)
    anchor = (region_by_label(s, (0, 0)), F(0))
    with pytest.raises(NonConservative) as err:
        integrate_subdivision(tampered, anchor)
    assert err.value.cycle is not None
    assert bad_region in err.value.cycle


def test_integrate_one_region_complex():
    s = price_complex(make_valuation({(0, 0): 0}))
    potential = integrate_subdivision(s, (s.regions()[0], F(7)))
    assert len(potential.pieces) == 1
    assert potential.pieces[0].intercept == 7


def test_integrate_rejects_unknown_anchor(five_bundle_valuation):
    s = price_complex(five_bundle_valuation)
    with pytest.raises(DegenerateInput):
        integrate_subdivision(s, (10_000, F(0)))


@settings(max_examples=40, deadline=None)
@given(valuations())
def test_integrate_roundtrip_on_random_valuations(v):
    s = price_complex(v)
    anchor_region = s.regions()[0]
    bundle = tuple(int(c) for c in s.region_labels[anchor_region])
    potential = integrate_subdivision(s, (anchor_region, v.entries[bundle]))
    # the pieces with a full-dimensional region, by the Fraction walk
    f = indirect_utility(v)
    walked = {f.pieces[k] for k, *_ in fraction_regions.active_polygons(f)}
    assert set(potential.pieces) == walked


# ---------------------------------------------------------------------------
# path_integral
# ---------------------------------------------------------------------------


def test_closed_loop_through_all_vertices_vanishes(five_bundle_valuation):
    f = indirect_utility(five_bundle_valuation)
    loop = Polyline(
        waypoints=(vec(1, 9), vec(3, 7), vec(10, 14), vec(8, 16)), closed=True
    )
    assert path_integral(f, loop) == 0
    assert crossing_walk(f, loop) == 0


def test_open_path_equals_potential_difference(five_bundle_valuation):
    # The selection integral of demand from p0 to p equals V(p0) - V(p).
    f = indirect_utility(five_bundle_valuation)
    path = Polyline(waypoints=(vec(0, 0), vec(8, 16)))
    assert path_integral(f, path) == f.evaluate(vec(0, 0)) - f.evaluate(vec(8, 16))
    assert path_integral(f, path) == 34
    assert crossing_walk(f, path) == 34


def test_constant_potential_loop():
    f = indirect_utility(make_valuation({(0, 0): 0}))
    loop = Polyline(waypoints=(vec(1, 1), vec(5, 2), vec(3, 9)), closed=True)
    assert path_integral(f, loop) == 0


def test_path_outside_domain(five_bundle_valuation):
    dual, _ = dualize(five_bundle_valuation)  # domain is the bundle hull
    with pytest.raises(DomainError):
        path_integral(dual, Polyline(waypoints=(vec(0, 0), vec(5, 5))))


def test_path_along_a_facet_uses_the_single_valued_tangent(five_bundle_valuation):
    # The segment from (8,16) to (10,14) lies inside the facet between the
    # regions of bundles (0,0) and (1,1); any selection gives the same
    # tangential contribution.
    f = indirect_utility(five_bundle_valuation)
    path = Polyline(waypoints=(vec(8, 16), vec(10, 14)))
    assert path_integral(f, path) == f.evaluate(vec(8, 16)) - f.evaluate(vec(10, 14))
    assert crossing_walk(f, path) == f.evaluate(vec(8, 16)) - f.evaluate(vec(10, 14))


@settings(max_examples=30, deadline=None)
@given(
    valuations(max_bundles=6),
    st.lists(price_vectors(), min_size=2, max_size=6),
)
def test_closed_polyline_integrals_vanish(v, waypoints):
    f = indirect_utility(v)
    loop = Polyline(waypoints=tuple(waypoints), closed=True)
    assert path_integral(f, loop) == 0
    assert crossing_walk(f, loop) == 0


@settings(max_examples=30, deadline=None)
@given(
    valuations(max_bundles=6),
    st.lists(price_vectors(), min_size=2, max_size=6),
)
def test_open_polyline_integrals_are_path_independent(v, waypoints):
    f = indirect_utility(v)
    path = Polyline(waypoints=tuple(waypoints))
    direct = Polyline(waypoints=(waypoints[0], waypoints[-1]))
    expected = f.evaluate(waypoints[0]) - f.evaluate(waypoints[-1])
    assert path_integral(f, path) == expected
    assert path_integral(f, direct) == expected
    assert crossing_walk(f, path) == expected
    assert crossing_walk(f, direct) == expected


# ---------------------------------------------------------------------------
# path_integral against the crossing walk (fraction_consumers)
# ---------------------------------------------------------------------------


def assert_same_as_the_walk(f, path):
    # The same value, or an exception of the same type.
    try:
        want = crossing_walk(f, path)
    except ToolkitError as error:
        with pytest.raises(ToolkitError) as got:
            path_integral(f, path)
        assert type(got.value) is type(error)
    else:
        assert path_integral(f, path) == want


@st.composite
def polylines(draw, points, outside=None):
    """Open or closed polylines through 1-5 draws of ``points``, one of
    them repeated in place when there is only one or with chance, and with
    chance ``outside`` put in somewhere."""
    waypoints = draw(st.lists(points, min_size=1, max_size=5))
    if len(waypoints) == 1 or draw(st.booleans()):
        k = draw(st.integers(0, len(waypoints) - 1))
        waypoints.insert(k, waypoints[k])
    if outside is not None and draw(st.booleans()):
        waypoints.insert(draw(st.integers(0, len(waypoints))), outside)
    return Polyline(waypoints=tuple(waypoints), closed=draw(st.booleans()))


def convex_combinations(bundles):
    """Points of the bundles' hull: the bundles at nonnegative int weights,
    not all zero, over their sum."""
    n = len(bundles)
    weights = st.lists(st.integers(0, 4), min_size=n, max_size=n).filter(any)
    return weights.map(
        lambda w: tuple(sum(a * F(c) for a, c in zip(w, column)) / sum(w) for column in zip(*bundles))
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda goods: st.tuples(
    valuations(max_bundles=6, goods=goods, rational=True), polylines(price_vectors(goods))
)))
def test_path_integral_matches_the_walk_on_indirect_utilities(case):
    v, path = case
    assert_same_as_the_walk(indirect_utility(v), path)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda goods: valuations(max_bundles=6, goods=goods, rational=True)), st.data())
def test_path_integral_matches_the_walk_on_duals(v, data):
    # Convex combinations of the bundles lie in the dual's domain, a point
    # with a negative coordinate does not.
    dual, _ = dualize(v)
    outside = (F(-1),) * v.goods
    assert_same_as_the_walk(dual, data.draw(polylines(convex_combinations(v.bundles()), outside)))


@settings(max_examples=40, deadline=None)
@given(valuations(max_bundles=6, rational=True), st.data())
def test_path_integral_matches_the_walk_on_integrated_potentials(v, data):
    s = price_complex(v)
    f = integrate_subdivision(s, (s.regions()[0], F(0)))
    assert_same_as_the_walk(f, data.draw(polylines(price_vectors())))
    try:
        dc = demand_complex(v)
    except DegenerateInput:  # collinear bundles: no 2-D demand complex
        return
    if not dc.regions():  # one bundle: the demand complex is a lone vertex
        return
    g = integrate_subdivision(dc, (dc.regions()[0], F(0)))
    outside = (F(-1), F(-1))
    assert_same_as_the_walk(g, data.draw(polylines(convex_combinations(v.bundles()), outside)))


# The five-bundle price complex has the vertices (1,9), (3,7), (10,14) and
# (8,16); its demand complex is [0,2]^2 cut at the center (1,1) into four
# triangles.  Each side gets closed and open paths, a repeated waypoint, a
# segment along a facet and a segment through a vertex.
PRICE_PATHS = [
    ((vec(1, 9), vec(3, 7), vec(10, 14), vec(8, 16)), True),
    ((vec(0, 0), vec(8, 16)), False),
    ((vec(1, 9), vec(1, 9), vec(3, 7)), False),
    ((vec(8, 16), vec(10, 14)), False),
    ((vec(0, 0), vec(2, 18), vec(20, 0)), True),
]
BUNDLE_PATHS = [
    ((vec(0, 0), vec(2, 0), vec(2, 2), vec(0, 2)), True),
    ((vec(0, 0), vec(1, 1)), False),
    ((vec(0, 0), vec(2, 2), vec(2, 2), vec(F(1, 2), F(3, 2))), False),
    ((vec(0, 2), vec(2, 0), vec(F(1, 3), 0)), True),
    ((vec(0, 0), vec(3, 3)), False),
]


@pytest.mark.parametrize("waypoints, closed", PRICE_PATHS + BUNDLE_PATHS)
def test_path_integral_matches_the_walk_on_the_five_bundle_complexes(
    five_bundle_valuation, waypoints, closed
):
    v = five_bundle_valuation
    price, demand_side = price_complex(v), demand_complex(v)
    potentials = [
        indirect_utility(v),
        dualize(v)[0],
        integrate_subdivision(price, (region_by_label(price, (0, 0)), F(0))),
        integrate_subdivision(demand_side, (demand_side.regions()[0], F(0))),
    ]
    for f in potentials:
        assert_same_as_the_walk(f, Polyline(waypoints=waypoints, closed=closed))


def test_a_waypoint_of_the_wrong_length_is_refused(five_bundle_valuation):
    f = indirect_utility(five_bundle_valuation)
    path = Polyline(waypoints=(vec(0, 0), vec(1, 2, 3), vec(5, 5)))
    for route in (path_integral, crossing_walk):
        with pytest.raises(DegenerateInput, match="dimension mismatch"):
            route(f, path)
    # The walk evaluates no zero-length segment, so it returns 0 here.
    still = Polyline(waypoints=(vec(1, 2, 3), vec(1, 2, 3)))
    assert crossing_walk(f, still) == 0
    with pytest.raises(DegenerateInput, match="dimension mismatch: 3 vs 2"):
        path_integral(f, still)


def test_path_integrals_on_the_whole_grid_run_within_a_wall_bound():
    # The [0,7]^2 grid at the strictly concave 50(i + j) - 2(i^2 + j^2):
    # 64 pieces in the indirect utility and 49 in its dual.  A closed path
    # of 20 waypoints on the one and an open path of 20 on the other each
    # stay within 1 s, at about 2 ms each on a 2-vCPU host; there the
    # crossing walk, which splits every segment at every crossing of two
    # pieces, took 19.4 s and 5.5 s.
    v = make_valuation({(i, j): 50 * (i + j) - 2 * (i * i + j * j) for i in range(8) for j in range(8)})
    f, (dual, _) = indirect_utility(v), dualize(v)
    rng = random.Random(36)
    loop = tuple((F(rng.randint(-40, 240), 4), F(rng.randint(-40, 240), 4)) for _ in range(20))
    path = tuple((F(rng.randint(0, 56), 8), F(rng.randint(0, 56), 8)) for _ in range(20))
    for g, polyline, want in [
        (f, Polyline(waypoints=loop, closed=True), 0),
        (dual, Polyline(waypoints=path), dual.evaluate(path[-1]) - dual.evaluate(path[0])),
    ]:
        start = time.perf_counter()
        assert path_integral(g, polyline) == want
        assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# cyclic monotonicity
# ---------------------------------------------------------------------------


def test_demand_samples_are_cyclically_monotone(five_bundle_valuation):
    import random

    rng = random.Random(11)
    pairs = []
    for _ in range(25):
        p = (F(rng.randint(-5, 30)), F(rng.randint(-5, 30)))
        q = sorted(demand(five_bundle_valuation, p).bundles)[rng.randrange(
            len(demand(five_bundle_valuation, p).bundles)
        )]
        pairs.append((p, tuple(F(c) for c in q)))
    ok, witness = check_cyclic_monotonicity(CorrespondenceSample(pairs=tuple(pairs)))
    assert ok and witness is None


def test_increasing_univariate_data_fails_with_two_cycle():
    sample = CorrespondenceSample(pairs=(((F(0),), (F(0),)), ((F(1),), (F(1),))))
    ok, witness = check_cyclic_monotonicity(sample)
    assert not ok
    assert witness is not None and sorted(witness) == [0, 1]
    # the K=2 inequality fails: (q2-q1)(p2-p1) = 1 > 0
    assert (1 - 0) * (1 - 0) > 0


def test_single_pair_is_vacuously_monotone():
    sample = CorrespondenceSample(pairs=(((F(3),), (F(2),)),))
    ok, witness = check_cyclic_monotonicity(sample)
    assert ok and witness is None


def test_inverse_direction_swaps_roles():
    # Decreasing data: fine in both directions; the inverse test reads the
    # same pairs as samples of p(q).
    pairs = (((F(0),), (F(5),)), ((F(2),), (F(1),)), ((F(4),), (F(0),)))
    sample = CorrespondenceSample(pairs=pairs)
    assert check_cyclic_monotonicity(sample, "demand")[0]
    assert check_cyclic_monotonicity(sample, "inverse")[0]
    increasing = CorrespondenceSample(pairs=(((F(0),), (F(0),)), ((F(1),), (F(1),))))
    assert not check_cyclic_monotonicity(increasing, "inverse")[0]


def test_unknown_direction_rejected():
    sample = CorrespondenceSample(pairs=(((F(0),), (F(0),)),))
    with pytest.raises(DegenerateInput):
        check_cyclic_monotonicity(sample, "sideways")


def _demand_selection(v, prices, rng):
    """One bundle of the exact demand set at each price, drawn by ``rng``."""
    pairs = []
    for p in prices:
        options = sorted(demand(v, p).bundles)
        q = options[rng.randrange(len(options))]
        pairs.append((p, tuple(F(c) for c in q)))
    return CorrespondenceSample(pairs=tuple(pairs))


@settings(max_examples=25, deadline=None)
@given(valuations(max_bundles=6), st.lists(price_vectors(), min_size=2, max_size=8), st.randoms())
def test_cyclic_monotonicity_is_selection_invariant(v, prices, rng):
    ok, _ = check_cyclic_monotonicity(_demand_selection(v, prices, rng))
    assert ok


@pytest.mark.parametrize(
    "pairs",
    [((vec(0, 1), vec(2)),), ((vec(0, 1), vec(2)), (vec(1, 0), vec(3)))],
    ids=["one-pair", "two-pairs"],
)
def test_dimension_mismatch_rejected_in_both_directions(pairs):
    sample = CorrespondenceSample(pairs=pairs)
    with pytest.raises(DegenerateInput, match="dimension mismatch: 1 vs 2"):
        check_cyclic_monotonicity(sample, "demand")
    with pytest.raises(DegenerateInput, match="dimension mismatch: 2 vs 1"):
        check_cyclic_monotonicity(sample, "inverse")


def test_sample_over_the_pair_cap_is_refused():
    pairs = tuple((vec(i), vec(i)) for i in range(MAX_SAMPLE_PAIRS + 1))
    with pytest.raises(InstanceTooLarge) as err:
        check_cyclic_monotonicity(CorrespondenceSample(pairs=pairs))
    assert str(err.value) == (
        f"cyclic monotonicity: {MAX_SAMPLE_PAIRS + 1} pairs exceed the cap of {MAX_SAMPLE_PAIRS}"
    )


# ---------------------------------------------------------------------------
# cyclic monotonicity: a rational Bellman-Ford oracle and an assignment route
# ---------------------------------------------------------------------------


def _arc_weight(pairs, direction, i, j):
    pi, qi = pairs[i]
    pj, qj = pairs[j]
    if direction == "demand":
        return dot(qi, vsub(pj, pi))
    return dot(pi, vsub(qj, qi))


def _fraction_distances(pairs, direction):
    """Bellman-Ford's relaxation over rational weights built per arc, in the
    integer-matrix version's order: the distances, the predecessors, and the
    last node that round k - 1 relaxed (None if a round relaxed nothing)."""
    k = len(pairs)
    dist = [ZERO for _ in range(k)]
    pred = [None for _ in range(k)]
    witness_node = None
    for round_ in range(k):
        changed = False
        for i in range(k):
            for j in range(k):
                if i == j:
                    continue
                candidate = dist[i] + _arc_weight(pairs, direction, i, j)
                if candidate < dist[j]:
                    dist[j] = candidate
                    pred[j] = i
                    changed = True
                    if round_ == k - 1:
                        witness_node = j
        if not changed:
            return dist, pred, None
    return dist, pred, witness_node


def _fraction_bellman_ford(pairs, direction):
    """Bellman-Ford over rational weights built per relaxation: the same
    relaxation order and witness walk as the integer-matrix version."""
    _, pred, node = _fraction_distances(pairs, direction)
    if node is None:
        return True, None
    k = len(pairs)
    for _ in range(k):
        node = pred[node]
    cycle = [node]
    cursor = pred[node]
    while cursor != node:
        cycle.append(cursor)
        cursor = pred[cursor]
    cycle.reverse()
    start = cycle.index(min(cycle))
    return False, tuple(cycle[start:] + cycle[:start])


@settings(max_examples=25, deadline=None)
@given(valuations(max_bundles=6), st.lists(price_vectors(), min_size=1, max_size=8), st.randoms())
def test_bellman_ford_distances_are_an_afriat_potential(v, prices, rng):
    # Afriat (1967): with no negative cycle the distances phi satisfy
    # phi_j <= phi_i + w(i -> j) on all k^2 arcs, w(i -> j) = a_i . (b_j - b_i),
    # so piece i of V(x) = max_j(-phi_j - a_j . (x - b_j)) is active at b_i
    # and -a_i is a subgradient of V there (a = q, b = p in the demand
    # direction, the reverse in the inverse one).
    sample = _demand_selection(v, prices, rng)
    pairs = sample.pairs
    k = len(pairs)
    for direction in ("demand", "inverse"):
        if not check_cyclic_monotonicity(sample, direction)[0]:
            continue
        phi, _, _ = _fraction_distances(pairs, direction)
        for i in range(k):
            for j in range(k):
                assert phi[j] <= phi[i] + _arc_weight(pairs, direction, i, j)
        a, b = zip(*((q, p) if direction == "demand" else (p, q) for p, q in pairs))
        for i in range(k):
            pieces = [-phi[j] - dot(a[j], vsub(b[i], b[j])) for j in range(k)]
            assert max(pieces) == pieces[i]


def _min_assignment_cost(cost):
    """Exact Hungarian algorithm (shortest augmenting paths with row and
    column potentials): the least total cost of a permutation."""
    n = len(cost)
    u = [ZERO] * (n + 1)
    v = [ZERO] * (n + 1)
    row_of = [0] * (n + 1)  # row_of[j]: the row matched to column j, 0 if none
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        row_of[0] = i
        j0 = 0
        minv = [None] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = row_of[j0]
            delta, j1 = None, None
            for j in range(1, n + 1):
                if used[j]:
                    continue
                reduced = cost[i0 - 1][j - 1] - u[i0] - v[j]
                if minv[j] is None or reduced < minv[j]:
                    minv[j] = reduced
                    way[j] = j0
                if delta is None or minv[j] < delta:
                    delta, j1 = minv[j], j
            for j in range(n + 1):
                if used[j]:
                    u[row_of[j]] += delta
                    v[j] -= delta
                elif minv[j] is not None:
                    minv[j] -= delta
            j0 = j1
            if row_of[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            row_of[j0] = row_of[j1]
            j0 = j1
    return sum((cost[row_of[j] - 1][j - 1] for j in range(1, n + 1)), ZERO)


def test_hungarian_solver_matches_brute_force():
    import itertools
    import random

    rng = random.Random(5)
    for n in range(1, 6):
        for _ in range(20):
            cost = [[F(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(n)] for _ in range(n)]
            best = min(
                sum((cost[i][s[i]] for i in range(n)), ZERO)
                for s in itertools.permutations(range(n))
            )
            assert _min_assignment_cost(cost) == best


def _rationals():
    return st.builds(F, st.integers(-30, 30), st.sampled_from((1, 2, 3, 6, 97)))


@st.composite
def correspondence_samples(draw, max_pairs=12):
    """1-3 goods, rational prices drawn from a pool (so prices repeat), and
    bundles that are free rationals or zero, or else the affine decreasing
    map q = c - p, which is cyclically monotone in both directions."""
    goods = draw(st.integers(1, 3))
    vectors = st.tuples(*[_rationals()] * goods)
    k = draw(st.integers(1, max_pairs))
    pool = draw(st.lists(vectors, min_size=1, max_size=k))
    prices = [draw(st.sampled_from(pool)) for _ in range(k)]
    if draw(st.booleans()):
        c = draw(vectors)
        bundles = [vsub(c, p) for p in prices]
    else:
        zero = tuple(ZERO for _ in range(goods))
        bundles = [draw(st.one_of(st.just(zero), vectors)) for _ in range(k)]
    return CorrespondenceSample(pairs=tuple(zip(prices, bundles)))


@settings(max_examples=150, deadline=None)
@given(correspondence_samples())
def test_integer_matrix_matches_the_fraction_oracle(sample):
    for direction in ("demand", "inverse"):
        assert check_cyclic_monotonicity(sample, direction) == _fraction_bellman_ford(
            sample.pairs, direction
        )


@settings(max_examples=100, deadline=None)
@given(correspondence_samples(max_pairs=8))
def test_monotone_iff_identity_is_an_optimal_assignment(sample):
    # Every permutation is a product of cycles, so the cycle inequalities
    # hold iff no permutation s lowers sum_i a_i . b_s(i) below the identity's.
    pairs = sample.pairs
    k = len(pairs)
    for direction in ("demand", "inverse"):
        a, b = zip(*((q, p) if direction == "demand" else (p, q) for p, q in pairs))
        cost = [[dot(a[i], b[j]) for j in range(k)] for i in range(k)]
        identity = sum((cost[i][i] for i in range(k)), ZERO)
        ok, witness = check_cyclic_monotonicity(sample, direction)
        assert ok == (_min_assignment_cost(cost) == identity)
        if not ok:
            arcs = zip(witness, witness[1:] + witness[:1])
            assert sum((_arc_weight(pairs, direction, i, j) for i, j in arcs), ZERO) < 0
