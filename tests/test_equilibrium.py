import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropical_demand import (
    Allocation,
    DemandSet,
    Valuation,
    DegenerateInput,
    DomainError,
    Economy,
    HalfSpace,
    InstanceTooLarge,
    aggregate_indirect,
    demand,
    dualize,
    duality_test,
    max_aggregate_utility,
    min_aggregate_indirect,
    price_complex,
    walrasian_check,
)
from tropical_demand import equilibrium
from tropical_demand.equilibrium import _build_certificate
from tropical_demand.exactmath import dot

import fraction_simplex
from fraction_simplex import LinearProgram
from conftest import economies, make_valuation, valuations

F = Fraction


def vec(*cs):
    return tuple(F(c) for c in cs)


def economy_potential(e: Economy, p, a: Allocation) -> Fraction:
    """Aggregate utility minus aggregate indirect utility: at most 0, and 0
    exactly at a Walrasian equilibrium."""
    total_u = sum((v.entries[q] for v, q in zip(e.consumers, a.bundles)), F(0))
    return total_u - aggregate_indirect(e, p)


# ---------------------------------------------------------------------------
# aggregate indirect utility
# ---------------------------------------------------------------------------


def test_aggregate_indirect_at_candidate_prices(no_equilibrium_economy):
    assert aggregate_indirect(no_equilibrium_economy, vec(25, 45)) == 75


def test_aggregate_indirect_at_zero_prices(no_equilibrium_economy):
    # Each consumer takes its maximum raw value; the endowment term is zero.
    assert aggregate_indirect(no_equilibrium_economy, vec(0, 0)) == 60 + 70


def test_aggregate_indirect_at_huge_prices(five_bundle_valuation):
    e = Economy(goods=2, consumers=(five_bundle_valuation,), endowment=(2, 2))
    p = vec(F(10**6), F(10**6))
    # demand collapses to the zero bundle, leaving only the endowment value
    assert aggregate_indirect(e, p) == dot(p, (2, 2))


def test_aggregate_indirect_rejects_negative_prices(no_equilibrium_economy):
    with pytest.raises(DomainError):
        aggregate_indirect(no_equilibrium_economy, vec(-1, 0))


# ---------------------------------------------------------------------------
# optimization sides
# ---------------------------------------------------------------------------


def test_min_aggregate_indirect_golden(no_equilibrium_economy):
    value, prices, unique = min_aggregate_indirect(no_equilibrium_economy)
    assert value == 75
    assert prices == vec(25, 45)
    assert unique is True


def test_min_aggregate_indirect_single_consumer(five_bundle_valuation):
    e = Economy(goods=2, consumers=(five_bundle_valuation,), endowment=(2, 2))
    value, prices, unique = min_aggregate_indirect(e)
    assert value == 34
    # the minimum is attained on the whole region where (2,2) is demanded,
    # so the argmin is not unique; (0,0) is one minimizer
    assert unique is False
    assert aggregate_indirect(e, prices) == 34
    assert aggregate_indirect(e, vec(0, 0)) == 34


def test_min_aggregate_indirect_zero_bundle_economy():
    e = Economy(
        goods=2,
        consumers=(make_valuation({(0, 0): 0}), make_valuation({(0, 0): 0})),
        endowment=(0, 0),
    )
    value, prices, _ = min_aggregate_indirect(e)
    assert value == 0 and prices == vec(0, 0)


def test_max_aggregate_utility_golden(no_equilibrium_economy):
    value, allocations = max_aggregate_utility(no_equilibrium_economy)
    assert value == 70
    assert [a.bundles for a in allocations] == [((0, 0), (1, 1))]


def test_max_aggregate_utility_single_consumer(five_bundle_valuation):
    e = Economy(goods=2, consumers=(five_bundle_valuation,), endowment=(2, 2))
    value, allocations = max_aggregate_utility(e)
    assert value == 34
    assert [a.bundles for a in allocations] == [((2, 2),)]


def test_max_aggregate_utility_zero_endowment(five_bundle_valuation):
    e = Economy(goods=2, consumers=(five_bundle_valuation,), endowment=(0, 0))
    value, allocations = max_aggregate_utility(e)
    assert value == 0
    assert [a.bundles for a in allocations] == [((0, 0),)]


def test_max_aggregate_utility_cap(no_equilibrium_economy, monkeypatch):
    monkeypatch.setattr(equilibrium, "MAX_ALLOCATIONS", 3)
    with pytest.raises(InstanceTooLarge):
        max_aggregate_utility(no_equilibrium_economy)


def test_max_aggregate_utility_argmax_order_golden():
    # Four maximizers, listed in product order of the supports; consumer 3
    # owns a bundle outside the endowment and a rational value.  Recorded
    # with the exhaustive product walk.
    a = make_valuation({(0, 0): 0, (1, 0): 2, (0, 1): 2, (1, 1): 4, (2, 0): 3})
    b = make_valuation({(0, 0): 0, (1, 0): 2, (0, 1): 2, (1, 1): 4})
    c = make_valuation({(0, 0): 0, (1, 0): 2, (0, 1): F(3, 2), (0, 2): 4, (3, 0): 9})
    e = Economy(goods=2, consumers=(a, b, c), endowment=(2, 2))
    value, allocations = max_aggregate_utility(e)
    assert value == 8
    assert [x.bundles for x in allocations] == [
        ((0, 1), (1, 1), (1, 0)),
        ((1, 0), (1, 0), (0, 2)),
        ((1, 1), (0, 1), (1, 0)),
        ((1, 1), (1, 1), (0, 0)),
    ]


def test_max_aggregate_utility_many_zero_only_consumers():
    # A consumer whose only bundle is zero does not count against the cap,
    # so the backtrack must not recurse once per consumer.
    zero = make_valuation({(0, 0): 0})
    a = make_valuation({(0, 0): 0, (1, 0): 3})
    e = Economy(goods=2, consumers=(a,) + (zero,) * 2000 + (a,), endowment=(1, 0))
    value, allocations = max_aggregate_utility(e)
    assert value == 3
    assert [(x.bundles[0], x.bundles[-1]) for x in allocations] == [((0, 0), (1, 0)), ((1, 0), (0, 0))]


def _product_walk(e: Economy) -> tuple[Fraction, tuple[Allocation, ...]]:
    """Independent oracle: every allocation in the product of the supports,
    feasibility filtered, keeping each one that attains the maximum."""
    best, argmax = None, []
    for combo in itertools.product(*(v.bundles() for v in e.consumers)):
        if any(sum(q[l] for q in combo) > e.endowment[l] for l in range(e.goods)):
            continue
        total = sum((v.entries[q] for v, q in zip(e.consumers, combo)), F(0))
        if best is None or total > best:
            best, argmax = total, [Allocation(bundles=combo)]
        elif total == best:
            argmax.append(Allocation(bundles=combo))
    return best, tuple(argmax)


@st.composite
def allocation_economies(draw):
    """1-3 goods, 1-4 consumers with up to five bundles each in [0, 3]^L,
    so some lie outside the endowment; rational values, sometimes all zero
    (then every feasible allocation is a maximizer), sometimes with small
    denominators (ties are frequent) and sometimes k + 1/d or k - 1/d with
    pairwise-distinct denominators d up to 10^6 (the lcm that scales them
    runs to up to about a hundred digits); the endowment is sometimes zero."""
    goods = draw(st.integers(1, 3))
    zero = (0,) * goods
    kind = draw(st.sampled_from(("zero", "small", "distinct")))
    bundles = st.tuples(*[st.integers(0, 3)] * goods)
    small = st.fractions(min_value=-5, max_value=20, max_denominator=4)
    distinct = st.lists(st.integers(2, 10**6), min_size=16, max_size=16, unique=True)
    denominators = iter(draw(distinct))

    def value():
        if kind == "zero":
            return F(0)
        if kind == "small":
            return draw(small)
        d = next(denominators)
        return F(draw(st.integers(-5, 20)) * d + draw(st.sampled_from((-1, 1))), d)

    consumers = []
    for _ in range(draw(st.integers(1, 4))):
        extra = draw(st.lists(bundles, max_size=4, unique=True))
        entries = {q: value() for q in extra if q != zero}
        consumers.append(Valuation(goods=goods, entries={zero: F(0), **entries}))
    endowment = zero if draw(st.booleans()) else draw(bundles)
    return Economy(goods=goods, consumers=tuple(consumers), endowment=endowment)


@settings(max_examples=300, deadline=None)
@given(allocation_economies())
def test_max_aggregate_utility_matches_product_walk(e):
    assert max_aggregate_utility(e) == _product_walk(e)


def _argmax_by_fractions(v: Valuation, p) -> DemandSet:
    """Independent oracle: every surplus u(q) - p.q as a Fraction, one by one."""
    surplus = {q: u - sum((F(a) * b for a, b in zip(p, q)), F(0)) for q, u in v.entries.items()}
    best = max(surplus.values())
    return DemandSet(bundles=frozenset(q for q, s in surplus.items() if s == best), value=best)


@st.composite
def demand_cases(draw):
    """A valuation of 1-3 goods and a price vector, both with denominators
    up to 10^6 (prices are sometimes ints); some bundles, the zero bundle
    possibly among them, get u(q) = c + p.q for one level c, so they tie
    exactly."""
    goods = draw(st.integers(1, 3))
    big = st.fractions(min_value=-50, max_value=50, max_denominator=10**6)
    p = tuple(draw(st.one_of(big, st.integers(-50, 50))) for _ in range(goods))
    level = draw(big)
    bundles = draw(st.lists(st.tuples(*[st.integers(0, 4)] * goods), max_size=8, unique=True))
    entries = {}
    for q in [(0,) * goods, *bundles]:
        entries[q] = level + dot(p, q) if draw(st.booleans()) else draw(big)
    return Valuation(goods=goods, entries=entries), p


@settings(max_examples=300, deadline=None)
@given(demand_cases())
def test_demand_matches_fraction_argmax(case):
    v, p = case
    assert demand(v, p) == _argmax_by_fractions(v, p)


# ---------------------------------------------------------------------------
# duality test
# ---------------------------------------------------------------------------


def test_duality_test_non_existence(no_equilibrium_economy):
    report = duality_test(no_equilibrium_economy)
    assert report.min_value == 75 and report.max_value == 70
    assert report.gap == 5
    assert report.exists is False
    assert report.certificate is None
    assert report.price_unique is True
    sets = [sorted(ds.bundles) for ds in report.demand_sets_at_argmin]
    assert sets == [[(0, 1), (1, 0)], [(0, 0), (1, 1)]]
    # no selection from the demand sets clears the market at these prices:
    # every feasible sum leaves a positively priced good unsold
    for combo in itertools.product(*(sorted(ds.bundles) for ds in report.demand_sets_at_argmin)):
        total = tuple(sum(b[l] for b in combo) for l in range(2))
        if all(t <= w for t, w in zip(total, (1, 1))):
            leftover = tuple(w - t for t, w in zip(total, (1, 1)))
            assert dot(report.argmin_prices, leftover) != 0


def test_duality_test_single_consumer_equilibrium(five_bundle_valuation):
    e = Economy(goods=2, consumers=(five_bundle_valuation,), endowment=(2, 2))
    report = duality_test(e)
    assert report.gap == 0 and report.exists is True
    assert report.certificate is not None
    assert report.certificate.allocation.bundles == ((2, 2),)
    ok, _ = walrasian_check(e, report.certificate.prices, report.certificate.allocation)
    assert ok


def test_duality_test_assignment_economy_clears():
    # Two unit-demand consumers, two goods: assignment economies always
    # have Walrasian prices.
    a = make_valuation({(0, 0): 0, (1, 0): 4, (0, 1): 7})
    b = make_valuation({(0, 0): 0, (1, 0): 6, (0, 1): 3})
    e = Economy(goods=2, consumers=(a, b), endowment=(1, 1))
    report = duality_test(e)
    assert report.exists is True
    assert report.max_value == 13  # a takes the second good, b the first
    assert report.certificate is not None


def test_duality_test_bounded_non_unique_prices():
    # One good, u(1) = 3, endowment 1: f(p) = max(0, 3 - p) + p is 3 on all
    # of [0, 3], and the reported price is the least of them.
    e = Economy(goods=1, consumers=(make_valuation({(0,): 0, (1,): 3}, goods=1),), endowment=(1,))
    report = duality_test(e)
    assert report.min_value == 3 and report.argmin_prices == vec(0)
    assert report.price_unique is False


def test_duality_test_unbounded_non_unique_prices():
    # Nothing to sell: f(p) = max(0, 3 - p_1) is 0 on p_1 >= 3 with p_2 free,
    # an unbounded optimal face whose lex-min point is (3, 0).
    e = Economy(goods=2, consumers=(make_valuation({(0, 0): 0, (1, 0): 3}),), endowment=(0, 0))
    report = duality_test(e)
    assert report.min_value == 0 and report.argmin_prices == vec(3, 0)
    assert report.price_unique is False


@pytest.fixture
def kernel_runs(monkeypatch):
    """The perturbation sign of every run of the simplex kernel."""
    runs = []
    kernel = equilibrium._bland

    def counting(tableau, basis, ncols, lex):
        runs.append({s for _, s in lex})
        return kernel(tableau, basis, ncols, lex)

    monkeypatch.setattr(equilibrium, "_bland", counting)
    return runs


def test_duality_test_solves_one_lp(no_equilibrium_economy, kernel_runs):
    # One configuration LP, run for the lex-min price (+e) and, from the
    # same start, for the lex-max (-e) only when every good has some
    # endowment and the first optimal basis is not feasible for -e.
    one_good = make_valuation({(0,): 0, (1,): 3}, goods=1)
    # Either good alone is worth 1: every mix of the two is optimal, so the
    # optimal basis is degenerate, yet p = 0 is the only optimal price.
    either = make_valuation({(0, 0): 0, (1, 0): 1, (0, 1): 1})
    for e, unique, runs in [
        (no_equilibrium_economy, True, [{1}]),
        (Economy(goods=1, consumers=(one_good,), endowment=(1,)), False, [{1}, {-1}]),
        (Economy(goods=2, consumers=(either,), endowment=(1, 1)), True, [{1}, {-1}]),
        (Economy(goods=2, consumers=(either,), endowment=(2, 0)), False, [{1}]),
    ]:
        kernel_runs.clear()
        assert duality_test(e).price_unique is unique
        assert kernel_runs == runs


def test_duality_test_refuses_over_cap_before_the_lp(no_equilibrium_economy, kernel_runs, monkeypatch):
    monkeypatch.setattr(equilibrium, "MAX_ALLOCATIONS", 3)
    with pytest.raises(InstanceTooLarge, match="16 allocations exceed the cap of 3"):
        duality_test(no_equilibrium_economy)
    assert kernel_runs == []


# ---------------------------------------------------------------------------
# walrasian_check and the economy potential
# ---------------------------------------------------------------------------


def test_walrasian_check_rejects_efficient_allocation_at_candidate_prices(
    no_equilibrium_economy,
):
    ok, receipts = walrasian_check(
        no_equilibrium_economy, vec(25, 45), Allocation(((0, 0), (1, 1)))
    )
    assert not ok
    # consumer 1 keeps surplus 0 at (0,0) but could get 5 by selling one good
    assert receipts[0].surplus == 0 and receipts[0].best_surplus == 5
    assert receipts[1].optimal


def test_certificate_guard_rejects_non_walrasian_allocations(no_equilibrium_economy):
    # A zero gap rules both cases out; reaching them means a broken invariant.
    not_optimal = (vec(25, 45), Allocation(((0, 0), (1, 1))))
    priced_leftover = (vec(1000, 1000), Allocation(((0, 0), (0, 0))))
    for prices, allocation in (not_optimal, priced_leftover):
        with pytest.raises(DegenerateInput):
            _build_certificate(no_equilibrium_economy, prices, allocation)


def test_walrasian_check_single_consumer(five_bundle_valuation):
    e = Economy(goods=2, consumers=(five_bundle_valuation,), endowment=(2, 2))
    ok, receipts = walrasian_check(e, vec(0, 0), Allocation(((2, 2),)))
    assert ok and receipts[0].surplus == 34


def test_walrasian_check_huge_prices_zero_allocation(no_equilibrium_economy):
    p = vec(1000, 1000)
    ok, _ = walrasian_check(no_equilibrium_economy, p, Allocation(((0, 0), (0, 0))))
    assert ok  # per-consumer optimality only; clearing is not this check's job


def test_walrasian_check_rejects_infeasible_allocation(no_equilibrium_economy):
    with pytest.raises(DomainError):
        walrasian_check(
            no_equilibrium_economy, vec(25, 45), Allocation(((1, 1), (1, 1)))
        )


@pytest.mark.parametrize(
    "prices, bundles, message",
    [
        (vec(25), ((0, 0), (1, 1)), "price vector has wrong length"),
        (vec(25, 45), ((2, 0), (0, 0)), "bundle (2, 0) is not in the consumer's support"),
    ],
)
def test_walrasian_check_rejects_bad_arguments(no_equilibrium_economy, prices, bundles, message):
    with pytest.raises(DomainError) as info:
        walrasian_check(no_equilibrium_economy, prices, Allocation(bundles))
    assert str(info.value) == message


def test_economy_potential_golden(no_equilibrium_economy):
    y = economy_potential(no_equilibrium_economy, vec(25, 45), Allocation(((0, 0), (1, 1))))
    assert y == -5


def test_economy_potential_zero_at_equilibrium(five_bundle_valuation):
    e = Economy(goods=2, consumers=(five_bundle_valuation,), endowment=(2, 2))
    assert economy_potential(e, vec(0, 0), Allocation(((2, 2),))) == 0


# ---------------------------------------------------------------------------
# randomized invariants
# ---------------------------------------------------------------------------


def _min_indirect_by_candidate_enumeration(e: Economy) -> Fraction:
    """Independent oracle for two goods: the piecewise-linear aggregate is
    minimized at an intersection of tie lines and axes; enumerate them all."""
    lines = []
    for v in e.consumers:
        bundles = sorted(v.entries)
        for qa, qb in itertools.combinations(bundles, 2):
            normal = (F(qa[0] - qb[0]), F(qa[1] - qb[1]))
            if normal == (F(0), F(0)):
                continue
            lines.append((normal, v.entries[qa] - v.entries[qb]))
    lines.append(((F(1), F(0)), F(0)))
    lines.append(((F(0), F(1)), F(0)))
    candidates = {(F(0), F(0))}
    for (n1, c1), (n2, c2) in itertools.combinations(lines, 2):
        det = n1[0] * n2[1] - n1[1] * n2[0]
        if det == 0:
            continue
        x = (c1 * n2[1] - c2 * n1[1]) / det
        y = (n1[0] * c2 - n2[0] * c1) / det
        if x >= 0 and y >= 0:
            candidates.add((x, y))
    return min(aggregate_indirect(e, p) for p in candidates)


@settings(max_examples=20, deadline=None)
@given(economies())
def test_weak_duality_and_test_equivalence(e):
    report = duality_test(e)
    assert report.gap >= 0
    assert report.exists == (report.gap == 0)

    # every feasible allocation keeps the potential nonpositive
    value, allocations = max_aggregate_utility(e)
    for a in allocations:
        assert economy_potential(e, report.argmin_prices, a) <= 0

    # brute-force search over demand-set selections at the minimizing
    # prices: an optimal, market-clearing selection exists iff gap == 0
    found = False
    for combo in itertools.product(
        *(sorted(demand(v, report.argmin_prices).bundles) for v in e.consumers)
    ):
        total = tuple(sum(b[l] for b in combo) for l in range(e.goods))
        if any(t > w for t, w in zip(total, e.endowment)):
            continue
        leftover = tuple(w - t for t, w in zip(total, e.endowment))
        if dot(report.argmin_prices, leftover) != 0:
            continue
        allocation = Allocation(bundles=combo)
        ok, _ = walrasian_check(e, report.argmin_prices, allocation)
        if ok:
            found = True
            assert economy_potential(e, report.argmin_prices, allocation) == 0
    assert found == report.exists
    if report.exists:
        ok, _ = walrasian_check(e, report.certificate.prices, report.certificate.allocation)
        assert ok
        # a zero gap makes every maximizing allocation Walrasian
        for allocation in report.argmax_allocations:
            ok, _ = walrasian_check(e, report.argmin_prices, allocation)
            assert ok


@settings(max_examples=15, deadline=None)
@given(economies(max_consumers=2, max_bundles=4))
def test_lp_matches_candidate_enumeration(e):
    value, _, _ = min_aggregate_indirect(e)
    assert value == _min_indirect_by_candidate_enumeration(e)


# ---------------------------------------------------------------------------
# the configuration LP against the Fraction epigraph LP (fraction_simplex)
# ---------------------------------------------------------------------------


@st.composite
def price_side_economies(draw):
    """1-3 goods and 1-4 consumers with up to five bundles each in [0, 2]^L,
    negative and rational values (the zero bundle's too), sometimes a good
    that no bundle holds, and endowment coordinates from 0 to 3."""
    goods = draw(st.integers(1, 3))
    unheld = draw(st.one_of(st.none(), st.integers(0, goods - 1)))
    values = st.fractions(min_value=-5, max_value=12, max_denominator=6)
    consumers = []
    for _ in range(draw(st.integers(1, 4))):
        bundles = draw(st.lists(st.tuples(*[st.integers(0, 2)] * goods), max_size=4))
        entries = {(0,) * goods: draw(values)}
        for q in bundles:
            if unheld is not None:
                q = tuple(0 if l == unheld else c for l, c in enumerate(q))
            entries.setdefault(q, draw(values))
        consumers.append(Valuation(goods=goods, entries=entries))
    endowment = tuple(draw(st.integers(0, 3)) for _ in range(goods))
    return Economy(goods=goods, consumers=tuple(consumers), endowment=endowment)


def _lex_min(lp: LinearProgram, value: Fraction, coords) -> tuple[Fraction, ...]:
    """Fix and minimize: the least x_j over the optimal face, for each j of
    ``coords`` in turn, with every earlier coordinate fixed at its least."""
    fixed = lp.equalities + ((lp.objective, value),)
    least = []
    for j in coords:
        unit = tuple(F(int(k == j)) for k in range(len(lp.objective)))
        res = fraction_simplex.simplex_solve(
            LinearProgram(unit, "min", lp.constraints, fixed, lp.nonneg)
        )
        assert res.status == "optimal"  # p >= 0 bounds every price below
        fixed += ((unit, res.value),)
        least.append(res.value)
    return tuple(least)


@settings(max_examples=200, deadline=None)
@given(price_side_economies())
def test_configuration_lp_matches_the_epigraph_lp(e):
    # The value, the lex-min price and the uniqueness verdict of the
    # configuration LP against the Fraction epigraph LP, its face probe and
    # fix-and-minimize over its optimal face.
    value, prices, unique = min_aggregate_indirect(e)
    lp = fraction_simplex.epigraph_lp(e)
    res = fraction_simplex.simplex_solve(lp)
    assert res.status == "optimal"
    coords = range(len(e.consumers), len(lp.objective))
    assert value == res.value
    assert prices == _lex_min(lp, res.value, coords)
    assert unique == fraction_simplex._optimum_is_unique(res, coords)


# ---------------------------------------------------------------------------
# the min side against the concave closure of the aggregate valuation
# ---------------------------------------------------------------------------


def _aggregate_valuation(e: Economy) -> dict[tuple[int, ...], Fraction]:
    """U, the max-plus convolution of the consumers' valuations: for each
    point x of the Minkowski sum of the supports, the most the consumers get
    from bundles that sum to x, over the whole product of the supports."""
    best: dict[tuple[int, ...], Fraction] = {}
    for combo in itertools.product(*(v.entries.items() for v in e.consumers)):
        x = tuple(sum(q[l] for q, _ in combo) for l in range(e.goods))
        total = sum((u for _, u in combo), F(0))
        if x not in best or total > best[x]:
            best[x] = total
    return best


def _concave_closure(U: dict[tuple[int, ...], Fraction], w: tuple[int, ...]) -> Fraction:
    """The concave closure of U with free disposal at w: the (L+1)-row LP
    max sum_x lambda_x U(x) subject to sum_x lambda_x x <= w, sum_x lambda_x
    = 1 and lambda >= 0, solved by the Fraction simplex.  A good that no
    point of U holds gives no row."""
    points = sorted(U)
    rows = tuple(
        HalfSpace(tuple(F(x[l]) for x in points), F(w[l]))
        for l in range(len(w))
        if any(x[l] for x in points)
    )
    lp = LinearProgram(
        objective=tuple(U[x] for x in points),
        sense="max",
        constraints=rows,
        equalities=((tuple(F(1) for _ in points), F(1)),),
        nonneg=tuple(True for _ in points),
    )
    res = fraction_simplex.simplex_solve(lp)
    assert res.status == "optimal"
    return res.value


@st.composite
def closure_economies(draw):
    """1-3 consumers with up to six bundles each in [0, 3]^2, rational or
    tie-heavy values; the endowment is any point of [0, 6]^2 or the sum of
    one bundle per consumer, a point where U is defined."""
    ties = draw(st.booleans())
    consumers = tuple(
        draw(valuations(max_bundles=6, coord=3, max_value=3 if ties else 20, rational=not ties))
        for _ in range(draw(st.integers(1, 3)))
    )
    if draw(st.booleans()):
        picks = [draw(st.sampled_from(v.bundles())) for v in consumers]
        endowment = tuple(sum(q[l] for q in picks) for l in range(2))
    else:
        endowment = (draw(st.integers(0, 6)), draw(st.integers(0, 6)))
    return Economy(goods=2, consumers=consumers, endowment=endowment)


@settings(max_examples=100, deadline=None)
@given(closure_economies())
def test_min_aggregate_indirect_is_the_concave_closure_of_the_aggregate_valuation(e):
    # Fenchel duality: the least aggregate indirect utility over p >= 0 is
    # the concave closure of U, with free disposal, at the endowment.
    value, prices, _ = min_aggregate_indirect(e)
    U = _aggregate_valuation(e)
    assert value == _concave_closure(U, e.endowment)
    # The dual half, with no LP: U(x) <= value + p.(x - w) for every x
    # says that the aggregate indirect utility at p, the most of
    # U(x) - p.(x - w), is at most the value, so the reported p >= 0
    # attains the minimum.
    assert all(c >= 0 for c in prices)
    for x, u in U.items():
        assert u <= value + dot(prices, [a - b for a, b in zip(x, e.endowment)])


@settings(max_examples=100, deadline=None)
@given(closure_economies())
def test_duality_gap_is_zero_where_the_aggregate_valuation_meets_its_closure(e):
    # The gap is the closure at w less the most U reaches below w, so it is
    # zero exactly where the two meet, and in particular where U(w) is the
    # closure at w.
    U = _aggregate_valuation(e)
    closure = _concave_closure(U, e.endowment)
    below = max(u for x, u in U.items() if all(a <= b for a, b in zip(x, e.endowment)))
    report = duality_test(e)
    assert report.gap == closure - below
    assert report.exists == (closure == below)
    if U.get(e.endowment) == closure:
        assert report.exists


# ---------------------------------------------------------------------------
# the Unimodularity Theorem as a third route to existence
# ---------------------------------------------------------------------------


def _demand_type(v: Valuation) -> frozenset[tuple[int, int]]:
    """The facet normals of v's price complex up to sign, each with its
    first nonzero coordinate positive: the primitive bundle differences
    across its facets."""
    normals = (fd.normal for fd in price_complex(v).facet_data.values())
    return frozenset(n if n > (0, 0) else (-n[0], -n[1]) for n in normals)


def _unimodular(vectors) -> bool:
    """Whether every two independent vectors of the set have determinant
    +-1, so that each such pair spans the lattice (two goods)."""
    return all(abs(a[0] * b[1] - a[1] * b[0]) <= 1 for a, b in itertools.combinations(vectors, 2))


@st.composite
def _strictly_concave(draw, length: int) -> list[int]:
    """A strictly concave integer sequence of ``length`` terms from 0."""
    steps = draw(st.lists(st.integers(-9, 9), min_size=length - 1, max_size=length - 1, unique=True))
    return list(itertools.accumulate(sorted(steps, reverse=True), initial=0))


@st.composite
def unimodular_economies(draw):
    """1-3 consumers, each v = f1(x1) + f2(x2) + g(x1 + s x2) on a box up to
    [0, 2]^2 with strictly concave f1, f2 and g and one sign s for all of
    them, and an endowment up to one past the sum of the boxes."""
    sign = draw(st.sampled_from((1, -1)))
    consumers = []
    for _ in range(draw(st.integers(1, 3))):
        a, b = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        f1, f2, g = (draw(_strictly_concave(n)) for n in (a + 1, b + 1, a + b + 1))
        least = 0 if sign == 1 else -b  # the least x1 + s x2 on the box
        entries = {
            (x1, x2): F(f1[x1] + f2[x2] + g[x1 + sign * x2 - least])
            for x1 in range(a + 1)
            for x2 in range(b + 1)
        }
        consumers.append(Valuation(goods=2, entries=entries))
    reach = [sum(max(q[l] for q in v.entries) for v in consumers) + 1 for l in range(2)]
    endowment = tuple(draw(st.integers(0, r)) for r in reach)
    return sign, Economy(goods=2, consumers=tuple(consumers), endowment=endowment)


@settings(max_examples=150, deadline=None)
@given(unimodular_economies())
def test_concave_valuations_of_one_unimodular_type_have_an_equilibrium(drawn):
    # Baldwin and Klemperer (2019): concave valuations of one demand type D
    # have an equilibrium at every supply iff D is unimodular.  Free
    # disposal (p >= 0) adds the type {e1, e2}.  g(x1 + x2) makes the goods
    # substitutes, of type (1, -1); g(x1 - x2) complements, of type (1, 1).
    sign, e = drawn
    demand_type = {(1, 0), (0, 1)}
    for v in e.consumers:
        assert dualize(v)[1] == frozenset()
        demand_type |= _demand_type(v)
    assert demand_type <= {(1, 0), (0, 1), (1, -sign)}
    assert _unimodular(demand_type)
    report = duality_test(e)
    assert report.gap == 0 and report.certificate is not None


def test_the_no_equilibrium_economy_mixes_two_types_of_determinant_two(no_equilibrium_economy):
    first, second = (_demand_type(v) for v in no_equilibrium_economy.consumers)
    assert (first, second) == ({(1, 0), (0, 1), (1, -1)}, {(1, 0), (0, 1), (1, 1)})
    assert _unimodular(first) and _unimodular(second)
    assert not _unimodular(first | second)  # (1, -1) and (1, 1): determinant 2
    assert duality_test(no_equilibrium_economy).gap == 5
