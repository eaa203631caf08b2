"""Acceptance suite.

One test per acceptance criterion, every comparison exact (rational
arithmetic end to end); each prints a single verdict line.  Runs in well
under a minute.
"""

import itertools
import random
from fractions import Fraction

from tropical_demand import (
    Allocation,
    CorrespondenceSample,
    Economy,
    Polyline,
    Valuation,
    aggregate_indirect,
    check_balancing,
    check_cyclic_monotonicity,
    demand,
    demand_complex,
    dualize,
    dualize_complex,
    duality_test,
    indirect_utility,
    integrate_subdivision,
    path_integral,
    price_complex,
    walrasian_check,
)
from tropical_demand.exactmath import dot, rational_direction

import fraction_regions
from conftest import bundle_regions, canonical_form, in_region
from fraction_consumers import edge_direction, path_integral as crossing_walk

F = Fraction


def vec(*cs):
    return tuple(F(c) for c in cs)


FIVE_BUNDLE = Valuation(
    goods=2,
    entries={
        (0, 0): F(0),
        (2, 0): F(16),
        (1, 1): F(24),
        (0, 2): F(28),
        (2, 2): F(34),
    },
)

TWO_CONSUMER = Economy(
    goods=2,
    consumers=(
        Valuation(goods=2, entries={(0, 0): F(0), (1, 0): F(30), (0, 1): F(50), (1, 1): F(60)}),
        Valuation(goods=2, entries={(0, 0): F(0), (1, 0): F(10), (0, 1): F(30), (1, 1): F(70)}),
    ),
    endowment=(1, 1),
)


def random_valuation(rng: random.Random, max_bundles: int = 8) -> Valuation:
    entries = {(0, 0): F(0)}
    target = rng.randint(1, max_bundles)
    while len(entries) < target:
        bundle = (rng.randint(0, 4), rng.randint(0, 4))
        entries.setdefault(bundle, F(rng.randint(0, 50)))
    return Valuation(goods=2, entries=entries)


def random_price(rng: random.Random, lo: int = -20, hi: int = 40) -> tuple:
    return (
        F(rng.randint(4 * lo, 4 * hi), 4),
        F(rng.randint(4 * lo, 4 * hi), 4),
    )


def test_c01_fenchel_dual_reproduction():
    dual, below = dualize(FIVE_BUNDLE)
    assert below == frozenset()
    got = {(p.slope, p.intercept) for p in dual.pieces}
    assert got == {
        ((F(1), F(9)), F(14)),
        ((F(3), F(7)), F(14)),
        ((F(8), F(16)), F(0)),
        ((F(10), F(14)), F(0)),
    }
    print("[criterion 01] PASS - concave dual reproduces the four pieces exactly")


def test_c02_demand_sets():
    assert demand(FIVE_BUNDLE, vec(8, 16)).bundles == {(0, 0), (2, 0), (1, 1)}
    assert demand(FIVE_BUNDLE, vec(9, 15)).bundles == {(0, 0), (1, 1)}
    assert demand(FIVE_BUNDLE, vec(11, 14)).bundles == {(0, 0), (0, 2)}
    print("[criterion 02] PASS - demand sets at the three indifference prices")


def test_c03_price_complex_vertices():
    s = price_complex(FIVE_BUNDLE)
    zero_cells = {s.cells[v].points[0] for v in s.vertices()}
    assert zero_cells == {vec(1, 9), vec(3, 7), vec(8, 16), vec(10, 14)}
    print("[criterion 03] PASS - price-complex 0-cells are exactly the dual slopes")


def test_c04_balancing_at_center_vertex():
    report = check_balancing(demand_complex(FIVE_BUNDLE))
    assert report.overall
    center = next(
        vb for vb in report.per_vertex.values() if vb.point == vec(1, 1)
    )
    assert center.residual == (0, 0)
    expected = [
        (F(2), (-1, 1)),
        (F(7), (-1, -1)),
        (F(2), (1, -1)),
        (F(7), (1, 1)),
    ]
    got = list(center.contributions)
    assert expected in [got[i:] + got[:i] for i in range(len(got))]
    print("[criterion 04] PASS - counterclockwise facet data balances at (1,1)")


def test_c05_non_existence_example():
    report = duality_test(TWO_CONSUMER)
    assert report.min_value == 75
    assert report.argmin_prices == vec(25, 45)
    assert report.price_unique is True
    assert report.max_value == 70
    assert [a.bundles for a in report.argmax_allocations] == [((0, 0), (1, 1))]
    assert report.gap == 5
    assert report.exists is False
    sets = [sorted(ds.bundles) for ds in report.demand_sets_at_argmin]
    assert sets == [[(0, 1), (1, 0)], [(0, 0), (1, 1)]]
    # no selection from the demand sets clears: feasible sums always leave a
    # positively priced good unsold
    clearing = []
    for combo in itertools.product(*(sorted(ds.bundles) for ds in report.demand_sets_at_argmin)):
        total = tuple(sum(b[l] for b in combo) for l in range(2))
        if all(t <= w for t, w in zip(total, (1, 1))):
            leftover = tuple(w - t for t, w in zip(total, (1, 1)))
            if dot(report.argmin_prices, leftover) == 0:
                clearing.append(combo)
    assert clearing == []
    print("[criterion 05] PASS - no-equilibrium economy: gap 5, unique prices (25,45)")


def test_c06_potential_roundtrip():
    cases = [FIVE_BUNDLE]
    rng = random.Random(2026)
    cases.extend(random_valuation(rng) for _ in range(200))
    for v in cases:
        s = price_complex(v)
        anchor_region = s.regions()[0]
        bundle = tuple(int(c) for c in s.region_labels[anchor_region])
        potential = integrate_subdivision(s, (anchor_region, v.entries[bundle]))
        # the pieces with a full-dimensional region, by the Fraction walk
        f = indirect_utility(v)
        walked = {f.pieces[k] for k, *_ in fraction_regions.active_polygons(f)}
        assert set(potential.pieces) == walked
        # and the recovered function agrees with the indirect utility
        for _ in range(3):
            p = random_price(rng)
            assert potential.evaluate(p) == f.evaluate(p)
    print("[criterion 06] PASS - potential roundtrip on the worked valuation and 200 random ones")


def test_c07_conservativeness():
    rng = random.Random(77)
    potentials = [indirect_utility(FIVE_BUNDLE)]
    potentials.extend(indirect_utility(random_valuation(rng)) for _ in range(20))
    loops = []
    for _ in range(100):
        k = rng.randint(2, 8)
        loops.append(tuple(random_price(rng) for _ in range(k)))
    # path_integral takes the potential's change between the ends; the
    # crossing walk sums the active pieces' slopes segment by segment.
    for waypoints in loops:
        target = potentials[rng.randrange(len(potentials))]
        loop = Polyline(waypoints=waypoints, closed=True)
        assert path_integral(target, loop) == 0
        assert crossing_walk(target, loop) == 0
        open_path = Polyline(waypoints=waypoints, closed=False)
        expected = target.evaluate(waypoints[0]) - target.evaluate(waypoints[-1])
        assert path_integral(target, open_path) == expected
        assert crossing_walk(target, open_path) == expected
    # every potential sees at least one loop
    loop = Polyline(waypoints=loops[0], closed=True)
    for target in potentials:
        assert path_integral(target, loop) == 0
        assert crossing_walk(target, loop) == 0
    print("[criterion 07] PASS - closed-path integrals vanish; open paths match potential differences")


def test_c08_inverse_correspondence_and_conjugacy():
    rng = random.Random(88)
    for _ in range(40):
        v = random_valuation(rng, max_bundles=6)
        V = indirect_utility(v)
        U, below = dualize(v)
        on_hull = set(v.entries) - below
        # q's inverse-demand set is its region of the price complex; a
        # bundle with no region is demanded only where demand is
        # multi-valued.  The complex's vertices are prices where regions meet.
        s = price_complex(v)
        regions = bundle_regions(s)
        for p in [random_price(rng), *(s.cells[x].points[0] for x in s.vertices())]:
            demanded = demand(v, p).bundles
            for q in sorted(v.entries):
                if q in regions:
                    assert in_region(s, regions[q], p) == (q in demanded)
                else:
                    assert q not in demanded or len(demanded) >= 2
                if q in demanded:
                    # conjugacy in this dual convention: U(q) = V(p) + p.q
                    assert U.evaluate(q) == V.evaluate(p) + dot(p, q)
                elif q in on_hull:
                    assert U.evaluate(q) < V.evaluate(p) + dot(p, q)
    print("[criterion 08] PASS - demand/inverse-demand membership and exact conjugacy")


def test_c09_cyclic_monotonicity():
    rng = random.Random(99)
    for _ in range(20):
        v = random_valuation(rng, max_bundles=6)
        pairs = []
        for _ in range(rng.randint(2, 10)):
            p = random_price(rng)
            options = sorted(demand(v, p).bundles)
            q = options[rng.randrange(len(options))]
            pairs.append((p, tuple(F(c) for c in q)))
        ok, _ = check_cyclic_monotonicity(CorrespondenceSample(pairs=tuple(pairs)))
        assert ok
    increasing = CorrespondenceSample(pairs=(((F(0),), (F(0),)), ((F(1),), (F(1),))))
    ok, witness = check_cyclic_monotonicity(increasing)
    assert not ok and witness is not None and len(witness) == 2
    print("[criterion 09] PASS - demand selections pass; increasing 1-D data yields a 2-cycle witness")


def test_c10_weak_duality_and_certificates():
    rng = random.Random(1010)
    zeros = 0
    for _ in range(100):
        consumers = []
        for _ in range(2):
            entries = {(0, 0): F(0)}
            for _ in range(rng.randint(0, 4)):
                bundle = (rng.randint(0, 2), rng.randint(0, 2))
                entries.setdefault(bundle, F(rng.randint(0, 30)))
            consumers.append(Valuation(goods=2, entries=entries))
        e = Economy(
            goods=2,
            consumers=tuple(consumers),
            endowment=(rng.randint(0, 3), rng.randint(0, 3)),
        )
        report = duality_test(e)
        assert report.gap >= 0
        if report.exists:
            zeros += 1
            assert report.gap == 0
            cert = report.certificate
            assert cert is not None
            ok, _ = walrasian_check(e, cert.prices, cert.allocation)
            assert ok
            # The economy's potential, aggregate utility minus aggregate
            # indirect utility, is zero at an equilibrium.
            total_u = sum(v.entries[q] for v, q in zip(e.consumers, cert.allocation.bundles))
            assert total_u - aggregate_indirect(e, cert.prices) == 0
        # searched selections: optimal + market clearing at the argmin
        # prices implies the gap closes
        for combo in itertools.product(
            *(sorted(ds.bundles) for ds in report.demand_sets_at_argmin)
        ):
            total = tuple(sum(b[l] for b in combo) for l in range(2))
            if any(t > w for t, w in zip(total, e.endowment)):
                continue
            allocation = Allocation(bundles=combo)
            ok, _ = walrasian_check(e, report.argmin_prices, allocation)
            leftover = tuple(w - t for t, w in zip(total, e.endowment))
            if ok and dot(report.argmin_prices, leftover) == 0:
                assert report.gap == 0
    assert zeros > 0  # the sample includes genuine equilibria
    print("[criterion 10] PASS - weak duality and certificate equivalence on 100 random economies")


def test_c11_duality_of_complexes():
    pc = price_complex(FIVE_BUNDLE)
    dc = demand_complex(FIVE_BUNDLE)
    assert canonical_form(dualize_complex(pc)) == canonical_form(dc)

    # dual pairing through region labels / vertex locations
    dc_by_labelpair = {
        frozenset((dc.region_labels[fd.from_region], dc.region_labels[fd.to_region])): e
        for e, fd in dc.facet_data.items()
    }
    paired = 0
    for e, fd in pc.facet_data.items():
        cell = pc.cells[e]
        if len(cell.points) != 2:
            continue
        dual_edge = dc_by_labelpair[frozenset(cell.points)]
        d_price = edge_direction(cell)
        d_demand = edge_direction(dc.cells[dual_edge])
        assert dot(d_price, d_demand) == 0
        assert fd.weight == rational_direction(d_demand)[1]
        assert dc.facet_data[dual_edge].weight == rational_direction(d_price)[1]
        paired += 1
    assert paired == 4
    print("[criterion 11] PASS - complexes are exact duals with orthogonal edges and dual weights")
