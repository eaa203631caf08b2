"""Shared fixtures and hypothesis strategies."""

from fractions import Fraction

import pytest
from hypothesis import strategies as st

from tropical_demand import Economy, LabeledSubdivision, Valuation
from tropical_demand.exactmath import dot, vsub

F = Fraction


def make_valuation(entries: dict[tuple[int, ...], int | Fraction], goods: int = 2) -> Valuation:
    return Valuation(goods=goods, entries={q: Fraction(u) for q, u in entries.items()})


def bundle_regions(s: LabeledSubdivision) -> dict[tuple[int, ...], int]:
    """The regions of a price complex by the bundle that labels each."""
    return {tuple(int(c) for c in s.region_labels[r]): r for r in s.regions()}


def in_region(s: LabeledSubdivision, region: int, p) -> bool:
    """Whether p lies in the closed region of a price complex: on the
    region's side of every incident facet, whose normal points from its
    ``from_region`` into its ``to_region``."""
    for e in s.cells[region].incident:
        fd = s.facet_data[e]
        side = dot(vsub(p, s.cells[e].points[0]), fd.normal)
        if side > 0 if fd.from_region == region else side < 0:
            return False
    return True


def canonical_form(s: LabeledSubdivision):
    """A rotation- and id-independent description, for exact cell-for-cell
    comparison of subdivisions built along different routes: a complex and
    its double dual are equal under it but not byte for byte."""
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
        edge_sigs.append((tuple(sorted(cell.points)), tuple(sorted(cell.rays)), rel))
    region_sigs = [
        (s.region_labels[r], frozenset(s.cells[r].points), frozenset(s.cells[r].rays))
        for r in s.regions()
    ]
    return verts, frozenset(edge_sigs), frozenset(region_sigs), s.convention


@pytest.fixture
def five_bundle_valuation() -> Valuation:
    # Two goods, five bundles on the corners and center of [0,2]^2; the
    # running example used across the golden tests.
    return make_valuation({(0, 0): 0, (2, 0): 16, (1, 1): 24, (0, 2): 28, (2, 2): 34})


@pytest.fixture
def no_equilibrium_economy() -> Economy:
    # Two consumers, two goods; substitutes meet complements and the market
    # cannot clear.
    c1 = make_valuation({(0, 0): 0, (1, 0): 30, (0, 1): 50, (1, 1): 60})
    c2 = make_valuation({(0, 0): 0, (1, 0): 10, (0, 1): 30, (1, 1): 70})
    return Economy(goods=2, consumers=(c1, c2), endowment=(1, 1))


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

small_rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=16
)


@st.composite
def valuations(
    draw,
    max_bundles: int = 8,
    coord: int = 4,
    max_value: int = 50,
    rational: bool = False,
    goods: int = 2,
    values: st.SearchStrategy | None = None,
):
    """Random valuations of 2 or 3 goods containing the zero bundle; with
    ``rational`` the values are fractions as well as integers, and a
    ``values`` strategy draws the nonzero bundles' values instead."""
    if values is None:
        values = (
            st.fractions(min_value=0, max_value=max_value, max_denominator=6)
            if rational
            else st.integers(0, max_value)
        )
    extra = draw(
        st.lists(
            st.tuples(*[st.integers(0, coord)] * goods),
            max_size=max_bundles - 1,
            unique=True,
        )
    )
    zero = (0,) * goods
    entries = {zero: Fraction(0)}
    for bundle in extra:
        if bundle != zero:
            entries[bundle] = Fraction(draw(values))
    return Valuation(goods=goods, entries=entries)


@st.composite
def price_vectors(draw, dim: int = 2):
    return tuple(draw(st.fractions(min_value=-10, max_value=60, max_denominator=8)) for _ in range(dim))


@st.composite
def economies(draw, max_consumers: int = 3, max_bundles: int = 5):
    n = draw(st.integers(2, max_consumers))
    consumers = tuple(
        draw(valuations(max_bundles=max_bundles, coord=2, max_value=30)) for _ in range(n)
    )
    endowment = (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
    return Economy(goods=2, consumers=consumers, endowment=endowment)
