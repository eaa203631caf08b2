"""Shared fixtures and hypothesis strategies."""

from fractions import Fraction

import pytest
from hypothesis import strategies as st

from tropical_demand import Economy, Valuation

F = Fraction


def make_valuation(entries: dict[tuple[int, ...], int | Fraction], goods: int = 2) -> Valuation:
    return Valuation(goods=goods, entries={q: Fraction(u) for q, u in entries.items()})


@pytest.fixture
def five_bundle_valuation() -> Valuation:
    # Two goods, five bundles on the corners and center of [0,2]^2; the
    # running example used across the golden tests.
    return make_valuation({(0, 0): 0, (2, 0): 16, (1, 1): 24, (0, 2): 28, (2, 2): 34})


@pytest.fixture
def no_equilibrium_economy() -> Economy:
    # Two consumers, two goods, both owned by consumer 1; substitutes meet
    # complements and the market cannot clear.
    c1 = make_valuation({(0, 0): 0, (1, 0): 30, (0, 1): 50, (1, 1): 60})
    c2 = make_valuation({(0, 0): 0, (1, 0): 10, (0, 1): 30, (1, 1): 70})
    return Economy(goods=2, consumers=(c1, c2), endowment=(1, 1), ownership=((1, 1), (0, 0)))


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

small_rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=16
)


@st.composite
def valuations(
    draw, max_bundles: int = 8, coord: int = 4, max_value: int = 50, rational: bool = False
):
    """Random 2-good valuations containing the zero bundle; with ``rational``
    the values are fractions as well as integers."""
    values = (
        st.fractions(min_value=0, max_value=max_value, max_denominator=6)
        if rational
        else st.integers(0, max_value)
    )
    extra = draw(
        st.lists(
            st.tuples(st.integers(0, coord), st.integers(0, coord)),
            max_size=max_bundles - 1,
            unique=True,
        )
    )
    entries = {(0, 0): Fraction(0)}
    for bundle in extra:
        if bundle != (0, 0):
            entries[bundle] = Fraction(draw(values))
    return Valuation(goods=2, entries=entries)


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
