"""The integer SVG renderer, balancing check and integration against their
Fraction oracles in ``fraction_consumers``: the same text, the same report
and the same potential, or the same exception with the same message."""

import dataclasses
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_consumers
from conftest import small_rationals, valuations
from tropical_demand import (
    Valuation,
    check_balancing,
    demand_complex,
    dualize_complex,
    integrate_subdivision,
    price_complex,
)
from tropical_demand.errors import ToolkitError
from tropical_demand.svg import render_subdivision

F = Fraction


@st.composite
def collinear_valuations(draw):
    """Bundles on one lattice line through 0: a price complex of strips and
    half-planes cut by full lines, and no demand complex."""
    direction = draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (2, 1), (1, 3)]))
    steps = draw(st.lists(st.integers(1, 4), max_size=4, unique=True))
    values = st.fractions(min_value=0, max_value=50, max_denominator=6)
    entries = {(0, 0): F(0)}
    for t in steps:
        entries[(t * direction[0], t * direction[1])] = draw(values)
    return Valuation(goods=2, entries=entries)


any_valuation = st.one_of(
    valuations(max_bundles=8),
    valuations(max_bundles=8, rational=True),
    valuations(max_bundles=1),
    collinear_valuations(),
)


def subdivisions(v: Valuation) -> list:
    """The price complex, and the demand complex and the price complex's
    dual where they exist."""
    price = price_complex(v)
    built = [price]
    try:
        built.append(demand_complex(v))
    except ToolkitError:
        pass  # collinear bundles have no 2-D dual
    try:
        built.append(dualize_complex(price))
    except ToolkitError:
        pass  # a full line edge bounds no dual region
    return built


def outcome(f, *args):
    try:
        return f(*args)
    except Exception as exc:  # the two routes must raise alike
        return type(exc), str(exc), getattr(exc, "cycle", None)


def assert_routes_agree(s, anchor) -> None:
    assert outcome(render_subdivision, s) == outcome(fraction_consumers.render_subdivision, s)
    assert outcome(check_balancing, s) == outcome(fraction_consumers.check_balancing, s)
    assert outcome(integrate_subdivision, s, anchor) == outcome(
        fraction_consumers.integrate_subdivision, s, anchor
    )


def draw_anchor(data, s) -> tuple:
    # A lone vertex, the dual of the whole plane, has no region: both routes
    # must refuse it alike.
    return data.draw(st.sampled_from(s.regions() or [0])), data.draw(small_rationals)


@settings(max_examples=150, deadline=None)
@given(any_valuation, st.data())
def test_built_complexes_match_the_fraction_routes(v, data):
    for s in subdivisions(v):
        assert_routes_agree(s, draw_anchor(data, s))


@settings(max_examples=200, deadline=None)
@given(any_valuation, st.data())
def test_tampered_complexes_match_the_fraction_routes(v, data):
    # One point moved off its place, two region labels swapped, or one facet
    # weight or normal changed: each report, potential or refusal must still
    # agree.
    s = data.draw(st.sampled_from(subdivisions(v)))
    kind = data.draw(st.sampled_from(["point", "labels", "weight", "normal"]))
    with_points = [c for c, cell in s.cells.items() if cell.points]
    if kind == "point" and with_points:
        cell_id = data.draw(st.sampled_from(with_points))
        cell = s.cells[cell_id]
        i = data.draw(st.integers(0, len(cell.points) - 1))
        moved = (data.draw(small_rationals), data.draw(small_rationals))
        cell = dataclasses.replace(cell, points=cell.points[:i] + (moved,) + cell.points[i + 1 :])
        s = dataclasses.replace(s, cells={**s.cells, cell_id: cell})
    elif kind == "labels" and s.regions():
        a, b = (data.draw(st.sampled_from(s.regions())) for _ in range(2))
        labels = {**s.region_labels, a: s.region_labels[b], b: s.region_labels[a]}
        s = dataclasses.replace(s, region_labels=labels)
    elif kind == "weight" and s.facet_data:
        edge = data.draw(st.sampled_from(sorted(s.facet_data)))
        weight = data.draw(st.fractions(min_value=F(1, 16), max_value=10, max_denominator=16))
        facets = {**s.facet_data, edge: dataclasses.replace(s.facet_data[edge], weight=weight)}
        s = dataclasses.replace(s, facet_data=facets)
    elif kind == "normal" and s.facet_data:
        # Often along the edge itself, where the side test reads zero.
        edge = data.draw(st.sampled_from(sorted(s.facet_data)))
        normal = data.draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (1, -1), (-2, 1)]))
        facets = {**s.facet_data, edge: dataclasses.replace(s.facet_data[edge], normal=normal)}
        s = dataclasses.replace(s, facet_data=facets)
    assert_routes_agree(s, draw_anchor(data, s))
