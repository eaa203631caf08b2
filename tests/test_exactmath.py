import json
import pathlib
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tropical_demand import DegenerateInput, format_rational, is_primitive, primitive_direction, rational
from tropical_demand.exactmath import (
    dot,
    rational_direction,
    scaled_ints,
    vsub,
)

from facet_walk import independent_directions

F = Fraction


def test_exact_fraction_addition():
    assert F(1, 3) + F(1, 6) == F(1, 2)


def test_canonical_form():
    x = F(2, 4)
    assert (x.numerator, x.denominator) == (1, 2)
    y = F(3, -6)
    assert (y.numerator, y.denominator) == (-1, 2)


def test_compare_cross_multiplication():
    assert F(16, 2) == F(8)
    assert F(7, 3) < F(12, 5)


coordinates = st.integers(-9, 9) | st.fractions(max_denominator=9)


@given(st.lists(st.tuples(coordinates, coordinates), max_size=3))
def test_dot_and_vsub_return_fractions_for_any_mix_of_ints(pairs):
    # Every coordinate comes back a Fraction, also when both operands are ints.
    u, v = [a for a, _ in pairs], [b for _, b in pairs]
    product, difference = dot(u, v), vsub(u, v)
    assert type(product) is F and product == sum((F(a) * F(b) for a, b in pairs), F(0))
    assert all(type(d) is F for d in difference)
    assert difference == tuple(F(a) - F(b) for a, b in pairs)
    with pytest.raises(DegenerateInput, match="dimension mismatch"):
        dot(u, v + [1])
    with pytest.raises(DegenerateInput, match="dimension mismatch"):
        vsub(u + [1], v)


def test_rational_parsing():
    assert rational("3/4") == F(3, 4)
    assert rational("-7/2") == F(-7, 2)
    assert rational("5") == F(5)
    assert rational(9) == F(9)
    assert format_rational(F(3, 4)) == "3/4"
    assert format_rational(F(-8)) == "-8"


def test_format_rational_writes_ints_past_the_digit_limit():
    # 5,001 and 4,301 digits, over the interpreter's default 4,300; the
    # 500-digit chunks hold runs of zeros.
    assert format_rational(F(-(10**5000 + 7), 3)) == "-1" + "0" * 4997 + "007/3"
    assert format_rational(F(1, 10**4300)) == "1/1" + "0" * 4300


SCHEMAS = pathlib.Path(__file__).resolve().parent.parent / "docs" / "schemas"
# Every schema that defines a rational string gives it this one pattern.
(RATIONAL_PATTERN,) = {
    schema["definitions"]["rational"]["pattern"]
    for schema in (json.loads(path.read_text()) for path in sorted(SCHEMAS.glob("*.json")))
    if "rational" in schema.get("definitions", {})
}


@given(
    st.from_regex(RATIONAL_PATTERN, fullmatch=True)
    | st.text(st.sampled_from("0123456789-+/_ \n\u0663"), max_size=8)
    | st.text(max_size=6)
)
def test_rational_strings_are_exactly_the_schema_pattern(text):
    # Signs, spaces, underscores, a negative or zero-led denominator, a
    # trailing newline and non-ASCII digits are all refused, as the schemas
    # refuse them; "1/0" keeps its own message.
    if re.fullmatch(RATIONAL_PATTERN, text):
        assert rational(text) == Fraction(text)
    else:
        with pytest.raises(DegenerateInput, match="^(not a rational|zero denominator in)"):
            rational(text)


def test_zero_denominator_rejected():
    with pytest.raises(DegenerateInput, match="^zero denominator in '1/0'$"):
        rational("1/0")
    with pytest.raises(DegenerateInput):
        rational("abc")


def test_primitive_direction_examples():
    assert primitive_direction((2, -2)) == ((1, -1), 2)
    assert primitive_direction((-7, -7)) == ((-1, -1), 7)
    assert primitive_direction((0, 3)) == ((0, 1), 3)


def test_primitive_direction_zero_vector():
    with pytest.raises(DegenerateInput):
        primitive_direction((0, 0))


def test_is_primitive():
    assert is_primitive((3, -2))
    assert not is_primitive((2, -2))


def test_rational_direction():
    n, w = rational_direction((F(3, 2), F(-9, 2)))
    assert n == (1, -3) and w == F(3, 2)
    assert rational_direction((F(2), F(-2))) == ((1, -1), 2)


@given(st.tuples(st.integers(-50, 50), st.integers(-50, 50)).filter(lambda v: v != (0, 0)))
def test_primitive_direction_factorization(v):
    n, w = primitive_direction(v)
    assert w > 0
    assert tuple(w * c for c in n) == v
    assert gcd(abs(n[0]), abs(n[1])) == 1


rationals = st.fractions(min_value=-100, max_value=100, max_denominator=32)


@given(rationals, rationals, rationals)
def test_field_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c



def fraction_independent_directions(points):
    """The greedy independent differences p_i - p_0 by Gaussian elimination
    over Fractions: the oracle of the fraction-free routine."""
    if not points:
        return []
    base = [F(c) for c in points[0]]
    basis, reduced = [], []
    for p in points[1:]:
        vec = [F(c) - b for c, b in zip(p, base)]
        work = vec[:]
        for row in reduced:
            lead = next((i for i, x in enumerate(row) if x != 0), None)
            if lead is not None and work[lead] != 0:
                factor = work[lead] / row[lead]
                work = [x - factor * y for x, y in zip(work, row)]
        if any(x != 0 for x in work):
            basis.append(vec)
            reduced.append(work)
    return [tuple(v) for v in basis]


small = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def point_sets(draw):
    """Rational points in 1-3 dims: in general position, or on an affine
    line or plane spanned by at most two random directions."""
    dim = draw(st.integers(1, 3))
    vec = st.tuples(*[small] * dim)
    span = draw(st.integers(0, 3))
    if span == 3:
        return draw(st.lists(vec, max_size=8))
    base, dirs = draw(vec), draw(st.lists(vec, min_size=span, max_size=span))
    coeffs = st.lists(st.tuples(*[small] * span), max_size=8)
    return [
        tuple(b + sum((t * d[i] for t, d in zip(ts, dirs)), F(0)) for i, b in enumerate(base))
        for ts in draw(coeffs)
    ]


@given(point_sets())
def test_independent_directions_match_fraction_elimination(points):
    assert independent_directions(points) == fraction_independent_directions(points)


@given(
    st.lists(
        st.lists(st.integers(-9, 9) | st.fractions(-9, 9, max_denominator=40), max_size=3),
        max_size=4,
    )
)
def test_scaled_ints_clears_denominators_by_their_least_common_multiple(vectors):
    scale, ints = scaled_ints(vectors)
    assert all(type(c) is int for v in ints for c in v)
    assert [tuple(F(c, scale) for c in v) for v in ints] == [tuple(map(F, v)) for v in vectors]
    # No proper divisor scale / p clears every denominator.
    for p in (p for p in range(2, 41) if scale % p == 0 and all(p % q for q in range(2, p))):
        assert any((F(c) * (scale // p)).denominator != 1 for v in vectors for c in v)


def test_scaled_ints_reads_each_vector_once():
    # An iterator is scaled like the tuple it yields, not read once for the
    # lcm and found empty for the scaling.
    assert scaled_ints([iter([F(1, 2)]), (1, 2)]) == (2, [(1,), (2, 4)])
    vectors = [(F(1, 3), 2), (), (F(-5, 6),)]
    expected = (6, [(2, 12), (), (-5,)])
    assert scaled_ints(iter(v) for v in vectors) == scaled_ints(vectors) == expected
