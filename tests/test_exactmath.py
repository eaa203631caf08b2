from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tropical_demand import DegenerateInput, format_rational, is_primitive, primitive_direction, rational
from tropical_demand.exactmath import lattice_length, rational_direction

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


def test_rational_parsing():
    assert rational("3/4") == F(3, 4)
    assert rational("-7/2") == F(-7, 2)
    assert rational("5") == F(5)
    assert rational(9) == F(9)
    assert format_rational(F(3, 4)) == "3/4"
    assert format_rational(F(-8)) == "-8"


def test_zero_denominator_rejected():
    with pytest.raises(DegenerateInput):
        rational("1/0")
    with pytest.raises(DegenerateInput):
        rational("abc")


def test_primitive_direction_examples():
    assert primitive_direction((2, -2)) == ((1, -1), 2)
    assert primitive_direction((-7, -7), orient=(-1, -1)) == ((-1, -1), 7)
    assert primitive_direction((0, 3)) == ((0, 1), 3)


def test_primitive_direction_zero_vector():
    with pytest.raises(DegenerateInput):
        primitive_direction((0, 0))


def test_primitive_direction_orient_flips_sign():
    n, w = primitive_direction((4, 0), orient=(-1, 0))
    assert n == (-1, 0) and w == 4


def test_is_primitive():
    assert is_primitive((3, -2))
    assert not is_primitive((2, -2))


def test_rational_direction():
    n, w = rational_direction((F(3, 2), F(-9, 2)))
    assert n == (1, -3) and w == F(3, 2)
    assert lattice_length((F(2), F(-2))) == 2


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

