"""Exact rational scalars, vectors, and integer-lattice helpers.

Every quantity in this package is exact.  Scalars are ``fractions.Fraction``
(the stdlib keeps them in canonical form: positive denominator, reduced),
rational vectors are plain tuples of Fractions, and lattice vectors are
tuples of ints.  All helpers here are pure functions on immutable values,
so they are safe to share between threads.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import mul, sub
from typing import Iterable, Sequence

from .errors import DegenerateInput, quoted

Vec = tuple[Fraction, ...]
IVec = tuple[int, ...]

ZERO = Fraction(0)

# The schemas' rational pattern; a denominator of zeros is matched too, so
# that it is refused by its own message.
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/(0+|[1-9][0-9]*))?")


def is_int(x) -> bool:
    """Integers only: ``bool`` is a subclass of ``int`` in Python, and JSON's
    ``true`` is not a count or a coordinate."""
    return isinstance(x, int) and not isinstance(x, bool)


def rational(value: int | str | Fraction) -> Fraction:
    """Parse a rational from an int, a Fraction, or a string that is all of
    the schemas' pattern ``-?[0-9]+(/[1-9][0-9]*)?``: ASCII digits, no sign
    but a leading minus, no space, no underscore, and a denominator without
    a leading zero.

    Anything else signals :class:`DegenerateInput`; a denominator of zeros
    says "zero denominator".
    """
    if isinstance(value, Fraction):
        return value
    if is_int(value):
        return Fraction(value)
    match = _RATIONAL.fullmatch(value) if isinstance(value, str) else None
    if match is not None:
        num, den = match.groups()
        if den is not None and den[0] == "0":
            raise DegenerateInput(f"zero denominator in {quoted(value)}")
        try:
            return Fraction(int(num)) if den is None else Fraction(int(num), int(den))
        except ValueError:
            pass  # more digits than the interpreter's int-from-string limit
    raise DegenerateInput(f"not a rational: {quoted(value)}")


def _digits(n: int) -> str:
    """``str(n)``, also past the interpreter's int-to-string digit limit: the
    limit is process-wide and bounds the inputs, so a longer int is written
    by ``divmod`` in chunks of 500 digits, under any limit it can be set to."""
    try:
        return str(n)
    except ValueError:
        chunks, rest = [], abs(n)
        while rest:
            rest, low = divmod(rest, 10**500)
            chunks.append(str(low).zfill(500))
        return "-" * (n < 0) + "".join(reversed(chunks)).lstrip("0")


def format_rational(x: Fraction) -> str:
    """Render ``num/den``, or just ``num`` when the denominator is 1."""
    if x.denominator == 1:
        return _digits(x.numerator)
    return f"{_digits(x.numerator)}/{_digits(x.denominator)}"


def ivec_to_vec(v: IVec) -> Vec:
    return tuple(Fraction(c) for c in v)


def dot(u: Sequence[Fraction | int], v: Sequence[Fraction | int]) -> Fraction:
    """The exact dot product, a Fraction also when both vectors are ints:
    the sum starts from the Fraction zero."""
    if len(u) != len(v):
        raise DegenerateInput(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum(map(mul, u, v), ZERO)


def vsub(u: Sequence[Fraction | int], v: Sequence[Fraction | int]) -> Vec:
    """The difference as a tuple of Fractions; only a difference of two ints
    needs wrapping."""
    if len(u) != len(v):
        raise DegenerateInput(f"dimension mismatch: {len(u)} vs {len(v)}")
    return tuple(d if isinstance(d, Fraction) else Fraction(d) for d in map(sub, u, v))


def is_primitive(v: IVec) -> bool:
    """True iff the gcd of the absolute coordinates is 1."""
    return gcd(*v) == 1


def primitive_direction(v: IVec) -> tuple[IVec, int]:
    """Factor a nonzero lattice vector as ``v = w * n`` with n primitive, w > 0."""
    g = gcd(*v)
    if g == 0:
        raise DegenerateInput("primitive_direction of the zero vector")
    return tuple(c // g for c in v), g


def scaled_ints(vectors: Iterable[Iterable[Fraction | int]]) -> tuple[int, list[IVec]]:
    """The vectors times the least common multiple L of all their
    denominators, as int tuples, with L.  Each coordinate x becomes
    ``x.numerator * (L // x.denominator)``; ints and Fractions both have a
    numerator and a denominator, so either passes as it is.  Each vector is
    read once, into a tuple, so an iterator is scaled like a sequence."""
    vectors = [tuple(v) for v in vectors]
    scale = lcm(*(x.denominator for v in vectors for x in v))
    return scale, [tuple(x.numerator * (scale // x.denominator) for x in v) for v in vectors]


def rational_direction(v: Sequence[Fraction | int]) -> tuple[IVec, Fraction]:
    """Factor a nonzero rational vector as ``v = w * n``, n primitive integer, w > 0 rational."""
    scale, (ints,) = scaled_ints([v])
    if not any(ints):
        raise DegenerateInput("rational_direction of the zero vector")
    n, g = primitive_direction(ints)
    return n, Fraction(g, scale)


def rot90ccw(v: Sequence[Fraction | int]) -> tuple:
    if len(v) != 2:
        raise DegenerateInput("rot90ccw needs a 2-vector")
    return (-v[1], v[0])


def ccw_compare(u: Sequence[Fraction | int], v: Sequence[Fraction | int]) -> int:
    """Compare nonzero 2-vectors by angle in [0, 2pi) from the positive
    x-axis, exactly: by half-plane first, then by the sign of the cross
    product."""
    hu = 0 if u[1] > 0 or (u[1] == 0 and u[0] > 0) else 1
    hv = 0 if v[1] > 0 or (v[1] == 0 and v[0] > 0) else 1
    if hu != hv:
        return -1 if hu < hv else 1
    cr = u[0] * v[1] - u[1] * v[0]
    return -1 if cr > 0 else (1 if cr < 0 else 0)


def first_independent(rows: Sequence[Sequence[int]], limit: int) -> list[int]:
    """Indices of the rows that the greedy pass keeps: each row in order is
    kept when it is linearly independent of the rows kept before it, until
    ``limit`` are kept.  Independence is a matroid, so the kept rows are the
    lexicographically first maximal independent set.  The elimination is
    fraction-free: each step is an integer combination of two rows."""
    kept: list[int] = []
    reduced: list[tuple[int, list[int]]] = []
    for i, row in enumerate(rows):
        work = list(row)
        for lead, r in reduced:
            f, p = work[lead], r[lead]
            if f:
                work = [p * x - f * y for x, y in zip(work, r)]
        lead = next((j for j, x in enumerate(work) if x), None)
        if lead is not None:
            reduced.append((lead, work))
            kept.append(i)
            if len(kept) == limit:
                break
    return kept

