"""Finite valuations over bundles: indirect utility, demand, and the concave dual.

A valuation is a finite map from nonnegative integer bundles to rational
values.  Its indirect utility is the convex max-of-affine function with one
piece per bundle; its dual is the lowest concave (min-of-affine) function
above the lifted points, restricted to the convex hull of the bundles.
``dualize`` returns the dual together with the bundles strictly below it,
which no price demands, both off one lift of the upper concave hull.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DegenerateInput, ValidationError, quoted
from .exactmath import IVec, is_int, scaled_ints
from .polyhedra import AffinePiece, HPolyhedron, upper_concave_hull


@dataclass(frozen=True)
class Valuation:
    """Finite bundle values.  The zero bundle must be present: it is the
    outside option that anchors indirect utility."""

    goods: int
    entries: dict[IVec, Fraction]

    def __post_init__(self):
        if not is_int(self.goods):
            raise ValidationError("the number of goods must be an integer")
        if self.goods < 1:
            raise ValidationError("need at least one good")
        if not self.entries:
            raise ValidationError("valuation has no bundles")
        for bundle in self.entries:
            if len(bundle) != self.goods:
                raise ValidationError(f"bundle {quoted(bundle)} has wrong length")
            if any(not is_int(c) or c < 0 for c in bundle):
                raise ValidationError(f"bundle {quoted(bundle)} is not a nonnegative lattice point")
        zero = tuple(0 for _ in range(self.goods))
        if zero not in self.entries:
            raise ValidationError("valuation must contain the zero bundle")

    def bundles(self) -> list[IVec]:
        return sorted(self.entries)


@dataclass(frozen=True)
class PolyhedralFunction:
    """Finite max (convex) or min (concave) of affine pieces over a domain."""

    convention: str  # "max" | "min"
    pieces: tuple[AffinePiece, ...]
    domain: HPolyhedron

    def __post_init__(self):
        if self.convention not in ("max", "min"):
            raise ValidationError(f"unknown convention {self.convention!r}")
        if not self.pieces:
            raise ValidationError("polyhedral function needs at least one piece")

    def evaluate(self, x: Sequence[Fraction | int]) -> Fraction:
        values = [p.evaluate(x) for p in self.pieces]
        return max(values) if self.convention == "max" else min(values)

    def active_pieces(self, x: Sequence[Fraction | int]) -> list[AffinePiece]:
        target = self.evaluate(x)
        return [p for p in self.pieces if p.evaluate(x) == target]


@dataclass(frozen=True)
class DemandSet:
    """Argmax bundles of the surplus u(q) - p.q, with the common surplus."""

    bundles: frozenset[IVec]
    value: Fraction


def indirect_utility(v: Valuation) -> PolyhedralFunction:
    """Convex max-of-affine with one piece per bundle: slope -q, intercept u(q)."""
    pieces = {
        AffinePiece(slope=tuple(Fraction(-c) for c in q), intercept=u)
        for q, u in v.entries.items()
    }
    ordered = tuple(sorted(pieces, key=lambda p: (p.slope, p.intercept)))
    return PolyhedralFunction("max", ordered, HPolyhedron(v.goods, ()))


def demand(v: Valuation, p: Sequence[Fraction | int]) -> DemandSet:
    """Exact argmax set of u(q) - p.q over the valuation's bundles.

    The values and the prices are scaled by one lcm S of all their
    denominators, so every surplus times S is an int, u_S(q) - p_S.q; the
    surpluses are compared as ints and the common maximum becomes a
    Fraction once.
    """
    if len(p) != v.goods:
        raise DegenerateInput("price vector has wrong length")
    bundles = v.bundles()
    scale, (values, prices) = scaled_ints([[v.entries[q] for q in bundles], p])
    surplus = [u - sum(a * b for a, b in zip(prices, q)) for q, u in zip(bundles, values)]
    best = max(surplus)
    return DemandSet(
        bundles=frozenset(q for q, s in zip(bundles, surplus) if s == best),
        value=Fraction(best, scale),
    )


def dualize(v: Valuation) -> tuple[PolyhedralFunction, frozenset[IVec]]:
    """The lowest concave function above the lifted bundle values, and the
    bundles strictly below it (never demanded at any price).

    Min-of-affine on the convex hull of the bundles; the slopes of the
    pieces are the prices at which demand is maximally multi-valued.  The
    pieces are the vertices (p, f(p)) of the epigraph of the indirect
    utility f, and the domain the facets of the bundle hull: both are rays
    of the one cone that ``upper_concave_hull`` lifts, by exact double
    description, for 1, 2 and 3 goods alike.  The never-demanded bundles
    come off the same lift: a bundle is on the hull iff some piece's cell
    holds it.  At most MAX_HULL_POINTS bundles.
    """
    entries = sorted(v.entries.items())
    pieces, cells, domain = upper_concave_hull(entries)
    hull = frozenset().union(*cells)
    below = frozenset(q for i, (q, _) in enumerate(entries) if i not in hull)
    return PolyhedralFunction("min", tuple(pieces), domain), below
