"""Finite valuations over bundles: indirect utility, demand, and the concave dual.

A valuation is a finite map from nonnegative integer bundles to rational
values.  Its indirect utility is the convex max-of-affine function with one
piece per bundle; its dual is the lowest concave (min-of-affine) function
above the lifted points, restricted to the convex hull of the bundles.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import DegenerateInput, EmptyCell, UnknownBundle, ValidationError
from .exactmath import IVec, dot, independent_directions, ivec_to_vec, vsub
from .polyhedra import (
    AffinePiece,
    HPolyhedron,
    HalfSpace,
    Polygon2,
    PolygonEdge,
    check_hull_cap,
    convex_hull_halfspaces,
    feasible_point,
    halfplane_intersection,
    interior_point,
    reduce,
    upper_concave_hull,
)


@dataclass(frozen=True)
class Valuation:
    """Finite bundle values.  The zero bundle must be present: it is the
    outside option that anchors indirect utility."""

    goods: int
    entries: dict[IVec, Fraction]

    def __post_init__(self):
        if self.goods < 1:
            raise ValidationError("need at least one good")
        if not self.entries:
            raise ValidationError("valuation has no bundles")
        for bundle in self.entries:
            if len(bundle) != self.goods:
                raise ValidationError(f"bundle {bundle} has wrong length")
            if any(not isinstance(c, int) or c < 0 for c in bundle):
                raise ValidationError(f"bundle {bundle} is not a nonnegative lattice point")
        zero = tuple(0 for _ in range(self.goods))
        if zero not in self.entries:
            raise ValidationError("valuation must contain the zero bundle")

    def bundles(self) -> list[IVec]:
        return sorted(self.entries)

    def value(self, bundle: IVec) -> Fraction:
        try:
            return self.entries[bundle]
        except KeyError:
            raise UnknownBundle(f"bundle {bundle} not in valuation") from None


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

    def active_region(self, k: int) -> tuple[tuple[HalfSpace, ...], tuple[int, ...]] | None:
        """Rows of the set where piece k attains the function, one per other
        non-parallel piece in piece order, and the piece tied with k along
        each of them; the domain rows follow them.

        None when a parallel piece beats k everywhere.
        """
        piece = self.pieces[k]
        rows: list[HalfSpace] = []
        tied: list[int] = []
        for j, other in enumerate(self.pieces):
            if j == k:
                continue
            if self.convention == "max":
                normal = vsub(other.slope, piece.slope)
                offset = piece.intercept - other.intercept
            else:
                normal = vsub(piece.slope, other.slope)
                offset = other.intercept - piece.intercept
            if all(c == 0 for c in normal):
                if offset < 0:
                    return None
                continue
            rows.append(HalfSpace(normal=normal, offset=offset))
            tied.append(j)
        return (*rows, *self.domain.halfspaces), tuple(tied)

    def active_polygons(
        self,
    ) -> Iterator[tuple[int, Polygon2, tuple[PolygonEdge, ...], tuple[int, ...]]]:
        """In piece order, each piece k whose active set has interior, with its
        polygon and edges from one half-plane intersection of
        ``active_region(k)`` and the pieces tied with k along its rows.
        2-D only."""
        for k in range(len(self.pieces)):
            active = self.active_region(k)
            region = halfplane_intersection(active[0]) if active is not None else None
            if region is not None:
                yield (k, *region, active[1])


@dataclass(frozen=True)
class DemandSet:
    """Argmax bundles of the surplus u(q) - p.q, with the common surplus."""

    bundles: frozenset[IVec]
    value: Fraction


def _whole_space(n: int) -> HPolyhedron:
    return HPolyhedron(n, ())


def indirect_utility(v: Valuation) -> PolyhedralFunction:
    """Convex max-of-affine with one piece per bundle: slope -q, intercept u(q)."""
    pieces = {
        AffinePiece(slope=tuple(Fraction(-c) for c in q), intercept=u)
        for q, u in v.entries.items()
    }
    ordered = tuple(sorted(pieces, key=lambda p: (p.slope, p.intercept)))
    return PolyhedralFunction("max", ordered, _whole_space(v.goods))


def demand(v: Valuation, p: Sequence[Fraction | int]) -> DemandSet:
    """Exact argmax set of u(q) - p.q over the valuation's bundles."""
    if len(p) != v.goods:
        raise DegenerateInput("price vector has wrong length")
    best: Fraction | None = None
    bundles: list[IVec] = []
    for q in v.bundles():
        surplus = v.entries[q] - dot(p, q)
        if best is None or surplus > best:
            best, bundles = surplus, [q]
        elif surplus == best:
            bundles.append(q)
    if best is None:
        raise ValidationError("valuation has no bundles")
    return DemandSet(bundles=frozenset(bundles), value=best)


def dualize(v: Valuation) -> PolyhedralFunction:
    """The lowest concave function above the lifted bundle values.

    Min-of-affine on the convex hull of the bundles; the slopes of the
    pieces are the prices at which demand is maximally multi-valued.  For 2
    goods with affinely full-dimensional bundles those prices are the 0-cells
    of the price complex: every corner p of a piece's active polygon in the
    indirect utility f gives the piece with slope p and intercept f(p).
    Otherwise (1 or 3 goods, collinear bundles) ``upper_concave_hull``
    enumerates the vertices (p, f(p)) of the epigraph of f by exact double
    description.  Either way at most MAX_HULL_POINTS bundles.
    """
    pieces = _dual_pieces(v)
    domain = convex_hull_halfspaces([ivec_to_vec(q) for q in v.bundles()], v.goods)
    return PolyhedralFunction("min", tuple(pieces), domain)


def _dual_pieces(v: Valuation) -> list[AffinePiece]:
    """The pieces of the concave dual, sorted by (slope, intercept)."""
    entries = sorted(v.entries.items())
    check_hull_cap("upper concave hull", len(entries))
    if v.goods != 2 or len(independent_directions([q for q, _ in entries])) < 2:
        return upper_concave_hull(entries)[0]
    f = indirect_utility(v)
    # p lies in piece k's region, so f(p) is that piece's value there.
    pieces = {
        AffinePiece(slope=p, intercept=f.pieces[k].evaluate(p))
        for k, polygon, _, _ in f.active_polygons()
        for p in polygon.vertices
    }
    return sorted(pieces, key=lambda p: (p.slope, p.intercept))


def _below_hull(v: Valuation, hull: Sequence[AffinePiece]) -> frozenset[IVec]:
    """Bundles strictly below the min of the upper-hull pieces: never demanded."""
    return frozenset(q for q, u in v.entries.items() if min(p.evaluate(q) for p in hull) > u)


def hull_support(v: Valuation) -> tuple[frozenset[IVec], frozenset[IVec]]:
    """Split bundles into those on the concave hull and those strictly below
    (never demanded at any price), against the pieces of the dual."""
    below = _below_hull(v, _dual_pieces(v))
    return frozenset(v.entries) - below, below


def inverse_demand_region(
    v: Valuation, q: IVec, price_domain: HPolyhedron | None = None
) -> HPolyhedron:
    """Reduced H-representation of the prices at which ``q`` is demanded.

    The default price domain is all of price space.  Raises EmptyCell when
    the bundle is strictly below the concave hull, i.e. never demanded.
    """
    if q not in v.entries:
        raise UnknownBundle(f"bundle {q} not in valuation")
    f = indirect_utility(v)
    if price_domain is not None:
        f = replace(f, domain=price_domain)
    k = [piece.slope for piece in f.pieces].index(tuple(-c for c in q))
    halfspaces, _ = f.active_region(k)
    region = HPolyhedron(v.goods, halfspaces)
    if halfspaces and feasible_point(region) is None:
        raise EmptyCell(f"bundle {q} is never demanded")
    return reduce(region)


def check_monotone(v: Valuation, samples: Iterable[Sequence[Fraction | int]]) -> bool:
    """Demand selections must move against prices: (q2-q1).(p2-p1) <= 0 for
    every sample pair and every pair of selections."""
    prices = [tuple(Fraction(c) for c in p) for p in samples]
    if not prices:
        raise DegenerateInput("no price samples")
    demands = [demand(v, p) for p in prices]
    for i in range(len(prices)):
        for j in range(i + 1, len(prices)):
            dp = vsub(prices[j], prices[i])
            for qi in demands[i].bundles:
                for qj in demands[j].bundles:
                    if dot(vsub(qj, qi), dp) > 0:
                        return False
    return True


def essential_pieces(f: PolyhedralFunction) -> frozenset[AffinePiece]:
    """Pieces that are uniquely active on a full-dimensional region.

    Dropping the others does not change the function; this is the canonical
    piece set used when comparing polyhedral functions built along
    different routes.  In 2-D a region has interior iff its half-plane
    intersection is not None; other dimensions solve one interior-point LP
    per piece.
    """
    if f.domain.dim == 2:
        return frozenset(f.pieces[k] for k, *_ in f.active_polygons())
    keep = []
    for k, piece in enumerate(f.pieces):
        active = f.active_region(k)
        if active is not None and interior_point(HPolyhedron(f.domain.dim, active[0])) is not None:
            keep.append(piece)
    return frozenset(keep)
