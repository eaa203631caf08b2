"""Exact polyhedral primitives.

Half-space representations, upper concave hulls of lifted lattice points,
and one integer-preserving pivot (``_pivot``), which ``_extreme_rays``
uses to invert its first basis and the market's configuration LP
(``equilibrium``) to run its simplex.  The public functions are pure
functions on immutable inputs, and their inputs and results are
Fractions; ``_pivot`` alone changes its tableau in place.

The upper concave hull of lifted points (the concave dual of every
valuation, for 1, 2 and 3 goods alike) and the convex hull of the bundles
come off one lift (``_lift``): one run of ``_extreme_rays``, incremental
double description of a pointed cone {x : a.x >= 0} over integer rows,
which returns each gcd-reduced integer ray with its zero set, the bit set
of the rows it is tight on.  The rays (p, t, s) with s > 0 are the dual's
pieces, the vertices of the indirect utility's epigraph, and their zero
sets the pieces' cells, which ``upper_concave_hull`` returns with them:
each cell is a region of the demand complex and its piece's slope a
vertex of the price complex, so both 2-D complexes read these pieces and
no other module reads the lift.  A bundle in no cell is never demanded;
``valuation.dualize`` returns those bundles with the dual, off the same
lift.  The rays with s = 0 are the bundle hull's facets (``_hull``).
Each lift row carries its own denominator: the row of a point at height
a/c is c times its rational row, so the heights share no scale and every
test is the sign of an integer.  Rational points of the bundle hull are
scaled by the lcm of their denominators (``exactmath.scaled_ints``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul, sub
from typing import Sequence

from .errors import DegenerateInput, InstanceTooLarge, UnsupportedDimension
from .exactmath import (
    IVec,
    Vec,
    dot,
    first_independent,
    rot90ccw,
    scaled_ints,
)


@dataclass(frozen=True)
class HalfSpace:
    """The closed set { x : normal . x <= offset }."""

    normal: Vec
    offset: Fraction

    def __post_init__(self):
        if all(c == 0 for c in self.normal):
            raise DegenerateInput("half-space with zero normal")

    def contains(self, x: Sequence[Fraction | int]) -> bool:
        return dot(self.normal, x) <= self.offset

    def tight_at(self, x: Sequence[Fraction | int]) -> bool:
        return dot(self.normal, x) == self.offset


@dataclass(frozen=True)
class HPolyhedron:
    """Intersection of finitely many half-spaces in R^dim (empty list = all of R^dim)."""

    dim: int
    halfspaces: tuple[HalfSpace, ...]

    def contains(self, x: Sequence[Fraction | int]) -> bool:
        return all(h.contains(x) for h in self.halfspaces)


@dataclass(frozen=True)
class AffinePiece:
    """The affine function x -> slope . x + intercept."""

    slope: Vec
    intercept: Fraction

    def evaluate(self, x: Sequence[Fraction | int]) -> Fraction:
        return dot(self.slope, x) + self.intercept


# ---------------------------------------------------------------------------
# the integer-preserving pivot
# ---------------------------------------------------------------------------


def _pivot(tableau: list[list[int]], row: int, col: int, det: int) -> int:
    """Integer-preserving pivot in place; returns the new common denominator.

    The tableau stands for ``tableau / det``.  The pivot row is kept; every
    other row x becomes (p*x - f*y) / det, in place if p = det, with p the
    pivot, f the row's entry in the pivot column and y the pivot row.  Each
    division is exact: each entry is a minor of the starting integer matrix
    (Edmonds 1967, Bareiss 1968).  The new denominator is |p|; a negative
    pivot negates every row.  No row object may appear twice in the tableau.
    """
    piv = tableau[row]
    p = piv[col]
    support = [j for j, y in enumerate(piv) if y]
    for i, line in enumerate(tableau):
        if line is piv:
            continue
        f = line[col]
        new = line if p == det else [p * x // det if x else 0 for x in line]
        if f:
            for j in support:
                new[j] = (p * line[j] - f * piv[j]) // det
        tableau[i] = new
    if p < 0:
        for i, line in enumerate(tableau):
            tableau[i] = [-x for x in line]
        return -p
    return p


# ---------------------------------------------------------------------------
# upper concave hull of lifted lattice points
# ---------------------------------------------------------------------------

MAX_HULL_POINTS = 64


def check_hull_cap(stage: str, count: int) -> None:
    """Refuse more than MAX_HULL_POINTS bundles, naming the stage."""
    if count > MAX_HULL_POINTS:
        raise InstanceTooLarge(f"{stage}: {count} bundles exceed the cap of {MAX_HULL_POINTS}")


def _extreme_rays(rows: Sequence[Sequence[int]], dim: int) -> list[tuple[IVec, int]]:
    """The primitive integer extreme rays of the pointed cone
    { x in R^dim : a . x >= 0 for every row a }, sorted, each with its zero
    set: the bit set of the rows it is tight on, bit k for ``rows[k]``.

    Incremental double description (Motzkin et al. 1953; Fukuda and Prodon
    1996).  The first ``dim`` independent rows form a nonsingular basis B,
    and the cone they cut out is simplicial: its rays are the columns of
    B^-1 made primitive, the oriented cofactor vectors.  Each further row a
    splits the current rays into r+ (a.r > 0), r0 and r- (a.r < 0); the
    r- leave, and every adjacent pair (r+, r-) gives the ray
    |a.r-| * r+ + (a.r+) * r-, gcd-reduced, on the new face.  Each ray
    carries its zero set over the processed rows; a new ray is tight
    exactly where both its parents are, and on the new row.  Two extreme
    rays are adjacent iff their common zero set has at least dim - 2 rows
    and lies in no other ray's zero set (Fukuda and Prodon, Prop. 7).
    Every test is an integer sign or a bit-set inclusion, and the extreme
    rays of a pointed cone, made primitive, are unique, so the order in
    which rows are added changes only the speed.

    Only lifts of three goods reach the inclusion scan.  Two non-adjacent
    rays span a face of dimension at least 3, so the rows tight on both
    lie in a subspace of dimension at most dim - 3, and no two lift rows
    (``_lift``) are proportional.  For one or two goods (dim 3 or 4) that
    subspace holds at most one row, fewer than dim - 2, so the count test
    alone decides adjacency.  In 5-D the scan matters only when three or
    more lifted points are collinear.
    """
    basis = first_independent(rows, dim)
    if len(basis) < dim:
        raise DegenerateInput(
            f"extreme rays: the {len(rows)} rows span a space of dimension "
            f"{len(basis)} < {dim}, so the cone is not pointed"
        )
    # Integer pivots (``_pivot``) on [B | I] end in [det*I | E] with
    # E = det * B^-1, det > 0.  Column j of B^-1 is tight on every basis row
    # but the j-th, and positive on that one.
    a = [list(rows[i]) + [int(j == k) for k in range(dim)] for j, i in enumerate(basis)]
    det = 1
    for col in range(dim):
        piv = next(r for r in range(col, dim) if a[r][col])
        a[col], a[piv] = a[piv], a[col]
        det = _pivot(a, col, col, det)
    full = sum(1 << i for i in basis)
    rays = []
    for j, i in enumerate(basis):
        ray = [a[r][dim + j] for r in range(dim)]
        g = gcd(*ray)
        rays.append((tuple(x // g for x in ray), full & ~(1 << i)))
    chosen = set(basis)
    for k, row in enumerate(rows):
        if k in chosen:
            continue
        bit = 1 << k
        plus, minus, kept = [], [], []
        for ray, zeros in rays:
            side = sum(x * y for x, y in zip(row, ray))
            if side > 0:
                plus.append((ray, zeros, side))
                kept.append((ray, zeros))
            elif side < 0:
                minus.append((ray, zeros, side))
            else:
                kept.append((ray, zeros | bit))
        zero_sets = [zeros for _, zeros in rays]
        for rp, zp, sp in plus:
            for rm, zm, sm in minus:
                common = zp & zm
                if common.bit_count() < dim - 2:
                    continue
                # rp and rm themselves contain the common zero set.
                if sum(1 for z in zero_sets if (z & common) == common) > 2:
                    continue
                w = [sp * y - sm * x for x, y in zip(rp, rm)]
                g = gcd(*w)
                kept.append((tuple(x // g for x in w), common | bit))
        rays = kept
    return sorted(rays)


def _units(n: int) -> list[IVec]:
    return [tuple(int(i == j) for i in range(n)) for j in range(n)]


def _lift(
    points: Sequence[IVec], heights: Sequence[Fraction | int]
) -> tuple[IVec, list[IVec], list[IVec], list[tuple[IVec, int, int, int]]]:
    """The one lift of distinct integer points q at rational heights h.

    The points get integer coordinates y on their affine hull: y = q when
    they span R^n, else y_i = e_i . (q - q_0) with e_1..e_d the differences
    q - q_0 that ``first_independent`` keeps.  ``_extreme_rays`` then runs
    once on the cone with rows (0, ..., 0, 1) and (y, 1, -h), one per point
    (bit k + 1 of a zero set is point k), each over its own denominator:
    the row (c*y, c, -a) for h = a/c in lowest terms, the same half-space.
    A ray (p, t, s) is the affine function m . q + b = p . y + t read back
    in R^n, at least s*h on every point and equal exactly on its zero
    set: with s > 0 an upper facet of the lifted points, with s = 0 and
    m != 0 a facet of their hull.
    Returns the origin (0 or q_0), the directions (unit vectors or e), the
    coordinates y, and every ray as (m, b, s, zero set).  The points fix
    the dimension n: all of one length, from 1 to 3.
    """
    n = len(points[0])
    for q in points:
        if len(q) != n:
            raise DegenerateInput(f"dimension mismatch: {len(q)} vs {n}")
    if not 1 <= n <= 3:
        raise UnsupportedDimension("hull enumeration supports up to 3 goods")
    diffs = [tuple(map(sub, q, points[0])) for q in points]
    kept = first_independent(diffs, n)
    if len(kept) == n:
        origin, directions, ys = (0,) * n, _units(n), list(points)
    else:
        origin, directions = points[0], [diffs[i] for i in kept]
        ys = [tuple(sum(map(mul, e, diff)) for e in directions) for diff in diffs]
    d = len(directions)
    rows = [(0,) * (d + 1) + (1,)] + [
        (*(h.denominator * c for c in y), h.denominator, -h.numerator) for y, h in zip(ys, heights)
    ]
    rays = []
    for (*p, t, s), zeros in _extreme_rays(rows, d + 2):
        m = tuple(sum(a * e[i] for a, e in zip(p, directions)) for i in range(n))
        rays.append((m, t - sum(map(mul, m, origin)), s, zeros))
    return origin, directions, ys, rays


def _normals(dirs: Sequence[IVec], dim: int) -> list[IVec]:
    """A basis of the normals to the span of the int ``dirs`` in R^1, R^2 or
    R^3: the unit vectors when there are none, else the quarter turn of the
    one direction in the plane, or the independent cross products in space."""
    if not dirs:
        return _units(dim)
    if dim == 2:
        return [rot90ccw(dirs[0])]
    u = dirs[0]
    crosses = [
        (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])
        for v in dirs[1:] or _units(3)
    ]
    return [crosses[i] for i in first_independent(crosses, dim)]


def _hull(lift, scale: int) -> HPolyhedron:
    """The H-representation of the convex hull of a lift's points, taken
    over ``scale`` (the points are q / scale).

    First the equations of the affine hull (``_normals``), each as a pair
    of opposite rows, then the facets -m . q <= b of the rays with s = 0.
    The facets are sorted by the sorted lift coordinates y of the points on
    each: the order in which a walk over every subset of the sorted points
    would first meet them.  Where two facets' sorted points first differ,
    the smaller point lies off the span of the points before it (else it
    would lie on the other facet too), so their lexicographically first
    affinely independent d-subsets compare the same way.  On a line the
    upper end comes first.  Each int row is made primitive, its offset
    divided by the normal's gcd.  No two rows coincide: distinct extreme
    rays give distinct facet normals, and every equation's normal is
    orthogonal to every facet normal.
    """
    origin, directions, ys, rays = lift
    n, d = len(origin), len(directions)
    rows = []
    if d < n:
        for normal in _normals(directions, n):
            c = sum(map(mul, normal, origin))
            rows += [(normal, c), (tuple(-x for x in normal), -c)]
    facets = []
    for m, b, s, zeros in rays:
        if s == 0 and any(m):
            tight = sorted(y for k, y in enumerate(ys) if zeros >> (k + 1) & 1)
            facets.append((tight, tuple(-x for x in m), b))
    facets.sort(reverse=d == 1)
    rows += [(normal, c) for _, normal, c in facets]
    halfspaces = []
    for a, c in rows:
        g = gcd(*a)
        halfspaces.append(HalfSpace(tuple(Fraction(x // g) for x in a), Fraction(c, g * scale)))
    return HPolyhedron(n, tuple(halfspaces))


def upper_concave_hull(
    points: Sequence[tuple[IVec, Fraction]],
) -> tuple[list[AffinePiece], list[frozenset[int]], HPolyhedron]:
    """Minimal affine pieces whose pointwise min majorizes the lifted points,
    the cell of each piece, and the bundles' convex hull.

    The bundles, sorted, are lifted once (``_lift``) at their values, each
    lift row over its own value's denominator.  The pieces are the
    vertices of the indirect utility's epigraph, the rays (m, b, s) with
    s > 0: each is the piece u = (m . q + b) / s, and its cell the
    indices of the points in its zero set, where it equals the value.  The
    points in no cell are the bundles never demanded.  The rays with s = 0
    give the domain (``_hull``), the same rows as ``convex_hull_halfspaces``
    of the bundles.  This is the only source of the concave dual's pieces
    and never-demanded bundles (``valuation.dualize``) and of the 2-D
    complexes' cells.  At most 64
    points and 3 goods.
    """
    if not points:
        raise DegenerateInput("hull of no points")
    check_hull_cap("upper concave hull", len(points))
    order = sorted(range(len(points)), key=lambda i: points[i][0])
    bundles = [points[i][0] for i in order]
    if len(set(bundles)) != len(bundles):
        raise DegenerateInput("duplicate bundle keys")
    lift = _lift(bundles, [points[i][1] for i in order])
    tight = []
    for m, b, s, zeros in lift[3]:
        if s > 0:
            piece = AffinePiece(tuple(Fraction(x, s) for x in m), Fraction(b, s))
            tight.append((piece, frozenset(i for k, i in enumerate(order) if zeros >> (k + 1) & 1)))
    tight.sort(key=lambda t: (t[0].slope, t[0].intercept))
    return [p for p, _ in tight], [cell for _, cell in tight], _hull(lift, 1)


def convex_hull_halfspaces(points: Sequence[Sequence[Fraction | int]]) -> HPolyhedron:
    """H-representation of the convex hull of finitely many rational points.

    The points, all of one length from 1 to 3, fix the dimension.  The
    distinct points, sorted, are scaled by the lcm of their denominators
    to integer points, lifted at height 0 (``_lift``) and read by
    ``_hull``: a full-dimensional set gets its
    facets, a lower-dimensional one (a point, a line, or a plane in R^3)
    the equations of its affine hull and then its facets within it.
    """
    if not points:
        raise DegenerateInput("hull of no points")
    scale, ints = scaled_ints(sorted(set(tuple(Fraction(c) for c in p) for p in points)))
    return _hull(_lift(ints, [0] * len(ints)), scale)
