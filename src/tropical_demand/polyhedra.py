"""Exact polyhedral primitives.

Half-space representations, an exact two-phase simplex solver with Bland's
anti-cycling rule, irredundancy reduction, an LP-free 2-D half-plane
intersection, and upper concave hulls of lifted lattice points.  Everything
is a pure function on immutable inputs.  Inputs and results are Fractions.

The simplex runs on a tableau of ints over one positive common denominator.
The constraint rows are scaled once by the lcm of all their denominators,
and each pivot keeps the pivot row and divides every other row exactly by
the old denominator (integer-preserving pivoting, as in Edmonds 1967 and
Bareiss 1968).  Bland's rule tests only signs and compares ratios by
cross-multiplication, so it takes the same pivots as on the rational
tableau; only the final point and the uniqueness probes' optima become
Fractions.

``halfplane_intersection`` sorts the half-planes by the angle of their
normals with exact cross products and walks them once with a deque.  In one
pass it decides whether the intersection has interior and, if so, returns
its polygon (vertex chain plus recession rays, no bounding box) together with
the half-planes that support each edge.  Its offsets are scaled once by the
lcm of their denominators, so each test in the walk is the sign of one
integer expression; only the final vertices are Fractions.  The 2-D
complexes build every region with it, the 2-good concave dual reads its
pieces off their vertices, and 2-D essential pieces are the regions it
finds; the simplex remains for the market and for n-good regions.
The market solves its epigraph LP once: ``simplex_solve`` keeps the final
phase-2 tableau on its result, and ``_optimum_is_unique`` reads the optimal
face off it with warm-started Bland pivots instead of solving new LPs.

The upper concave hull of lifted points (the dual of 1-good, collinear and
3-good valuations, and the test oracle for 2 goods) and the convex hull of
the bundles share one facet walk, ``_facets``: every m-subset of lattice
points in R^m spans a candidate hyperplane whose normal is the vector of
integer cofactors of its difference vectors, kept when all points lie on
one side.  Rational values and points are first scaled by the lcm of their
denominators, so every test is an integer determinant.
"""

from __future__ import annotations

import functools
import itertools
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .errors import DegenerateInput, InstanceTooLarge, UnsupportedDimension
from .exactmath import (
    IVec,
    Vec,
    ZERO,
    ccw_compare,
    dot,
    independent_directions,
    rational_direction,
    rot90ccw,
    vsub,
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


@dataclass(frozen=True)
class LinearProgram:
    """min or max of objective . x subject to half-space rows, equality rows,
    and per-variable nonnegativity flags."""

    objective: Vec
    sense: str  # "min" | "max"
    constraints: tuple[HalfSpace, ...]
    equalities: tuple[tuple[Vec, Fraction], ...] = ()
    nonneg: tuple[bool, ...] = ()

    def __post_init__(self):
        n = len(self.objective)
        if self.sense not in ("min", "max"):
            raise DegenerateInput(f"unknown sense {self.sense!r}")
        for h in self.constraints:
            if len(h.normal) != n:
                raise DegenerateInput("constraint row length mismatch")
        for row, _ in self.equalities:
            if len(row) != n:
                raise DegenerateInput("equality row length mismatch")
        if self.nonneg and len(self.nonneg) != n:
            raise DegenerateInput("nonneg mask length mismatch")


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None = None
    point: Vec | None = None
    # Optimal solves only: the final phase-2 integer tableau (reduced-cost
    # row last), its basis, the columns of each variable and the common
    # denominator det of the tableau, for _optimum_is_unique.
    _tableau: tuple | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Polygon2:
    """2-D polyhedron geometry: ccw vertex chain plus recession rays.

    kind is one of "bounded" (the chain starts at its lex-min vertex),
    "unbounded" (pointed, rays at the chain ends), "plane" (no constraints)
    or "unpointed" (contains a line: rays hold the lineality directions).
    """

    vertices: tuple[Vec, ...]
    rays: tuple[IVec, ...]
    kind: str


@dataclass(frozen=True)
class PolygonEdge:
    """One boundary edge of a 2-D region, run with the region on its left.

    start and end are None where the edge runs to infinity.  line is the
    supporting half-plane scaled to a primitive integer normal, and sources
    indexes every input half-plane that equals it after scaling.
    """

    start: Vec | None
    end: Vec | None
    line: HalfSpace
    sources: tuple[int, ...]


# ---------------------------------------------------------------------------
# simplex
# ---------------------------------------------------------------------------


def _pivot(tableau: list[list[int]], row: int, col: int, det: int) -> int:
    """Integer-preserving pivot in place; returns the new common denominator.

    The tableau stands for ``tableau / det``.  The pivot row is kept, and
    every other row x becomes (p*x - f*y) / det, with p the pivot, f the
    row's entry in the pivot column and y the pivot row.  Every such
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
        if p == det:
            # x - f*y/det: only the pivot row's nonzero columns move.
            if f:
                for j in support:
                    line[j] -= f * piv[j] // det
            continue
        new = [p * x // det if x else 0 for x in line]
        if f:
            for j in support:
                new[j] = (p * line[j] - f * piv[j]) // det
        tableau[i] = new
    if p < 0:
        for i, line in enumerate(tableau):
            tableau[i] = [-x for x in line]
        return -p
    return p


def _bland(tableau: list[list[int]], basis: list[int], ncols: int, det: int) -> tuple[str, int]:
    """Run Bland-rule simplex iterations on a tableau whose last row holds
    reduced costs (minimization), all over the positive denominator ``det``.
    Returns "optimal" or "unbounded" and the final denominator.  Only signs
    are tested, and the ratio test compares rhs / a by cross-multiplication,
    so no test depends on ``det``."""
    m = len(basis)
    while True:
        cost = tableau[m]
        enter = next((j for j in range(ncols) if cost[j] < 0), None)
        if enter is None:
            return "optimal", det
        leave = None
        for r in range(m):
            a = tableau[r][enter]
            if a > 0:
                b = tableau[r][ncols]
                # b / a against the least ratio so far, cross-multiplied
                if leave is None or b * best_a < best_b * a or (
                    b * best_a == best_b * a and basis[r] < basis[leave]
                ):
                    leave, best_a, best_b = r, a, b
        if leave is None:
            return "unbounded", det
        det = _pivot(tableau, leave, enter, det)
        basis[leave] = enter


def _price_out(cost: list[int], rows: list[list[int]], basis: list[int], det: int) -> list[int]:
    """Reduced costs of an integer cost row that ends in 0, over ``det``:
    det*c - sum_r c[basis[r]] * rows[r].  Each basic column of ``rows`` is
    det times a unit vector, so this clears the basic columns, and the last
    entry is minus the basic solution's value times det."""
    out = [det * c for c in cost]
    for line, var in zip(rows, basis):
        f = cost[var]
        if f:
            out = [c - f * a for c, a in zip(out, line)]
    return out


def simplex_solve(lp: LinearProgram) -> LPResult:
    """Exact two-phase simplex on an integer tableau.

    Every constraint row is scaled by one lcm L of all the rows'
    denominators.  A global scale only rescales the slack and artificial
    variables and the phase-1 objective, so Bland's rule takes the same
    pivots as on the rational rows; a per-row scale would change the
    phase-1 reduced costs.  The tableau then holds ints over one common
    denominator (see ``_pivot``), and only the final point is made of
    Fractions.  An optimal result also carries its final tableau, from which
    ``_optimum_is_unique`` decides whether that solution is the only one
    without solving another LP.
    """
    nvars = len(lp.objective)
    nonneg = lp.nonneg if lp.nonneg else tuple(False for _ in range(nvars))

    # Map original variables onto nonnegative columns (free vars are split).
    col_of: list[list[tuple[int, int]]] = []
    ncols = 0
    for j in range(nvars):
        if nonneg[j]:
            col_of.append([(ncols, 1)])
            ncols += 1
        else:
            col_of.append([(ncols, 1), (ncols + 1, -1)])
            ncols += 2
    nstruct = ncols

    source = [(h.normal, h.offset) for h in lp.constraints] + list(lp.equalities)
    scale = lcm(*(x.denominator for normal, b in source for x in (*normal, b)))
    nslack = len(lp.constraints)
    ncols = nstruct + nslack
    m = len(source)
    total = ncols + m

    # Phase 1: slack and artificial columns are unit columns; minimize the
    # sum of the artificials.
    tableau: list[list[int]] = []
    for i, (normal, b) in enumerate(source):
        row = [0] * (total + 1)
        for j, coeff in enumerate(normal):
            for col, sign in col_of[j]:
                row[col] += sign * coeff.numerator * (scale // coeff.denominator)
        if i < nslack:
            row[nstruct + i] = 1
        row[total] = b.numerator * (scale // b.denominator)
        if row[total] < 0:
            row = [-x for x in row]
        row[ncols + i] = 1
        tableau.append(row)
    basis = [ncols + i for i in range(m)]
    tableau.append(_price_out([0] * ncols + [1] * m + [0], tableau, basis, 1))
    _, det = _bland(tableau, basis, total, 1)
    if tableau[m][total] != 0:
        return LPResult(status="infeasible")

    # Drive remaining artificials out of the basis; drop redundant rows.
    keep = []
    for r in range(m):
        if basis[r] >= ncols:
            col = next((j for j in range(ncols) if tableau[r][j] != 0), None)
            if col is None:
                continue  # redundant row
            det = _pivot(tableau, r, col, det)
            basis[r] = col
        keep.append(r)
    rows2 = [tableau[r][:ncols] + [tableau[r][total]] for r in keep]
    basis2 = [basis[r] for r in keep]

    # Phase 2, on the objective scaled to ints by the lcm of its denominators.
    sign = 1 if lp.sense == "min" else -1
    oscale = lcm(*(c.denominator for c in lp.objective))
    objective = [0] * (ncols + 1)
    for j, c in enumerate(lp.objective):
        for col, s in col_of[j]:
            objective[col] += sign * s * c.numerator * (oscale // c.denominator)
    tableau2 = rows2 + [_price_out(objective, rows2, basis2, det)]
    status, det = _bland(tableau2, basis2, ncols, det)
    if status == "unbounded":
        return LPResult(status="unbounded")

    values = [0] * ncols
    for r, var in enumerate(basis2):
        values[var] = tableau2[r][ncols]
    point = tuple(
        Fraction(sum(s * values[col] for col, s in col_of[j]), det) for j in range(nvars)
    )
    return LPResult(
        status="optimal",
        value=dot(lp.objective, point),
        point=point,
        _tableau=(tableau2, basis2, col_of, det),
    )


def _optimum_is_unique(res: LPResult, coords: Iterable[int]) -> bool:
    """Whether ``res.point`` is the only optimum in the coordinates ``coords``.

    At the optimal basis the objective reads z* + sum_k d_k x_k with every
    reduced cost d_k >= 0, so the optimal face is the feasible tableau with
    each column of d_k > 0 fixed at zero.  Those columns are dropped, which
    leaves the basis primal feasible, and each coordinate (x+ - x- for a
    free variable) is minimized and then maximized over the face by
    Bland-rule pivots from the current basis.  Unique iff every probe is
    bounded and attains ``point[j]``.
    """
    tableau, basis, col_of, det = res._tableau
    cost = tableau[len(basis)]
    keep = [k for k in range(len(cost) - 1) if cost[k] == 0]
    index = {k: i for i, k in enumerate(keep)}
    face = [[row[k] for k in keep] + [row[-1]] for row in tableau[: len(basis)]]
    basis = [index[k] for k in basis]
    for j in coords:
        for sign in (1, -1):
            probe = [0] * (len(keep) + 1)
            for col, s in col_of[j]:
                if col in index:
                    probe[index[col]] = sign * s
            face.append(_price_out(probe, face, basis, det))
            status, det = _bland(face, basis, len(keep), det)
            # the least value of sign * x_j on the face
            least = Fraction(-face.pop()[-1], det)
            if status != "optimal" or sign * least != res.point[j]:
                return False
    return True


# ---------------------------------------------------------------------------
# feasibility and redundancy
# ---------------------------------------------------------------------------


def feasible_point(poly: HPolyhedron) -> Vec | None:
    lp = LinearProgram(
        objective=tuple(ZERO for _ in range(poly.dim)),
        sense="min",
        constraints=poly.halfspaces,
    )
    res = simplex_solve(lp)
    return res.point if res.status == "optimal" else None


def interior_point(poly: HPolyhedron) -> Vec | None:
    """A point strictly inside all half-spaces, or None if the polyhedron is
    empty or not full-dimensional."""
    n = poly.dim
    # Variables (x, t); maximize t subject to normal.x + t <= offset, t <= 1.
    constraints = [
        HalfSpace(tuple(h.normal) + (Fraction(1),), h.offset) for h in poly.halfspaces
    ]
    constraints.append(
        HalfSpace(tuple(ZERO for _ in range(n)) + (Fraction(1),), Fraction(1))
    )
    lp = LinearProgram(
        objective=tuple(ZERO for _ in range(n)) + (Fraction(1),),
        sense="max",
        constraints=tuple(constraints),
    )
    res = simplex_solve(lp)
    if res.status != "optimal" or res.value is None or res.value <= 0:
        return None
    return res.point[:n]


def _tightest_rows(halfspaces: Sequence[HalfSpace]) -> dict[IVec, tuple[Fraction, list[int]]]:
    """Rows scaled to primitive integer normals: per normal, in order of first
    appearance, the least offset and the indices of the rows attaining it."""
    best: dict[IVec, tuple[Fraction, list[int]]] = {}
    for i, h in enumerate(halfspaces):
        n, w = rational_direction(h.normal)
        c = h.offset / w
        if n not in best or c < best[n][0]:
            best[n] = (c, [i])
        elif c == best[n][0]:
            best[n][1].append(i)
    return best


def dedupe_halfspaces(halfspaces: Sequence[HalfSpace]) -> tuple[HalfSpace, ...]:
    """Scale-normalize and drop repeated or dominated copies of the same row."""
    return tuple(
        HalfSpace(tuple(Fraction(x) for x in n), c)
        for n, (c, _) in _tightest_rows(halfspaces).items()
    )


def reduce(poly: HPolyhedron) -> HPolyhedron:
    """Irredundant representation of the same set, one LP per constraint.

    Empty polyhedra are returned unchanged (irredundancy is not meaningful
    for them).
    """
    halfspaces = list(dedupe_halfspaces(poly.halfspaces))
    if not halfspaces:
        return HPolyhedron(poly.dim, ())
    if feasible_point(HPolyhedron(poly.dim, tuple(halfspaces))) is None:
        return poly
    kept = halfspaces[:]
    i = 0
    while i < len(kept):
        others = kept[:i] + kept[i + 1 :]
        lp = LinearProgram(
            objective=kept[i].normal,
            sense="max",
            constraints=tuple(others),
        )
        res = simplex_solve(lp)
        redundant = res.status == "optimal" and res.value <= kept[i].offset
        if redundant:
            kept.pop(i)
        else:
            i += 1
    return HPolyhedron(poly.dim, tuple(kept))


# ---------------------------------------------------------------------------
# 2-D half-plane intersection
# ---------------------------------------------------------------------------


def _cross(p, q):
    return p[0] * q[1] - p[1] * q[0]


def _meet(p, q, scale: int) -> Vec:
    """Intersection point of the boundary lines of two non-parallel rows
    whose integer offsets are ``scale`` times the true ones."""
    det = _cross(p, q) * scale
    return (
        Fraction(p[2] * q[1] - q[2] * p[1], det),
        Fraction(p[0] * q[2] - q[0] * p[2], det),
    )


def _excess_sign(row, p, q) -> int:
    """An int with the sign of ``row``'s excess at the meet of ``p`` and
    ``q``: positive outside the row's half-plane, zero on its line.  The
    meet is (X, Y) / det, so the excess is (a*X + b*Y - c*det) / det, an
    integer over det when the three offsets share one scale."""
    det = _cross(p, q)
    x = p[2] * q[1] - q[2] * p[1]
    y = p[0] * q[2] - q[0] * p[2]
    num = row[0] * x + row[1] * y - row[2] * det
    return num if det > 0 else -num


def _line(row) -> HalfSpace:
    return HalfSpace((Fraction(row[0]), Fraction(row[1])), row[4])


_BY_ANGLE = functools.cmp_to_key(lambda p, q: ccw_compare(p[:2], q[:2]))


def halfplane_intersection(
    halfspaces: Sequence[HalfSpace],
) -> tuple[Polygon2, tuple[PolygonEdge, ...]] | None:
    """Exact intersection of 2-D half-planes, or None when it has no interior
    (empty, a point, a segment, a ray or a line).

    Rows are scaled to primitive integer normals, and of the rows sharing a
    normal only the tightest are kept.  Their offsets are then scaled by one
    lcm L of their denominators, so every row is (a, b, L*c) in ints.  The
    rows are sorted by the angle of their normals, with exact cross
    products, and walked once with a deque.  The walk starts after a gap of
    at least pi between consecutive normals when there is one, which makes
    the region unbounded.  While the walked normals span at most pi, the
    deque is a chain whose two ends run to infinity.  The first row turning
    more than pi from the front closes it into a bounded polygon; after
    that, a row that contains the closing vertex is redundant.  Each new row
    pops the end vertices it does not strictly contain.  When one line is
    left and the new row turns by pi or more from it, no interior remains.
    Every containment test is the sign of one integer expression
    (``_excess_sign``); vertices are made into Fractions only for the final
    deque.

    Returns the polygon and its edges in chain order, each edge with the
    input rows that support it and its unscaled offset.
    """
    if any(len(h.normal) != 2 for h in halfspaces):
        raise UnsupportedDimension("half-plane intersection is 2-D only")
    tightest = _tightest_rows(halfspaces)
    scale = lcm(*(c.denominator for c, _ in tightest.values()))
    rows = sorted(
        (
            (n[0], n[1], c.numerator * (scale // c.denominator), src, c)
            for n, (c, src) in tightest.items()
        ),
        key=_BY_ANGLE,
    )
    m = len(rows)
    if m == 0:
        return Polygon2((), (), "plane"), ()

    if all(_cross(rows[0], row) == 0 for row in rows):
        # One direction or two opposite ones: a half-plane or a strip.
        if m == 2 and rows[0][2] + rows[1][2] <= 0:
            return None
        n = next(iter(tightest))  # the first row's direction
        d = (-n[1], n[0])
        edges = tuple(PolygonEdge(None, None, _line(row), tuple(row[3])) for row in rows)
        return Polygon2((), (d, (-d[0], -d[1])), "unpointed"), edges

    gap = next((i for i in range(m) if _cross(rows[i], rows[(i + 1) % m]) <= 0), m - 1)
    dq: deque = deque()
    closed = False
    for row in rows[gap + 1 :] + rows[: gap + 1]:
        if closed and _excess_sign(row, dq[-1], dq[0]) <= 0:
            continue
        while len(dq) >= 2 and _excess_sign(row, dq[-2], dq[-1]) >= 0:
            dq.pop()
        while len(dq) >= 2 and _excess_sign(row, dq[0], dq[1]) >= 0:
            dq.popleft()
        if dq:
            turn = _cross(dq[0], row)
            if len(dq) == 1 and turn <= 0:
                return None
            closed = closed or turn < 0
        dq.append(row)

    lines = list(dq)
    if closed:
        starts = [_meet(lines[i - 1], lines[i], scale) for i in range(len(lines))]
        s = starts.index(min(starts))
        lines, starts = lines[s:] + lines[:s], starts[s:] + starts[:s]
        ends = starts[1:] + starts[:1]
        polygon = Polygon2(tuple(starts), (), "bounded")
    else:
        starts = [None] + [_meet(lines[i - 1], lines[i], scale) for i in range(1, len(lines))]
        ends = starts[1:] + [None]
        first, last = lines[0], lines[-1]
        rays = ((first[1], -first[0]), (-last[1], last[0]))
        polygon = Polygon2(tuple(starts[1:]), rays, "unbounded")
    edges = tuple(
        PolygonEdge(a, b, _line(row), tuple(row[3])) for row, a, b in zip(lines, starts, ends)
    )
    return polygon, edges


# ---------------------------------------------------------------------------
# upper concave hull of lifted lattice points
# ---------------------------------------------------------------------------

MAX_HULL_POINTS = 64


def check_hull_cap(stage: str, count: int) -> None:
    """Refuse more than MAX_HULL_POINTS bundles, naming the stage."""
    if count > MAX_HULL_POINTS:
        raise InstanceTooLarge(f"{stage}: {count} bundles exceed the cap of {MAX_HULL_POINTS}")


def _det(rows: Sequence[Sequence[int]]) -> int:
    """Laplace expansion along the first row; the matrices here are at most 3x3."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * x * _det([r[:j] + r[j + 1 :] for r in rows[1:]])
        for j, x in enumerate(rows[0])
    )


def _facets(points: Sequence[IVec]):
    """Hyperplanes through m of the lattice points in R^m with every point on
    one side: ``(normal, offset)`` with ``normal . p <= offset`` for all p,
    both orientations when all points lie on the hyperplane, in subset order.
    The normal is the vector of signed cofactors of the m-1 difference
    vectors."""
    m = len(points[0])
    for p0, *rest in itertools.combinations(points, m):
        diffs = [[x - y for x, y in zip(p, p0)] for p in rest]
        normal = tuple((-1) ** j * _det([r[:j] + r[j + 1 :] for r in diffs]) for j in range(m))
        if not any(normal):
            continue
        offset = sum(a * x for a, x in zip(normal, p0))
        if all(sum(a * x for a, x in zip(normal, p)) <= offset for p in points):
            yield normal, offset
        if all(sum(a * x for a, x in zip(normal, p)) >= offset for p in points):
            yield tuple(-a for a in normal), -offset


def upper_concave_hull(
    points: Sequence[tuple[IVec, Fraction]],
) -> tuple[list[AffinePiece], set[int]]:
    """Minimal affine pieces whose pointwise min majorizes the lifted points.

    The bundles get integer coordinates y on their affine hull, of dimension
    d, and each upper facet a.y + c*L*u <= b (c > 0, L the lcm of the value
    denominators) of the lifted points (y, L*u) is the piece
    u = (b - a.y) / (c*L), read back in bundle coordinates.  The facet walk
    tests every (d+1)-subset: O(K^(n+2)), so the input is capped at 64
    points and 3 goods.  Hull indices are exactly the points the majorant
    touches.
    """
    if not points:
        raise DegenerateInput("hull of no points")
    check_hull_cap("upper concave hull", len(points))
    bundles = [q for q, _ in points]
    values = [Fraction(v) for _, v in points]
    n = len(bundles[0])
    if n > 3:
        raise UnsupportedDimension("hull enumeration supports up to 3 goods")
    if len(set(bundles)) != len(bundles):
        raise DegenerateInput("duplicate bundle keys")

    if len(bundles) == 1:
        piece = AffinePiece(slope=tuple(ZERO for _ in range(n)), intercept=values[0])
        return [piece], {0}

    base = bundles[0]
    directions = independent_directions([tuple(Fraction(c) for c in q) for q in bundles])
    scale = lcm(*(u.denominator for u in values))
    lifted = [
        (*(int(dot(b, vsub(q, base))) for b in directions), int(u * scale))
        for q, u in zip(bundles, values)
    ]
    pieces = set()
    for normal, offset in _facets(lifted):
        c = normal[-1] * scale
        if c > 0:
            slope = tuple(
                sum((Fraction(-a, c) * b[i] for a, b in zip(normal[:-1], directions)), ZERO)
                for i in range(n)
            )
            pieces.add(AffinePiece(slope=slope, intercept=Fraction(offset, c) - dot(slope, base)))
    pieces = sorted(pieces, key=lambda p: (p.slope, p.intercept))

    hull = {
        i
        for i, (q, u) in enumerate(zip(bundles, values))
        if min(p.evaluate(q) for p in pieces) == u
    }
    return pieces, hull


def _normals(dirs: Sequence[Vec], dim: int) -> list[Vec]:
    """A basis of the normals to the span of ``dirs`` in R^2 or R^3: the unit
    vectors when there are none, else the quarter turn of the one direction
    in the plane, or the independent cross products in space."""
    units = [tuple(Fraction(int(i == j)) for i in range(dim)) for j in range(dim)]
    if not dirs:
        return units
    if dim == 2:
        return [rot90ccw(dirs[0])]
    u = dirs[0]
    crosses = [
        (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])
        for v in dirs[1:] or units
    ]
    return independent_directions([(ZERO,) * 3, *crosses])


def convex_hull_halfspaces(points: Sequence[Sequence[Fraction | int]], dim: int) -> HPolyhedron:
    """H-representation of the convex hull of finitely many rational points.

    Supports dim <= 3.  Full-dimensional sets take their facets from the
    integer facet walk, in order of first appearance over the sorted points.
    A lower-dimensional set gets the equations of its affine hull, each as a
    pair of opposite rows, and then its hull within the affine hull, built
    in the coordinates ``y_i = d_i . (p - p_0)`` along its independent
    directions and read back in R^dim.
    """
    pts = [tuple(Fraction(c) for c in p) for p in points]
    if not pts:
        raise DegenerateInput("hull of no points")
    if dim == 1:
        xs = [p[0] for p in pts]
        return HPolyhedron(
            1,
            (
                HalfSpace((Fraction(1),), max(xs)),
                HalfSpace((Fraction(-1),), -min(xs)),
            ),
        )
    if dim not in (2, 3):
        raise UnsupportedDimension("convex hulls supported up to dimension 3")
    uniq = sorted(set(pts))
    dirs = independent_directions(uniq)
    if len(dirs) < dim:
        base = uniq[0]
        hs = []
        for n in _normals(dirs, dim):
            hs += [HalfSpace(n, dot(n, base)), HalfSpace(tuple(-c for c in n), -dot(n, base))]
        if dirs:
            ys = [tuple(dot(d, vsub(p, base)) for d in dirs) for p in uniq]
            for h in convex_hull_halfspaces(ys, len(dirs)).halfspaces:
                n = tuple(sum(a * d[i] for a, d in zip(h.normal, dirs)) for i in range(dim))
                hs.append(HalfSpace(n, h.offset + dot(n, base)))
        return HPolyhedron(dim, dedupe_halfspaces(hs))
    scale = lcm(*(c.denominator for p in uniq for c in p))
    hs = [
        HalfSpace(tuple(Fraction(a) for a in normal), Fraction(offset, scale))
        for normal, offset in _facets([tuple(int(c * scale) for c in p) for p in uniq])
    ]
    return HPolyhedron(dim, dedupe_halfspaces(hs))
