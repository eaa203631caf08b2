import functools
import itertools
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tropical_demand import (
    AffinePiece,
    DegenerateInput,
    HPolyhedron,
    HalfSpace,
    UnsupportedDimension,
    convex_hull_halfspaces,
    price_complex,
    upper_concave_hull,
)
from tropical_demand import polyhedra
from tropical_demand.exactmath import dot
from tropical_demand.polyhedra import _pivot

import facet_walk
from fraction_simplex import LinearProgram, _optimum_is_unique, epigraph_lp, simplex_solve
from facet_walk import independent_directions
from fraction_regions import halfplane_intersection
from conftest import economies, make_valuation, valuations

F = Fraction


def hs(normal, offset) -> HalfSpace:
    return HalfSpace(normal=tuple(F(c) for c in normal), offset=F(offset))


def solve_linear_system(rows, rhs) -> list[Fraction] | None:
    """Solve a square exact linear system by Gaussian elimination; None when
    the matrix is singular.  Serves the two independent oracles below."""
    n = len(rows)
    if n == 0:
        return []
    if any(len(r) != n for r in rows) or len(rhs) != n:
        raise DegenerateInput("solve_linear_system needs a square system")
    a = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        inv = a[col][col]
        a[col] = [x / inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def test_solve_linear_system():
    sol = solve_linear_system([[F(2), F(1)], [F(1), F(-1)]], [F(5), F(1)])
    assert sol == [F(2), F(1)]
    assert solve_linear_system([[F(1), F(2)], [F(2), F(4)]], [F(1), F(2)]) is None


# ---------------------------------------------------------------------------
# upper concave hull
# ---------------------------------------------------------------------------


def test_hull_of_five_bundle_valuation():
    points = [((0, 0), F(0)), ((2, 0), F(16)), ((1, 1), F(24)), ((0, 2), F(28)), ((2, 2), F(34))]
    pieces, cells, _ = upper_concave_hull(points)
    got = {(p.slope, p.intercept) for p in pieces}
    assert got == {
        ((F(1), F(9)), F(14)),
        ((F(3), F(7)), F(14)),
        ((F(8), F(16)), F(0)),
        ((F(10), F(14)), F(0)),
    }
    assert frozenset().union(*cells) == {0, 1, 2, 3, 4}


def test_hull_single_point():
    pieces, cells, _ = upper_concave_hull([((0, 0), F(0))])
    assert len(pieces) == 1
    assert pieces[0].slope == (F(0), F(0)) and pieces[0].intercept == 0
    assert frozenset().union(*cells) == {0}


def test_hull_one_dimensional_chord():
    # Independent oracle: the middle point lies strictly below the chord
    # through the outer points, (0 + 4) / 2 = 2 > 1.
    points = [((0,), F(0)), ((1,), F(1)), ((2,), F(4))]
    chord_mid = (points[0][1] + points[2][1]) / 2
    assert points[1][1] < chord_mid
    pieces, cells, _ = upper_concave_hull(points)
    assert frozenset().union(*cells) == {0, 2}
    assert min(p.evaluate((F(1),)) for p in pieces) == 2


def test_hull_duplicate_bundles_rejected():
    with pytest.raises(DegenerateInput):
        upper_concave_hull([((0, 0), F(0)), ((0, 0), F(1))])


def test_hull_collinear_bundles_in_two_goods():
    points = [((0, 0), F(0)), ((1, 1), F(5)), ((2, 2), F(6))]
    pieces, cells, _ = upper_concave_hull(points)
    assert frozenset().union(*cells) == {0, 1, 2}
    for q, u in points:
        assert min(p.evaluate(q) for p in pieces) == u


@st.composite
def lifted_points(draw, full_dimensional=False):
    """Bundles of 1-3 goods with rational values, sorted by bundle."""
    n = draw(st.integers(1, 3))
    coord = st.integers(0, 4 if n < 3 else 2)
    entries = draw(
        st.dictionaries(
            st.tuples(*[coord] * n),
            st.fractions(min_value=0, max_value=50, max_denominator=12),
            min_size=n + 1 if full_dimensional else 1,
            max_size=8,
        )
    )
    points = sorted(entries.items())
    if full_dimensional:
        assume(len(independent_directions([q for q, _ in points])) == n)
    return points


@settings(max_examples=60, deadline=None)
@given(lifted_points())
def test_hull_majorizes_with_equality_exactly_on_hull(points):
    pieces, cells, _ = upper_concave_hull(points)
    hull = frozenset().union(*cells)
    for i, (q, u) in enumerate(points):
        envelope = min(p.evaluate(q) for p in pieces)
        assert envelope >= u
        assert (envelope == u) == (i in hull)


@settings(max_examples=60, deadline=None)
@given(lifted_points(full_dimensional=True))
def test_hull_pieces_match_subset_interpolation(points):
    # Reference: interpolate every (n+1)-subset of the lifted points exactly
    # and keep the affine functions that lie above all of them.
    n = len(points[0][0])
    expected = set()
    for subset in itertools.combinations(points, n + 1):
        sol = solve_linear_system([[*q, 1] for q, _ in subset], [u for _, u in subset])
        if sol is None:
            continue
        slope, intercept = tuple(sol[:n]), sol[n]
        if all(dot(slope, q) + intercept >= u for q, u in points):
            expected.add((slope, intercept))
    pieces, _, _ = upper_concave_hull(points)
    assert [(p.slope, p.intercept) for p in pieces] == sorted(expected)


@st.composite
def big_denominator_values(draw):
    """A value in [0, 50] over its own denominator of 30 to 40 digits, so
    that the lcm of a valuation's denominators runs to hundreds of digits."""
    d = draw(st.integers(10**29, 10**40 - 1))
    return F(draw(st.integers(0, 50 * d)), d)


VALUE_KINDS = {
    "ties 0..1": dict(max_value=1),
    "ties 0..3": dict(max_value=3),
    "rational": dict(rational=True),
    "big denominators": dict(values=big_denominator_values()),
    "wide": dict(),
}


@st.composite
def walk_points(draw):
    """Sorted lifted points of 1-3 goods for the facet-walk differentials.

    Bundles of 2 or 3 goods come from ``valuations``.  They are kept, or
    mapped injectively onto a line in R^1, R^2 or R^3, or (2 goods) onto a
    plane in R^3.  Values are tie-heavy, rational over coprime denominators
    or wide.  They may be replaced by an integer linear function, which puts
    every lifted point on one hyperplane, or have one added, which keeps
    the tie-heavy values' coplanar subsets coplanar in a tilted position."""
    goods = draw(st.sampled_from([2, 3]))
    kind = draw(st.sampled_from(sorted(VALUE_KINDS)))
    v = draw(valuations(max_bundles=14, coord=3, goods=goods, **VALUE_KINDS[kind]))
    shape = draw(st.sampled_from(["kept", "line", "plane"] if goods == 2 else ["kept", "line"]))
    if shape == "line":
        direction = draw(st.sampled_from([(1,), (1, 2), (2, 1, 3)]))
        embed = lambda q: tuple(sum(x * 4**i for i, x in enumerate(q)) * d for d in direction)
    elif shape == "plane":
        embed = lambda q: (q[0], q[1], q[0] + 2 * q[1])
    else:
        embed = lambda q: q
    points = {embed(q): u for q, u in v.entries.items()}
    lift = draw(st.sampled_from(["values", "linear", "linear plus values"]))
    if lift != "values":
        slope = draw(st.tuples(*[st.integers(0, 3)] * len(next(iter(points)))))
        keep = lift != "linear"
        points = {q: sum(a * x for a, x in zip(slope, q)) + keep * u for q, u in points.items()}
    return sorted(points.items())


@settings(max_examples=200, deadline=None)
@given(walk_points())
@example([((0,), F(0)), ((1,), F(1, 2)), ((2,), F(2, 3)), ((3,), F(4, 5)), ((5,), F(6, 7))])
@example(sorted({(0, 0, 0): F(0), (1, 0, 0): F(1), (0, 1, 0): F(1), (1, 1, 0): F(2), (0, 0, 1): F(1), (1, 1, 1): F(3)}.items()))
@example(sorted({(0, 0, 0): F(0), (1, 0, 1): F(1), (0, 1, 2): F(1), (1, 1, 3): F(0), (2, 1, 4): F(1)}.items()))
@example(sorted({(0, 0, 0): F(0), (1, 2, 1): F(3), (2, 4, 2): F(3), (3, 6, 3): F(1, 2)}.items()))
# Three collinear lifted points, over (0,0,0), (0,0,1) and (0,0,2): the one
# case in these tests that reaches _extreme_rays' adjacency scan.
@example(sorted({(0, 0, 0): F(0), (0, 0, 1): F(1), (0, 0, 2): F(2), (1, 1, 2): F(0), (2, 0, 1): F(1), (2, 1, 0): F(2), (2, 2, 1): F(2)}.items()))
def test_hull_matches_the_facet_walk(points):
    # Same pieces in the same order, and the same cell for each piece, as
    # the walk over every (d+1)-subset of the lifted points; on bundles that
    # span R^2 or R^3, the domain has the rows of the walk over every
    # d-subset of the bundles.
    pieces, cells, domain = upper_concave_hull(points)
    assert (pieces, cells) == facet_walk.upper_concave_hull(points)
    bundles = [q for q, _ in points]
    if len(bundles[0]) > 1 and len(independent_directions(bundles)) == len(bundles[0]):
        assert domain.halfspaces == facet_walk.hull_rows(bundles)


def _content(v) -> Fraction:
    """The greatest positive rational w with every coordinate of v an
    integer multiple of w, by Fraction gcds."""
    return functools.reduce(
        lambda w, c: F(gcd(w.numerator * c.denominator, c.numerator * w.denominator),
                       w.denominator * c.denominator),
        v,
        F(0),
    )


@settings(max_examples=100, deadline=None)
@given(walk_points(), st.randoms(use_true_random=False))
def test_hull_domain_is_the_bundle_hull_in_any_input_order(points, rnd):
    # The domain read off the lift is convex_hull_halfspaces of the
    # bundles, row for row, on lines and planes too, and its normals are
    # primitive and pairwise distinct; shuffling the points changes neither
    # it, nor the pieces, nor the bundles on the hull.
    pieces, cells, domain = upper_concave_hull(points)
    bundles = [q for q, _ in points]
    assert domain == convex_hull_halfspaces(bundles)
    normals = [h.normal for h in domain.halfspaces]
    assert all(_content(n) == 1 for n in normals) and len(set(normals)) == len(normals)
    shuffled = points[:]
    rnd.shuffle(shuffled)
    again, cells_again, domain_again = upper_concave_hull(shuffled)
    assert (again, domain_again) == (pieces, domain)
    hull, hull_again = frozenset().union(*cells), frozenset().union(*cells_again)
    assert {shuffled[i][0] for i in hull_again} == {bundles[i] for i in hull}


@st.composite
def full_dimensional_point_sets(draw):
    """Rational point sets in R^2 or R^3 that span the space: points of a
    small grid scaled by one rational, so that facets hold many points, or
    coordinates over coprime denominators."""
    dim = draw(st.sampled_from([2, 3]))
    if draw(st.booleans()):
        den = draw(st.sampled_from([1, 2, 3]))
        coord = st.integers(0, 3).map(lambda k: F(k, den))
    else:
        coord = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 2, 3, 5]))
    points = draw(
        st.lists(st.tuples(*[coord] * dim), min_size=dim + 1, max_size=14, unique=True)
    )
    assume(len(independent_directions(points)) == dim)
    return dim, points


@settings(max_examples=150, deadline=None)
@given(full_dimensional_point_sets())
@example((2, [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]))
# The cube [0,2]^3 with the midpoint of an edge: the first three sorted
# points are collinear, so each facet's first affinely independent triple
# skips one of them.
@example((3, [(0, 0, 1), *itertools.product((0, 2), repeat=3)]))
def test_convex_hull_halfspaces_matches_the_facet_walk(case):
    # The rows, in order, are the walk's: facets by first appearance over
    # the sorted points, then deduplicated.
    dim, points = case
    assert convex_hull_halfspaces(points).halfspaces == facet_walk.hull_rows(points)


@settings(max_examples=100, deadline=None)
@given(walk_points(), st.randoms(use_true_random=False))
def test_extreme_rays_do_not_depend_on_row_order(points, rnd):
    # The cone of the lifted hull, rows shuffled: the same primitive rays.
    bundles = [q for q, _ in points]
    d = len(independent_directions(bundles))
    scale = lcm(*(u.denominator for _, u in points))
    rows = [(0,) * (len(bundles[0]) + 1) + (1,)] + [(*q, 1, -int(u * scale)) for q, u in points]
    assume(d == len(bundles[0]))
    shuffled = rows[:]
    rnd.shuffle(shuffled)
    rays = polyhedra._extreme_rays(rows, d + 2)
    assert _tight_rows(rows, rays) == _tight_rows(shuffled, polyhedra._extreme_rays(shuffled, d + 2))
    assert all(sum(a * x for a, x in zip(row, r)) >= 0 for r, _ in rays for row in rows)


def _tight_rows(rows, rays):
    """Each ray with the rows its zero set names."""
    return [(ray, sorted(row for k, row in enumerate(rows) if zeros >> k & 1)) for ray, zeros in rays]


@settings(max_examples=100, deadline=None)
@given(walk_points(), st.randoms(use_true_random=False))
def test_extreme_rays_return_the_rows_each_ray_is_tight_on(points, rnd):
    # The cone of the lifted points in coordinates y on their affine hull
    # (a point, a line, a plane or a full-dimensional set), rows shuffled:
    # each ray's zero set is exactly the rows it is tight on.
    bundles = [q for q, _ in points]
    dirs = independent_directions(bundles)
    scale = lcm(*(F(u).denominator for _, u in points))
    rows = [(0,) * (len(dirs) + 1) + (1,)] + [
        (*(int(dot(e, [a - b for a, b in zip(q, bundles[0])])) for e in dirs), 1, -int(u * scale))
        for q, u in points
    ]
    rnd.shuffle(rows)
    for ray, zeros in polyhedra._extreme_rays(rows, len(dirs) + 2):
        assert zeros == sum(1 << k for k, row in enumerate(rows) if dot(row, ray) == 0)


def test_extreme_rays_of_a_simplicial_and_a_square_cone():
    # Each ray comes with the bit set of the rows it is tight on.
    assert polyhedra._extreme_rays([(1, 0), (0, 1)], 2) == [((0, 1), 0b01), ((1, 0), 0b10)]
    # x + y >= 0 is redundant; the cone over the unit square has 4 rays.
    assert polyhedra._extreme_rays([(1, 1), (1, 0), (0, 1)], 2) == [
        ((0, 1), 0b010),
        ((1, 0), 0b100),
    ]
    square = [(1, 0, 0), (0, 1, 0), (-1, 0, 1), (0, -1, 1)]
    assert polyhedra._extreme_rays(square, 3) == [
        ((0, 0, 1), 0b0011),
        ((0, 1, 1), 0b1001),
        ((1, 0, 1), 0b0110),
        ((1, 1, 1), 0b1100),
    ]


@pytest.mark.parametrize(
    "rows, dim",
    [
        ([(1, 0, 0), (0, 1, 0)], 3),  # too few rows
        ([(1, 1), (-1, -1), (2, 2)], 2),  # a half-plane: contains a line
        ([], 1),
    ],
)
def test_extreme_rays_of_a_cone_that_is_not_pointed(rows, dim):
    with pytest.raises(DegenerateInput, match="extreme rays: .* not pointed"):
        polyhedra._extreme_rays(rows, dim)


def _rows(poly):
    return [(tuple(str(c) for c in h.normal), str(h.offset)) for h in poly.halfspaces]


def test_convex_hull_halfspaces_row_order():
    # Recorded from the pair/triple loops that the facet walk replaced: rows
    # in order of first appearance over the sorted points.
    square_ish = [(4, 0), (0, 0), (2, 0), (1, 1), (0, 3), (3, 3)]
    assert _rows(convex_hull_halfspaces(square_ish)) == [
        (("-1", "0"), "0"),
        (("0", "-1"), "0"),
        (("0", "1"), "3"),
        (("3", "1"), "12"),
    ]
    rational = [(F(1, 2), 0), (0, F(1, 3)), (F(3, 2), F(2, 3)), (1, F(5, 4))]
    assert _rows(convex_hull_halfspaces(rational)) == [
        (("-2", "-3"), "-1"),
        (("-11", "12"), "4"),
        (("2", "-3"), "1"),
        (("7", "6"), "29/2"),
    ]
    pyramid = [(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 0), (1, 1, 2)]
    assert _rows(convex_hull_halfspaces(pyramid)) == [
        (("0", "0", "-1"), "0"),
        (("-2", "0", "1"), "0"),
        (("0", "-2", "1"), "0"),
        (("0", "2", "1"), "4"),
        (("2", "0", "1"), "4"),
    ]
    assert _rows(convex_hull_halfspaces([(3,), (F(1, 2),), (2,)])) == [
        (("1",), "3"),
        (("-1",), "-1/2"),
    ]
    # A point and two segments in the plane: the equations of the affine
    # hull, each as a pair of opposite rows, then the two ends.
    assert _rows(convex_hull_halfspaces([(F(3, 2), 2)])) == [
        (("1", "0"), "3/2"),
        (("-1", "0"), "-3/2"),
        (("0", "1"), "2"),
        (("0", "-1"), "-2"),
    ]
    assert _rows(convex_hull_halfspaces([(4, 2), (0, 0), (2, 1), (6, 3)])) == [
        (("-1", "2"), "0"),
        (("1", "-2"), "0"),
        (("2", "1"), "15"),
        (("-2", "-1"), "0"),
    ]
    assert _rows(convex_hull_halfspaces([(0, 3), (0, F(1, 2)), (0, 1)])) == [
        (("-1", "0"), "0"),
        (("1", "0"), "0"),
        (("0", "1"), "3"),
        (("0", "-1"), "-1/2"),
    ]


@pytest.mark.parametrize(
    "points, rows, inside",
    [
        (
            [(0, 0, 0)],
            [
                (("1", "0", "0"), "0"),
                (("-1", "0", "0"), "0"),
                (("0", "1", "0"), "0"),
                (("0", "-1", "0"), "0"),
                (("0", "0", "1"), "0"),
                (("0", "0", "-1"), "0"),
            ],
            lambda x: x == (0, 0, 0),
        ),
        (
            [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)],
            [
                (("0", "0", "-1"), "0"),
                (("0", "0", "1"), "0"),
                (("0", "-1", "0"), "0"),
                (("-1", "0", "0"), "0"),
                (("1", "0", "0"), "1"),
                (("0", "1", "0"), "1"),
            ],
            lambda x: x[2] == 0 and 0 <= x[0] <= 1 and 0 <= x[1] <= 1,
        ),
        (
            [(0, 0, 0), (1, 1, 1)],
            [
                (("0", "1", "-1"), "0"),
                (("0", "-1", "1"), "0"),
                (("-1", "0", "1"), "0"),
                (("1", "0", "-1"), "0"),
                (("1", "1", "1"), "3"),
                (("-1", "-1", "-1"), "0"),
            ],
            lambda x: x[0] == x[1] == x[2] and 0 <= x[0] <= 1,
        ),
    ],
    ids=["point", "coplanar", "collinear"],
)
def test_convex_hull_halfspaces_of_lower_dimensional_sets_in_3d(points, rows, inside):
    # The equations of the affine hull come first, as pairs of opposite
    # rows, then the hull within it; together they cut out exactly the hull.
    hull = convex_hull_halfspaces(points)
    assert _rows(hull) == rows
    grid = [tuple(F(c, 2) for c in x) for x in itertools.product(range(-2, 5), repeat=3)]
    for x in grid:
        assert hull.contains(x) == inside(x), x


@pytest.mark.parametrize(
    "points, error, message",
    [
        ([(1, 2, 3, 4)], UnsupportedDimension, "up to 3 goods"),
        ([(0, 0, 0, 0), (1, 1, 1, 1)], UnsupportedDimension, "up to 3 goods"),
        ([()], UnsupportedDimension, "up to 3 goods"),
        ([(0, 0), (1, 0, 5), (0, 1)], DegenerateInput, "dimension mismatch: 3 vs 2"),
    ],
    ids=["4-d point", "4-d segment", "0-d point", "mixed lengths"],
)
def test_convex_hull_halfspaces_takes_its_dimension_from_the_points(points, error, message):
    with pytest.raises(error, match=message):
        convex_hull_halfspaces(points)


@pytest.mark.parametrize(
    "points, error, message",
    [
        ([((0, 0), F(0)), ((1, 0, 5), F(1)), ((0, 1), F(2))], DegenerateInput, "3 vs 2"),
        ([((0, 0), F(0)), ((1,), F(1))], DegenerateInput, "1 vs 2"),
        ([((0, 0, 0, 0), F(0)), ((1, 0, 0, 0), F(1))], UnsupportedDimension, "up to 3 goods"),
    ],
    ids=["a 3-d bundle among 2-d ones", "a 1-d bundle after a 2-d one", "4 goods"],
)
def test_upper_concave_hull_takes_its_dimension_from_the_bundles(points, error, message):
    with pytest.raises(error, match=message):
        upper_concave_hull(points)


# ---------------------------------------------------------------------------
# the Fraction simplex, the oracle of the market's price side
# (fraction_simplex), and the integer pivot
# ---------------------------------------------------------------------------


def test_simplex_box_lp():
    lp = LinearProgram(
        objective=(F(1), F(1)),
        sense="min",
        constraints=(hs((-1, 0), -25), hs((0, -1), -45)),
    )
    res = simplex_solve(lp)
    assert res.status == "optimal"
    assert res.value == 70 and res.point == (F(25), F(45))
    assert _optimum_is_unique(res, range(2)) is True


def test_simplex_two_consumer_epigraph_lp():
    # Variables (t1, t2, pA, pB): minimize t1 + t2 + pA + pB with t_i above
    # every surplus piece of its consumer; the exact minimum is 75 at
    # prices (25, 45).
    rows = []
    for i, pieces in enumerate(
        [
            [((0, 0), 0), ((1, 0), 30), ((0, 1), 50), ((1, 1), 60)],
            [((0, 0), 0), ((1, 0), 10), ((0, 1), 30), ((1, 1), 70)],
        ]
    ):
        for bundle, value in pieces:
            normal = [F(0)] * 4
            normal[i] = F(-1)
            normal[2] = F(-bundle[0])
            normal[3] = F(-bundle[1])
            rows.append(HalfSpace(normal=tuple(normal), offset=F(-value)))
    lp = LinearProgram(
        objective=(F(1), F(1), F(1), F(1)),
        sense="min",
        constraints=tuple(rows),
        nonneg=(False, False, True, True),
    )
    res = simplex_solve(lp)
    assert res.status == "optimal"
    assert res.value == 75
    assert res.point[2:] == (F(25), F(45))
    assert _optimum_is_unique(res, range(4)) is True


def test_simplex_max_direction():
    lp = LinearProgram(
        objective=(F(1),),
        sense="max",
        constraints=(hs((1,), 3),),
        nonneg=(True,),
    )
    res = simplex_solve(lp)
    assert res.status == "optimal" and res.value == 3 and res.point == (F(3),)


def test_simplex_unbounded():
    lp = LinearProgram(objective=(F(1),), sense="max", constraints=(hs((-1,), 0),))
    assert simplex_solve(lp).status == "unbounded"


def test_simplex_infeasible():
    lp = LinearProgram(
        objective=(F(1),),
        sense="min",
        constraints=(hs((1,), 0), hs((-1,), -1)),
    )
    assert simplex_solve(lp).status == "infeasible"


def test_simplex_reports_non_unique_optimum():
    # min x + y on the simplex x + y >= 1: the whole edge is optimal.
    lp = LinearProgram(
        objective=(F(1), F(1)),
        sense="min",
        constraints=(hs((-1, -1), -1),),
        nonneg=(True, True),
    )
    res = simplex_solve(lp)
    assert res.status == "optimal" and res.value == 1
    assert _optimum_is_unique(res, range(2)) is False


def _brute_force_lp(lp: LinearProgram):
    """Independent oracle: intersect all n-subsets of tight constraints,
    filter feasible, take the best vertex.  Assumes a bounded feasible
    region (callers include box constraints)."""
    n = len(lp.objective)
    rows = [(h.normal, h.offset) for h in lp.constraints]
    rows += [(row, b) for row, b in lp.equalities]
    for j, flag in enumerate(lp.nonneg or ()):
        if flag:
            rows.append((tuple(F(-1 if k == j else 0) for k in range(n)), F(0)))
    best = None
    for subset in itertools.combinations(range(len(rows)), n):
        mat = [list(rows[i][0]) for i in subset]
        rhs = [rows[i][1] for i in subset]
        x = solve_linear_system(mat, rhs)
        if x is None:
            continue
        if any(dot(h.normal, x) > h.offset for h in lp.constraints):
            continue
        if any(dot(row, x) != b for row, b in lp.equalities):
            continue
        if any(flag and x[j] < 0 for j, flag in enumerate(lp.nonneg or ())):
            continue
        value = dot(lp.objective, x)
        if best is None:
            best = value
        elif lp.sense == "min":
            best = min(best, value)
        else:
            best = max(best, value)
    return best


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda v: v != (0, 0)),
            st.integers(-5, 10),
        ),
        max_size=4,
    ),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda v: v != (0, 0)),
    st.sampled_from(["min", "max"]),
)
def test_simplex_matches_brute_force(raw_rows, objective, sense):
    box = [hs((1, 0), 6), hs((-1, 0), 6), hs((0, 1), 6), hs((0, -1), 6)]
    constraints = tuple(box + [hs(normal, offset) for normal, offset in raw_rows])
    lp = LinearProgram(
        objective=tuple(F(c) for c in objective),
        sense=sense,
        constraints=constraints,
    )
    res = simplex_solve(lp)
    expected = _brute_force_lp(lp)
    if expected is None:
        assert res.status == "infeasible"
    else:
        assert res.status == "optimal"
        assert res.value == expected


def _face_equality_probe(lp: LinearProgram, value, point, coords) -> bool:
    """Independent oracle: add the row objective . x == value and solve a
    fresh two-phase min and max LP per coordinate over that face."""
    nvars = len(lp.objective)
    face_eq = lp.equalities + ((lp.objective, value),)
    for j in coords:
        unit = tuple(F(1 if k == j else 0) for k in range(nvars))
        for sense in ("min", "max"):
            probe = LinearProgram(
                objective=unit,
                sense=sense,
                constraints=lp.constraints,
                equalities=face_eq,
                nonneg=lp.nonneg,
            )
            res = simplex_solve(probe)
            if res.status != "optimal" or res.value != point[j]:
                return False
    return True


@st.composite
def tied_lps(draw):
    """LPs in 1-3 free or nonnegative variables: rational rows, each followed
    by no copy, a scaled duplicate or a parallel row, up to two equality
    rows, and an objective that is either random or a nonnegative
    combination of row normals, which ties the optimum along their face."""
    n = draw(st.integers(1, 3))
    normals = st.tuples(*[st.integers(-3, 3)] * n).filter(any)
    offsets = st.fractions(min_value=-6, max_value=6, max_denominator=4)
    rows = []
    for a, c in draw(st.lists(st.tuples(normals, offsets), max_size=5)):
        rows.append(hs(a, c))
        kind = draw(st.sampled_from(("none", "duplicate", "parallel")))
        if kind == "duplicate":
            k = draw(st.integers(2, 3))
            rows.append(hs([k * x for x in a], k * c))
        elif kind == "parallel":
            rows.append(hs(a, c + draw(st.fractions(min_value=0, max_value=2, max_denominator=3))))
    equalities = tuple(
        (tuple(F(x) for x in a), c)
        for a, c in draw(st.lists(st.tuples(normals, offsets), max_size=2))
    )
    sense = draw(st.sampled_from(("min", "max")))
    if rows and draw(st.booleans()):
        weights = draw(st.lists(st.integers(0, 2), min_size=len(rows), max_size=len(rows)))
        sign = -1 if sense == "min" else 1
        objective = tuple(
            sign * sum((w * h.normal[j] for w, h in zip(weights, rows)), F(0)) for j in range(n)
        )
    else:
        objective = tuple(F(x) for x in draw(st.tuples(*[st.integers(-3, 3)] * n)))
    return LinearProgram(
        objective=objective,
        sense=sense,
        constraints=tuple(draw(st.permutations(rows))),
        equalities=equalities,
        nonneg=tuple(draw(st.lists(st.booleans(), min_size=n, max_size=n))),
    )


def _dense_pivot(tableau, row, col) -> None:
    """Independent oracle: rebuild every touched row in all of its columns."""
    inv = tableau[row][col]
    tableau[row] = [x / inv for x in tableau[row]]
    piv = tableau[row]
    for r, line in enumerate(tableau):
        if r != row and line[col] != 0:
            f = line[col]
            tableau[r] = [x - f * y for x, y in zip(line, piv)]


@st.composite
def sparse_tableaux(draw):
    """An integer tableau of 1-6 rows by 1-8 columns, most entries zero, and
    up to four pivot positions drawn one after another."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    entry = st.one_of(st.just(0), st.just(0), st.integers(-5, 5))
    tableau = [[draw(entry) for _ in range(n)] for _ in range(m)]
    pivots = draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, n - 1)), max_size=4))
    return tableau, pivots


@settings(max_examples=300, deadline=None)
@given(sparse_tableaux())
@example(([[-2, 1, 3], [4, 1, 0], [1, -1, 2]], [(0, 0), (1, 1), (2, 2)]))  # negative pivots
# The second pivot equals the running denominator, 3, with the other rows
# nonzero in its column: the rows are updated in place.
@example(([[-3, 1, -3], [3, 0, -1], [1, -2, -2]], [(0, 0), (1, 1)]))
def test_integer_pivot_matches_dense_pivot(case):
    # The integer tableau over its denominator is the Fraction tableau after
    # every pivot, whatever the pivot's sign; an inexact floor division
    # would show as a wrong entry.
    tableau, pivots = case
    dense = [[F(x) for x in row] for row in tableau]
    det = 1
    for row, col in pivots:
        if dense[row][col] == 0:
            continue
        det = _pivot(tableau, row, col, det)
        _dense_pivot(dense, row, col)
        assert det > 0
        assert [[F(x, det) for x in line] for line in tableau] == dense


@settings(max_examples=300, deadline=None)
@given(tied_lps())
def test_optimum_is_unique_matches_face_equality_probe(lp):
    res = simplex_solve(lp)
    if res.status != "optimal":
        return
    for coords in [range(len(lp.objective))] + [[j] for j in range(len(lp.objective))]:
        expected = _face_equality_probe(lp, res.value, res.point, coords)
        assert _optimum_is_unique(res, coords) == expected


@settings(max_examples=40, deadline=None)
@given(economies())
def test_epigraph_price_uniqueness_matches_face_equality_probe(e):
    lp = epigraph_lp(e)
    res = simplex_solve(lp)
    prices = range(len(e.consumers), len(lp.objective))
    assert _optimum_is_unique(res, prices) == _face_equality_probe(lp, res.value, res.point, prices)


def test_optimum_is_unique_on_unbounded_face():
    # min x over x >= 0 with y free: the optimal face {0} x R is a line.
    lp = LinearProgram(
        objective=(F(1), F(0)), sense="min", constraints=(hs((-1, 0), 0),), nonneg=(False, False)
    )
    res = simplex_solve(lp)
    assert res.status == "optimal" and res.value == 0
    assert _optimum_is_unique(res, [0]) is True
    assert _optimum_is_unique(res, [1]) is False


# ---------------------------------------------------------------------------
# polygon extraction by the Fraction half-plane walk, the oracle of every
# 2-D region (fraction_regions)
# ---------------------------------------------------------------------------


def test_polygon_of_zero_bundle_region():
    # Prices at which the empty bundle is demanded in the five-bundle
    # valuation; derived by solving the pairwise ties by hand.
    poly = HPolyhedron(
        2,
        (
            hs((-2, 0), -16),
            hs((-1, -1), -24),
            hs((0, -2), -28),
            hs((-2, -2), -34),
        ),
    )
    out, _ = halfplane_intersection(poly.halfspaces)
    assert out.kind == "unbounded"
    assert set(out.vertices) == {(F(8), F(16)), (F(10), F(14))}
    assert set(out.rays) == {(1, 0), (0, 1)}


def test_polygon_unit_square():
    poly = HPolyhedron(
        2, (hs((1, 0), 1), hs((-1, 0), 0), hs((0, 1), 1), hs((0, -1), 0))
    )
    out, _ = halfplane_intersection(poly.halfspaces)
    assert out.kind == "bounded" and not out.rays
    assert set(out.vertices) == {(F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1))}
    # counterclockwise: positive signed area
    area = sum(
        out.vertices[i][0] * out.vertices[(i + 1) % 4][1]
        - out.vertices[(i + 1) % 4][0] * out.vertices[i][1]
        for i in range(4)
    )
    assert area > 0


def test_polygon_empty():
    rows = (hs((1, 0), 0), hs((-1, 0), -1))
    assert halfplane_intersection(rows) is None


def test_polygon_full_plane():
    out, edges = halfplane_intersection(())
    assert out.kind == "plane" and not out.vertices and not out.rays and not edges


def test_polygon_halfplane_is_unpointed():
    out, _ = halfplane_intersection((hs((1, 0), 2),))
    assert out.kind == "unpointed"
    assert set(out.rays) == {(0, 1), (0, -1)}


def test_polygon_vertices_satisfy_constraints():
    poly = HPolyhedron(
        2,
        (hs((1, 1), 4), hs((-1, 2), 3), hs((0, -1), 0), hs((-1, -3), 1)),
    )
    out, _ = halfplane_intersection(poly.halfspaces)
    for vertex in out.vertices:
        tight = sum(1 for h in poly.halfspaces if dot(h.normal, vertex) == h.offset)
        assert tight >= 2
        assert all(dot(h.normal, vertex) <= h.offset for h in poly.halfspaces)


def test_polygon_of_segment_is_degenerate():
    # No interior, so no polygon; the set still has a point.
    poly = HPolyhedron(2, (hs((0, 1), 0), hs((0, -1), 0), hs((1, 0), 1), hs((-1, 0), 0)))
    assert halfplane_intersection(poly.halfspaces) is None
    assert poly.contains((F(1, 2), F(0)))


# ---------------------------------------------------------------------------
# the Fraction half-plane walk and the tightest row per normal
# ---------------------------------------------------------------------------


@st.composite
def rationals_over_coprime_denominators(draw, bound: int):
    """Rationals in [-bound, bound] whose denominator divides one of 1, 2,
    3, 5, 7, 11, 13 or 97."""
    d = draw(st.sampled_from((1, 2, 3, 5, 7, 11, 13, 97)))
    return F(draw(st.integers(-bound * d, bound * d)), d)


@st.composite
def halfplane_sets(draw):
    """Random rational half-planes, each followed by no copy, a scaled
    duplicate, a parallel row, an anti-parallel row or its own reverse.
    Offset denominators are coprime, up to 97, so the one lcm that scales
    the offsets to ints grows large."""
    offsets = rationals_over_coprime_denominators(6)
    shifts = rationals_over_coprime_denominators(2)
    base = draw(
        st.lists(
            st.tuples(st.integers(-9, 9), st.integers(-9, 9), offsets).filter(
                lambda r: r[:2] != (0, 0)
            ),
            max_size=6,
        )
    )
    rows = []
    for a, b, c in base:
        rows.append(hs((a, b), c))
        k = draw(st.integers(1, 3))
        kind = draw(st.sampled_from(("none", "duplicate", "parallel", "anti", "reverse")))
        if kind == "duplicate":
            rows.append(hs((k * a, k * b), k * c))
        elif kind == "parallel":
            rows.append(hs((a, b), c + draw(shifts)))
        elif kind == "anti":
            rows.append(hs((-a, -b), -c + draw(shifts)))
        elif kind == "reverse":
            rows.append(hs((-k * a, -k * b), -k * c))
    return draw(st.permutations(rows))


positive_rationals = st.builds(F, st.integers(1, 99), st.integers(1, 99))


@settings(max_examples=200, deadline=None)
@given(halfplane_sets(), st.data())
def test_halfplane_intersection_does_not_depend_on_row_scale(rows, data):
    # Each row times a positive rational is the same half-plane.
    factors = data.draw(st.lists(positive_rationals, min_size=len(rows), max_size=len(rows)))
    scaled = [
        HalfSpace(tuple(k * c for c in h.normal), k * h.offset) for h, k in zip(rows, factors)
    ]
    assert halfplane_intersection(scaled) == halfplane_intersection(rows)


def test_halfplane_intersection_without_interior():
    segment = [hs((0, 1), 0), hs((0, -2), 0), hs((1, 0), 1), hs((-1, 0), 0)]
    point = [hs((1, 0), 0), hs((-1, 0), 0), hs((0, 1), 0), hs((0, -1), 0)]
    empty = [hs((1, 0), 0), hs((-1, 0), -1)]
    for rows in (segment, point, empty):
        assert halfplane_intersection(rows) is None


def test_halfplane_intersection_strip():
    polygon, edges = halfplane_intersection([hs((1, 0), 1), hs((-2, 0), 0)])
    assert polygon.kind == "unpointed" and polygon.rays == ((0, 1), (0, -1))
    assert {edge.line for edge in edges} == {hs((1, 0), 1), hs((-1, 0), 0)}
    assert all(edge.start is None and edge.end is None for edge in edges)


def test_halfplane_intersection_half_plane_keeps_tightest_row():
    polygon, edges = halfplane_intersection([hs((2, 2), 6), hs((1, 1), 2)])
    assert polygon.kind == "unpointed" and polygon.rays == ((-1, 1), (1, -1))
    assert len(edges) == 1 and edges[0].line == hs((1, 1), 2) and edges[0].sources == (1,)


def test_collinear_middle_bundle_facet_has_weight_two():
    # (1,0) lies on the chord from (0,0) to (2,0), so it is never uniquely
    # demanded; in the region of (0,0) its row and that of (2,0) coincide.
    rows = [hs((-1, 0), -10), hs((-2, 0), -20), hs((0, -1), -10)]
    polygon, edges = halfplane_intersection(rows)
    assert polygon.kind == "unbounded" and polygon.vertices == ((F(10), F(10)),)
    assert polygon.rays == ((0, 1), (1, 0))
    assert [edge.sources for edge in edges] == [(0, 1), (2,)]

    s = price_complex(make_valuation({(0, 0): 0, (1, 0): 10, (2, 0): 20, (0, 1): 10}))
    assert (F(1), F(0)) not in s.region_labels.values()
    weights = {
        frozenset((s.region_labels[fd.from_region], s.region_labels[fd.to_region])): fd.weight
        for fd in s.facet_data.values()
    }
    assert weights[frozenset(((F(0), F(0)), (F(2), F(0))))] == 2


def test_affine_piece_evaluation():
    piece = AffinePiece(slope=(F(2), F(-1)), intercept=F(3))
    assert piece.evaluate((F(1), F(1))) == 4
