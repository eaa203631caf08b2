import contextlib
import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tropical_demand import (
    AffinePiece,
    DegenerateInput,
    HPolyhedron,
    HalfSpace,
    LinearProgram,
    convex_hull_halfspaces,
    price_complex,
    reduce,
    simplex_solve,
    upper_concave_hull,
)
from tropical_demand import polyhedra
from tropical_demand.equilibrium import _epigraph_lp
from tropical_demand.exactmath import dot, independent_directions
from tropical_demand.polyhedra import (
    _optimum_is_unique,
    _pivot,
    dedupe_halfspaces,
    feasible_point,
    halfplane_intersection,
    interior_point,
)

import fraction_simplex
from conftest import economies, make_valuation

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
    pieces, hull = upper_concave_hull(points)
    got = {(p.slope, p.intercept) for p in pieces}
    assert got == {
        ((F(1), F(9)), F(14)),
        ((F(3), F(7)), F(14)),
        ((F(8), F(16)), F(0)),
        ((F(10), F(14)), F(0)),
    }
    assert hull == {0, 1, 2, 3, 4}


def test_hull_single_point():
    pieces, hull = upper_concave_hull([((0, 0), F(0))])
    assert len(pieces) == 1
    assert pieces[0].slope == (F(0), F(0)) and pieces[0].intercept == 0
    assert hull == {0}


def test_hull_one_dimensional_chord():
    # Independent oracle: the middle point lies strictly below the chord
    # through the outer points, (0 + 4) / 2 = 2 > 1.
    points = [((0,), F(0)), ((1,), F(1)), ((2,), F(4))]
    chord_mid = (points[0][1] + points[2][1]) / 2
    assert points[1][1] < chord_mid
    pieces, hull = upper_concave_hull(points)
    assert hull == {0, 2}
    assert min(p.evaluate((F(1),)) for p in pieces) == 2


def test_hull_duplicate_bundles_rejected():
    with pytest.raises(DegenerateInput):
        upper_concave_hull([((0, 0), F(0)), ((0, 0), F(1))])


def test_hull_collinear_bundles_in_two_goods():
    points = [((0, 0), F(0)), ((1, 1), F(5)), ((2, 2), F(6))]
    pieces, hull = upper_concave_hull(points)
    assert hull == {0, 1, 2}
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
    pieces, hull = upper_concave_hull(points)
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
    pieces, _ = upper_concave_hull(points)
    assert [(p.slope, p.intercept) for p in pieces] == sorted(expected)


def _rows(poly):
    return [(tuple(str(c) for c in h.normal), str(h.offset)) for h in poly.halfspaces]


def test_convex_hull_halfspaces_row_order():
    # Recorded from the pair/triple loops that the facet walk replaced: rows
    # in order of first appearance over the sorted points.
    square_ish = [(4, 0), (0, 0), (2, 0), (1, 1), (0, 3), (3, 3)]
    assert _rows(convex_hull_halfspaces(square_ish, 2)) == [
        (("-1", "0"), "0"),
        (("0", "-1"), "0"),
        (("0", "1"), "3"),
        (("3", "1"), "12"),
    ]
    rational = [(F(1, 2), 0), (0, F(1, 3)), (F(3, 2), F(2, 3)), (1, F(5, 4))]
    assert _rows(convex_hull_halfspaces(rational, 2)) == [
        (("-2", "-3"), "-1"),
        (("-11", "12"), "4"),
        (("2", "-3"), "1"),
        (("7", "6"), "29/2"),
    ]
    pyramid = [(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 0), (1, 1, 2)]
    assert _rows(convex_hull_halfspaces(pyramid, 3)) == [
        (("0", "0", "-1"), "0"),
        (("-2", "0", "1"), "0"),
        (("0", "-2", "1"), "0"),
        (("0", "2", "1"), "4"),
        (("2", "0", "1"), "4"),
    ]
    assert _rows(convex_hull_halfspaces([(3,), (F(1, 2),), (2,)], 1)) == [
        (("1",), "3"),
        (("-1",), "-1/2"),
    ]
    # A point and two segments in the plane: the equations of the affine
    # hull, each as a pair of opposite rows, then the two ends.
    assert _rows(convex_hull_halfspaces([(F(3, 2), 2)], 2)) == [
        (("1", "0"), "3/2"),
        (("-1", "0"), "-3/2"),
        (("0", "1"), "2"),
        (("0", "-1"), "-2"),
    ]
    assert _rows(convex_hull_halfspaces([(4, 2), (0, 0), (2, 1), (6, 3)], 2)) == [
        (("-1", "2"), "0"),
        (("1", "-2"), "0"),
        (("2", "1"), "15"),
        (("-2", "-1"), "0"),
    ]
    assert _rows(convex_hull_halfspaces([(0, 3), (0, F(1, 2)), (0, 1)], 2)) == [
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
    hull = convex_hull_halfspaces(points, 3)
    assert _rows(hull) == rows
    grid = [tuple(F(c, 2) for c in x) for x in itertools.product(range(-2, 5), repeat=3)]
    for x in grid:
        assert hull.contains(x) == inside(x), x


# ---------------------------------------------------------------------------
# simplex
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
    lp = _epigraph_lp(e)
    res = simplex_solve(lp)
    prices = range(len(e.consumers), len(lp.objective))
    assert _optimum_is_unique(res, prices) == _face_equality_probe(lp, res.value, res.point, prices)


@contextlib.contextmanager
def recorded_pivots(module):
    """Record the (row, col) of every pivot the module's simplex makes."""
    seen = []
    original = module._pivot

    def recording(tableau, row, col, *det):
        seen.append((row, col))
        return original(tableau, row, col, *det)

    module._pivot = recording
    try:
        yield seen
    finally:
        module._pivot = original


def _solve_and_probe(module, lp: LinearProgram):
    """Status, value, point and uniqueness verdicts (all coordinates, then
    each alone) of one kernel, with every pivot it took in order."""
    nvars = len(lp.objective)
    with recorded_pivots(module) as pivots:
        res = module.simplex_solve(lp)
        verdicts = []
        if res.status == "optimal":
            for coords in [range(nvars)] + [[j] for j in range(nvars)]:
                verdicts.append(module._optimum_is_unique(res, coords))
    return (res.status, res.value, res.point, verdicts), pivots


def assert_kernels_agree(lp: LinearProgram) -> list[tuple[int, int]]:
    got, got_pivots = _solve_and_probe(polyhedra, lp)
    want, want_pivots = _solve_and_probe(fraction_simplex, lp)
    assert got_pivots == want_pivots
    assert got == want
    return got_pivots


@st.composite
def rational_lps(draw):
    """LPs in 1-4 free or nonnegative variables with rational coefficients
    over mixed denominators.  Each row is followed by no copy, a scaled
    duplicate (a ratio-test tie), a parallel row, or an opposite row that
    may leave an empty strip; up to two equality rows, some of them copies
    of an inequality row; a random or tied objective, often unbounded when
    the rows are few."""
    n = draw(st.integers(1, 4))
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    normals = st.tuples(*[coeff] * n).filter(any)
    offsets = st.fractions(min_value=-6, max_value=6, max_denominator=5)
    rows = []
    for a, c in draw(st.lists(st.tuples(normals, offsets), max_size=6)):
        rows.append(HalfSpace(a, c))
        kind = draw(st.sampled_from(("none", "duplicate", "parallel", "opposite")))
        shift = draw(st.fractions(min_value=-1, max_value=2, max_denominator=3))
        if kind == "duplicate":
            k = draw(st.sampled_from((2, 3, F(1, 2))))
            rows.append(HalfSpace(tuple(k * x for x in a), k * c))
        elif kind == "parallel":
            rows.append(HalfSpace(a, c + shift))
        elif kind == "opposite":
            rows.append(HalfSpace(tuple(-x for x in a), -c + shift))
    equalities = [(a, c) for a, c in draw(st.lists(st.tuples(normals, offsets), max_size=2))]
    if rows and draw(st.booleans()):
        h = draw(st.sampled_from(rows))
        equalities.append((h.normal, h.offset))
    sense = draw(st.sampled_from(("min", "max")))
    if rows and draw(st.booleans()):
        weights = draw(st.lists(st.integers(0, 2), min_size=len(rows), max_size=len(rows)))
        sign = -1 if sense == "min" else 1
        objective = tuple(
            sign * sum((w * h.normal[j] for w, h in zip(weights, rows)), F(0)) for j in range(n)
        )
    else:
        objective = draw(st.tuples(*[coeff] * n))
    return LinearProgram(
        objective=objective,
        sense=sense,
        constraints=tuple(draw(st.permutations(rows))),
        equalities=tuple(draw(st.permutations(equalities))),
        nonneg=tuple(draw(st.lists(st.booleans(), min_size=n, max_size=n))),
    )


@settings(max_examples=250, deadline=None)
@given(st.one_of(rational_lps(), tied_lps()))
def test_integer_kernel_matches_fraction_kernel(lp):
    assert_kernels_agree(lp)


@settings(max_examples=60, deadline=None)
@given(economies(max_consumers=4, max_bundles=6))
def test_integer_kernel_matches_fraction_kernel_on_epigraph_lps(e):
    assert assert_kernels_agree(_epigraph_lp(e))


def test_kernels_agree_on_each_status_and_a_negative_drive_out_pivot():
    # x + y == 1 with x, y >= 0 and x - y == -1: phase 1 leaves an
    # artificial basic at zero on the redundant copy, and the drive-out
    # pivot on the negated row is negative.
    optimal = LinearProgram(
        objective=(F(1), F(2)),
        sense="min",
        constraints=(),
        equalities=(((F(1), F(1)), F(1)), ((F(-1), F(-1)), F(-1)), ((F(1), F(-1)), F(-1))),
        nonneg=(True, True),
    )
    unbounded = LinearProgram(objective=(F(1, 2),), sense="max", constraints=(hs((-1,), 0),))
    infeasible = LinearProgram(
        objective=(F(1),), sense="min", constraints=(hs((F(1, 3),), 0), hs((F(-1, 2),), -1))
    )
    for lp, status in ((optimal, "optimal"), (unbounded, "unbounded"), (infeasible, "infeasible")):
        assert_kernels_agree(lp)
        assert simplex_solve(lp).status == status


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
# polygon extraction by half-plane intersection
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
    assert feasible_point(HPolyhedron(2, rows)) is None


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
    point = feasible_point(poly)
    assert point is not None and poly.contains(point)


# ---------------------------------------------------------------------------
# half-plane intersection, checked against the simplex route
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


@settings(max_examples=300, deadline=None)
@given(halfplane_sets())
def test_halfplane_intersection_agrees_with_lp(rows):
    region = halfplane_intersection(rows)
    inner = interior_point(HPolyhedron(2, tuple(rows)))
    assert (region is None) == (inner is None)
    if region is None:
        return
    polygon, edges = region
    for vertex in polygon.vertices:
        assert all(h.contains(vertex) for h in rows)
        assert sum(1 for h in rows if h.tight_at(vertex)) >= 2
    for ray in polygon.rays:
        assert all(dot(h.normal, ray) <= 0 for h in rows)
    for edge in edges:
        assert dot(edge.line.normal, inner) < edge.line.offset
        assert all(dedupe_halfspaces([rows[i]]) == (edge.line,) for i in edge.sources)
        for end in (edge.start, edge.end):
            assert end is None or edge.line.tight_at(end)


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


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------


def test_reduce_drops_dominated_row():
    poly = HPolyhedron(1, (hs((1,), 1), hs((1,), 2)))
    out = reduce(poly)
    assert out.halfspaces == (hs((1,), 1),)


def test_reduce_drops_constraint_touching_in_one_point():
    # x + y <= 2 only touches the box at its corner; removing it does not
    # enlarge the set, so an irredundant representation drops it.
    poly = HPolyhedron(2, (hs((1, 1), 2), hs((1, 0), 1), hs((0, 1), 1)))
    out = reduce(poly)
    assert set(out.halfspaces) == {hs((1, 0), 1), hs((0, 1), 1)}


def test_reduce_keeps_supporting_rows():
    poly = HPolyhedron(2, (hs((1, 1), 2), hs((1, 0), F(3, 2)), hs((0, 1), F(3, 2))))
    out = reduce(poly)
    # Each constraint cuts a corner off the other two: all are irredundant.
    assert set(out.halfspaces) == set(poly.halfspaces)


def test_reduce_empty_input_is_whole_space():
    poly = HPolyhedron(2, ())
    assert reduce(poly).halfspaces == ()


def test_affine_piece_evaluation():
    piece = AffinePiece(slope=(F(2), F(-1)), intercept=F(3))
    assert piece.evaluate((F(1), F(1))) == 4
