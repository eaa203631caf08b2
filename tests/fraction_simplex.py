"""The Fraction two-phase Bland simplex, kept as the oracle of the integer
kernel in ``tropical_demand.polyhedra``.

Every tableau entry is a ``Fraction``, and a pivot divides the pivot row by
its pivot and subtracts multiples of it from the other rows.  The integer
kernel must take the same pivots in the same order: the differential tests
record both sequences by wrapping each module's ``_pivot``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from tropical_demand.exactmath import ZERO, dot
from tropical_demand.polyhedra import LinearProgram, LPResult


def _pivot(tableau: list[list[Fraction]], row: int, col: int) -> None:
    """Pivot in place, touching only the columns where the pivot row is
    nonzero: every other entry would change by f * 0."""
    piv = tableau[row]
    inv = piv[col]
    support = [j for j, x in enumerate(piv) if x]
    for j in support:
        piv[j] /= inv
    for line in tableau:
        f = line[col]
        if f and line is not piv:
            for j in support:
                line[j] -= f * piv[j]


def _bland(tableau: list[list[Fraction]], basis: list[int], ncols: int) -> str:
    """Bland-rule iterations on a tableau whose last row holds reduced costs
    (minimization). Returns "optimal" or "unbounded"."""
    m = len(basis)
    cost = tableau[m]
    while True:
        enter = next((j for j in range(ncols) if cost[j] < 0), None)
        if enter is None:
            return "optimal"
        leave, best = None, None
        for r in range(m):
            a = tableau[r][enter]
            if a > 0:
                ratio = tableau[r][ncols] / a
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leave]):
                    best, leave = ratio, r
        if leave is None:
            return "unbounded"
        _pivot(tableau, leave, enter)
        basis[leave] = enter
        cost = tableau[m]


def _price_out(
    cost: list[Fraction], rows: list[list[Fraction]], basis: list[int]
) -> list[Fraction]:
    """Eliminate the basic columns from a cost row that ends in 0."""
    for line, var in zip(rows, basis):
        f = cost[var]
        if f != 0:
            cost = [c - f * a for c, a in zip(cost, line)]
    return cost


def simplex_solve(lp: LinearProgram) -> LPResult:
    """Exact two-phase simplex; an optimal result carries its final tableau."""
    nvars = len(lp.objective)
    nonneg = lp.nonneg if lp.nonneg else tuple(False for _ in range(nvars))

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

    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    kinds: list[str] = []
    for normal, offset, kind in [(h.normal, h.offset, "ineq") for h in lp.constraints] + [
        (vec, b, "eq") for vec, b in lp.equalities
    ]:
        row = [ZERO] * nstruct
        for j, coeff in enumerate(normal):
            for col, sign in col_of[j]:
                row[col] += sign * coeff
        rows.append(row)
        rhs.append(Fraction(offset))
        kinds.append(kind)

    m = len(rows)
    nslack = kinds.count("ineq")
    ncols = nstruct + nslack

    matrix: list[list[Fraction]] = []
    slack_seen = 0
    for i in range(m):
        row = rows[i] + [ZERO] * nslack
        if kinds[i] == "ineq":
            row[nstruct + slack_seen] = Fraction(1)
            slack_seen += 1
        if rhs[i] < 0:
            row = [-x for x in row]
            b = -rhs[i]
        else:
            b = rhs[i]
        matrix.append(row + [b])

    total = ncols + m
    tableau = [matrix[i][:ncols] + [ZERO] * m + [matrix[i][ncols]] for i in range(m)]
    for i in range(m):
        tableau[i][ncols + i] = Fraction(1)
    basis = [ncols + i for i in range(m)]
    tableau.append(_price_out([ZERO] * ncols + [Fraction(1)] * m + [ZERO], tableau, basis))
    _bland(tableau, basis, total)
    if -tableau[m][total] != 0:
        return LPResult(status="infeasible")

    keep = []
    for r in range(m):
        if basis[r] >= ncols:
            col = next((j for j in range(ncols) if tableau[r][j] != 0), None)
            if col is None:
                continue
            _pivot(tableau, r, col)
            basis[r] = col
        keep.append(r)
    rows2 = [tableau[r][:ncols] + [tableau[r][total]] for r in keep]
    basis2 = [basis[r] for r in keep]

    objective = [ZERO] * ncols
    sign = Fraction(1) if lp.sense == "min" else Fraction(-1)
    for j in range(nvars):
        for col, s in col_of[j]:
            objective[col] += sign * s * lp.objective[j]
    tableau2 = rows2 + [_price_out(objective + [ZERO], rows2, basis2)]
    status = _bland(tableau2, basis2, ncols)
    if status == "unbounded":
        return LPResult(status="unbounded")

    values = [ZERO] * ncols
    for r, var in enumerate(basis2):
        values[var] = tableau2[r][ncols]
    point = tuple(sum((s * values[col] for col, s in col_of[j]), ZERO) for j in range(nvars))
    return LPResult(
        status="optimal",
        value=dot(lp.objective, point),
        point=point,
        _tableau=(tableau2, basis2, col_of),
    )


def _optimum_is_unique(res: LPResult, coords: Iterable[int]) -> bool:
    """Whether ``res.point`` is the only optimum in the coordinates
    ``coords``: each one is minimized and maximized over the optimal face by
    Bland pivots warm-started from the optimal basis."""
    tableau, basis, col_of = res._tableau
    cost = tableau[len(basis)]
    keep = [k for k in range(len(cost) - 1) if cost[k] == 0]
    index = {k: i for i, k in enumerate(keep)}
    face = [[row[k] for k in keep] + [row[-1]] for row in tableau[: len(basis)]]
    basis = [index[k] for k in basis]
    for j in coords:
        for sign in (1, -1):
            probe = [ZERO] * (len(keep) + 1)
            for col, s in col_of[j]:
                if col in index:
                    probe[index[col]] = sign * s
            face.append(_price_out(probe, face, basis))
            status = _bland(face, basis, len(keep))
            least = -face.pop()[-1]
            if status != "optimal" or sign * least != res.point[j]:
                return False
    return True
