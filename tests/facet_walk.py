"""The integer facet walk, kept as the oracle of the double-description
kernel in ``tropical_demand.polyhedra``.

Every m-subset of lattice points in R^m spans a candidate hyperplane whose
normal is the vector of integer cofactors of its difference vectors, kept
when all points lie on one side.  ``upper_concave_hull`` and ``hull_rows``
are the walk-built forms of the kernel's two readers, with the same
sorting.  The walk scales every value by one lcm of all their
denominators, where the kernel writes each lift row over its own value's
denominator.  ``hull_rows`` deduplicates in ``Fraction``s
(``fraction_regions._tightest_rows``); the kernel makes each row
primitive and keeps them all.  ``independent_directions`` gives the
directions that span a point set's affine hull, as Fractions.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm
from typing import Sequence

from tropical_demand.exactmath import IVec, Vec, ZERO, dot, first_independent, scaled_ints, vsub
from tropical_demand.polyhedra import AffinePiece, HalfSpace

from fraction_regions import _tightest_rows


def independent_directions(points: Sequence[Sequence[Fraction | int]]) -> list[Vec]:
    """A maximal set of linearly independent difference vectors ``p_i - p_0``:
    the ones ``first_independent`` keeps, on the differences scaled to ints
    by ``scaled_ints``.

    The length of the result is the dimension of the affine hull of the
    points.
    """
    if not points:
        return []
    base = [Fraction(c) for c in points[0]]
    diffs = [tuple(Fraction(c) - b for c, b in zip(p, base)) for p in points[1:]]
    return [diffs[i] for i in first_independent(scaled_ints(diffs)[1], len(base))]


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
) -> tuple[list[AffinePiece], list[frozenset[int]]]:
    """Pieces and cells of the lifted points, from the walk over every
    (d+1)-subset of the points (y, L*u): each upper facet
    a.y + c*L*u <= b with c > 0 is the piece u = (b - a.y) / (c*L), and its
    cell the indices of the points at which it equals the value."""
    bundles = [q for q, _ in points]
    values = [Fraction(v) for _, v in points]
    n = len(bundles[0])
    if len(bundles) == 1:
        return [AffinePiece(tuple(ZERO for _ in range(n)), values[0])], [frozenset({0})]
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
    cells = [
        frozenset(i for i, (q, u) in enumerate(zip(bundles, values)) if p.evaluate(q) == u)
        for p in pieces
    ]
    return pieces, cells


def hull_rows(points: Sequence[Sequence[Fraction | int]]) -> tuple[HalfSpace, ...]:
    """The facets of a full-dimensional point set, in order of first
    appearance in the walk over the sorted points, deduplicated in
    ``Fraction``s: per primitive normal, the least offset."""
    uniq = sorted(set(tuple(Fraction(c) for c in p) for p in points))
    scale = lcm(*(c.denominator for p in uniq for c in p))
    hs = [
        HalfSpace(tuple(Fraction(a) for a in normal), Fraction(offset, scale))
        for normal, offset in _facets([tuple(int(c * scale) for c in p) for p in uniq])
    ]
    return tuple(
        HalfSpace(tuple(Fraction(a) for a in n), c) for n, (c, _) in _tightest_rows(hs).items()
    )
