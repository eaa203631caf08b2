"""Recover potentials from labeled subdivisions and test conservativeness.

A normally labeled subdivision integrates up to a piecewise-affine
potential: constants propagate over a spanning tree of the region-adjacency
graph, and every non-tree adjacency is re-checked, which is exactly the
requirement that all closed-path integrals vanish.  Up to sign, the
induced correspondence is the potential's subdifferential, so its integral
along a path is the change of the potential between the path's ends
(Rockafellar, Convex Analysis, section 24): no segment is split.

``_label_slope`` alone turns a region's label into its piece's slope and
back, for the constants and the pieces, and sets the path integral's sign.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from operator import mul, sub

from .complexes import LabeledSubdivision, _int_direction
from .errors import (
    DegenerateInput,
    DomainError,
    InstanceTooLarge,
    NonConservative,
    clipped,
    quoted,
)
from .exactmath import IVec, Vec, format_rational, scaled_ints
from .polyhedra import AffinePiece
from .valuation import PolyhedralFunction


@dataclass(frozen=True)
class Polyline:
    """Piecewise-linear path; closed paths return to the first waypoint."""

    waypoints: tuple[Vec, ...]
    closed: bool = False

    def __post_init__(self):
        if len(self.waypoints) < 2:
            raise DegenerateInput("a polyline needs at least two waypoints")


@dataclass(frozen=True)
class CorrespondenceSample:
    """Finite sample (p_k, q_k) of a correspondence, q_k in Q(p_k)."""

    pairs: tuple[tuple[Vec, Vec], ...]

    def __post_init__(self):
        if not self.pairs:
            raise DegenerateInput("empty correspondence sample")
        dims = {(len(p), len(q)) for p, q in self.pairs}
        if len(dims) != 1:
            raise DegenerateInput("inconsistent sample dimensions")


# ---------------------------------------------------------------------------
# integration of subdivisions
# ---------------------------------------------------------------------------


def _label_slope(convention: str, v: Vec) -> Vec:
    """A region's label as its piece's slope, or a slope as the label: minus
    it under the decreasing-demand ``max`` convention, itself under ``min``.
    Its own inverse, and linear, so it maps label differences too, and on
    the one-coordinate change of a potential it gives the path integral's
    sign."""
    return tuple(-c for c in v) if convention == "max" else v


def _constant_step(
    s: LabeledSubdivision,
    labels: dict[int, IVec],
    from_region: int,
    to_region: int,
    point: IVec,
) -> int:
    # The two pieces agree at the facet point: c_to = c_from + (s_from - s_to).x,
    # here on the integer scales of the labels and of the point.
    diff = tuple(map(sub, labels[from_region], labels[to_region]))
    return sum(map(mul, point, _label_slope(s.convention, diff)))


def integrate_subdivision(
    s: LabeledSubdivision, anchor: tuple[int, Fraction]
) -> PolyhedralFunction:
    """Rebuild the potential whose projected subdifferential is ``s``.

    ``anchor`` fixes the intercept of one region's affine piece.  Raises
    :class:`NonConservative` with a witnessing region cycle when the labels
    admit no single potential.

    The constants are ints over one scale S: the lcm of the denominators of
    the facet points (each facet's first point, where its two pieces are
    made to agree), times the lcm of the labels' denominators, times the
    anchor's denominator.  Each region's intercept becomes a Fraction once.
    The perpendicularity test runs on the integer labels and an integer
    direction of each facet.
    """
    regions = s.regions()
    if not regions:
        raise DegenerateInput("subdivision has no regions to integrate")
    anchor_region, anchor_value = anchor
    if anchor_region not in s.region_labels:
        raise DegenerateInput(f"anchor region {anchor_region} is not a region")
    anchor_value = Fraction(anchor_value)

    facets = sorted(s.facet_data.items())
    label_scale, label_ints = scaled_ints(s.region_labels.values())
    labels = dict(zip(s.region_labels, label_ints))
    # Any exact point of the shared facet works; segment and ray endpoints
    # are 0-cells, a full line carries its canonical anchor.
    point_scale, point_ints = scaled_ints(s.cells[e].points[0] for e, _ in facets)
    # The anchor's denominator goes into the points, so a step is in 1/S.
    den = anchor_value.denominator
    points = {e: (x * den, y * den) for (e, _), (x, y) in zip(facets, point_ints)}
    scale = point_scale * label_scale * den

    adjacency: dict[int, list[tuple[int, int]]] = {r: [] for r in regions}
    for edge_id, fd in facets:
        adjacency[fd.from_region].append((fd.to_region, edge_id))
        adjacency[fd.to_region].append((fd.from_region, edge_id))
        # A label difference that is not perpendicular to its facet cannot
        # come from a potential: the two pieces would disagree along it.
        diff = map(sub, labels[fd.from_region], labels[fd.to_region])
        if sum(map(mul, diff, _int_direction(s.cells[edge_id]))) != 0:
            raise NonConservative(
                f"label difference across edge {quoted(edge_id)} is not normal to it",
                cycle=(fd.from_region, fd.to_region, fd.from_region),
            )

    constants: dict[int, int] = {
        anchor_region: anchor_value.numerator * point_scale * label_scale
    }
    parent: dict[int, int] = {anchor_region: anchor_region}
    tree_edges: set[int] = set()
    queue = deque([anchor_region])
    while queue:
        current = queue.popleft()
        for neighbor, edge_id in sorted(adjacency[current]):
            if neighbor in constants:
                continue
            constants[neighbor] = constants[current] + _constant_step(
                s, labels, current, neighbor, points[edge_id]
            )
            parent[neighbor] = current
            tree_edges.add(edge_id)
            queue.append(neighbor)

    if len(constants) != len(regions):
        missing = [r for r in regions if r not in constants]
        raise DegenerateInput(
            f"region adjacency graph is disconnected (unreached: {quoted(missing)})"
        )

    for edge_id, fd in facets:
        if edge_id in tree_edges:
            continue
        expected = constants[fd.from_region] + _constant_step(
            s, labels, fd.from_region, fd.to_region, points[edge_id]
        )
        if constants[fd.to_region] != expected:
            cycle = _tree_cycle(parent, fd.from_region, fd.to_region)
            raise NonConservative(
                f"inconsistent constant across edge {quoted(edge_id)}: "
                f"{clipped(format_rational(Fraction(constants[fd.to_region], scale)))} != "
                f"{clipped(format_rational(Fraction(expected, scale)))}",
                cycle=cycle,
            )

    slopes = {r: _label_slope(s.convention, s.region_labels[r]) for r in regions}
    pieces = {
        AffinePiece(slope=slopes[r], intercept=Fraction(constants[r], scale)) for r in regions
    }
    ordered = tuple(sorted(pieces, key=lambda p: (p.slope, p.intercept)))
    return PolyhedralFunction(s.convention, ordered, s.domain)


def _tree_cycle(parent: dict[int, int], a: int, b: int) -> tuple[int, ...]:
    def ancestry(x: int) -> list[int]:
        chain = [x]
        while parent[x] != x:
            x = parent[x]
            chain.append(x)
        return chain

    up_a = ancestry(a)
    up_b = ancestry(b)
    set_b = set(up_b)
    meet_idx = next(i for i, node in enumerate(up_a) if node in set_b)
    meet = up_a[meet_idx]
    down_b = up_b[: up_b.index(meet) + 1]
    return tuple(up_a[: meet_idx + 1] + list(reversed(down_b[:-1])) + [a])


# ---------------------------------------------------------------------------
# path integrals
# ---------------------------------------------------------------------------


def path_integral(f: PolyhedralFunction, path: Polyline) -> Fraction:
    """Exact integral of the induced correspondence along a polyline.

    For a convex max-of-affine potential the correspondence is the demand
    selection (minus the active slope); for a concave min-of-affine
    potential it is the active slope itself.  Up to that sign, either is
    the subdifferential of f, so the integral is the change of f from the
    first waypoint to the last, signed by ``_label_slope``: zero on a
    closed path.  Every waypoint is checked for length and domain.
    """
    points = path.waypoints
    n = len(f.pieces[0].slope)
    for p in points:
        if len(p) != n:
            raise DegenerateInput(f"dimension mismatch: {len(p)} vs {n}")
        if not f.domain.contains(p):
            raise DomainError(f"waypoint {p} is outside the potential's domain")
    last = points[0] if path.closed else points[-1]
    (change,) = _label_slope(f.convention, (f.evaluate(last) - f.evaluate(points[0]),))
    return change


# ---------------------------------------------------------------------------
# cyclic monotonicity
# ---------------------------------------------------------------------------


MAX_SAMPLE_PAIRS = 256


def check_cyclic_monotonicity(
    data: CorrespondenceSample, direction: str = "demand"
) -> tuple[bool, tuple[int, ...] | None]:
    """Test the cycle inequalities of a sampled monotone correspondence.

    With the decreasing (demand) convention, every cycle must satisfy
    sum_k q_k . (p_{k+1} - p_k) >= 0; a violating cycle is therefore a
    negative-total cycle of the complete digraph with arc weight
    w(i -> j) = q_i . (p_j - p_i).  The inverse direction swaps the roles
    of prices and bundles.  Detection is exact Bellman-Ford; the witness is
    a violating cycle as a tuple of sample indices.

    The weights form one k x k integer matrix, built before the relaxation:
    the weighted vectors (q in the demand direction) are scaled to integers
    by the lcm of their denominators, the others by theirs, and
    W[i][j] = a_i . b_j - a_i . b_i.  Scaling multiplies every weight by the
    same positive constant, so every comparison, the relaxation order, the
    verdict and the witness are those of the rational weights.  Samples of
    more than MAX_SAMPLE_PAIRS pairs raise :class:`InstanceTooLarge` before
    the matrix is built.
    """
    if direction not in ("demand", "inverse"):
        raise DegenerateInput(f"unknown direction {direction!r}")
    pairs = data.pairs
    k = len(pairs)
    if k > MAX_SAMPLE_PAIRS:
        raise InstanceTooLarge(
            f"cyclic monotonicity: {k} pairs exceed the cap of {MAX_SAMPLE_PAIRS}"
        )
    if k == 1:
        return True, None

    prices = [p for p, _ in pairs]
    bundles = [q for _, q in pairs]
    a_vecs, b_vecs = (bundles, prices) if direction == "demand" else (prices, bundles)
    if len(a_vecs[0]) != len(b_vecs[0]):
        raise DegenerateInput(
            f"dimension mismatch: {len(a_vecs[0])} vs {len(b_vecs[0])}"
        )
    _, a = scaled_ints(a_vecs)
    _, b = scaled_ints(b_vecs)
    # Row i is -a_i . b_i plus a_i[t] times column t of b, summed over the
    # coordinates t: one pass of k products per coordinate.
    columns = list(zip(*b))
    weights: list[list[int]] = []
    for ai, bi in zip(a, b):
        row = [-sum(map(mul, ai, bi))] * k
        for x, column in zip(ai, columns):
            row = [w + x * c for w, c in zip(row, column)]
        weights.append(row)

    dist = [0] * k
    pred: list[int | None] = [None] * k
    # Row i can relax an arc only if dist[i] fell since its last relaxation:
    # the weights are fixed and no dist[j] ever rises.
    pending = [True] * k
    for round_ in range(k):
        changed = False
        for i in range(k):
            if not pending[i]:
                continue
            pending[i] = False
            # j == i is skipped, so dist[i] is fixed while its row relaxes.
            dist_i = dist[i]
            row = weights[i]
            for j in range(k):
                if i == j:
                    continue
                candidate = dist_i + row[j]
                if candidate < dist[j]:
                    dist[j] = candidate
                    pred[j] = i
                    pending[j] = True
                    changed = True
                    if round_ == k - 1:
                        witness_node = j
        if not changed:
            return True, None

    # Round k - 1 relaxed an arc, which set witness_node.  Walk predecessors
    # k steps to make sure we are on the cycle itself.
    node = witness_node
    for _ in range(k):
        node = pred[node]  # type: ignore[assignment]
    cycle = [node]
    cursor = pred[node]
    while cursor != node:
        cycle.append(cursor)  # type: ignore[arg-type]
        cursor = pred[cursor]  # type: ignore[index]
    cycle.reverse()
    start = cycle.index(min(cycle))
    cycle = cycle[start:] + cycle[:start]
    return False, tuple(cycle)
