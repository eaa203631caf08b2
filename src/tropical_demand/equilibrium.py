"""Quasi-linear exchange economies and the equilibrium duality test.

The minimum of aggregate indirect utility over nonnegative prices always
weakly exceeds the maximum of aggregate utility over feasible allocations;
a Walrasian equilibrium exists exactly when the two coincide.  Both sides
are computed exactly: the price side by its dual, the configuration LP,
which also gives the lexicographically least optimal price, and the
allocation side by a max-plus dynamic program over the leftover
endowments, which also lists every maximizing allocation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Sequence

from .errors import DegenerateInput, DomainError, InstanceTooLarge, ValidationError
from .exactmath import IVec, Vec, ZERO, dot, is_int, scaled_ints
from .polyhedra import _pivot
from .valuation import DemandSet, Valuation, demand

MAX_ALLOCATIONS = 10**6


@dataclass(frozen=True)
class Economy:
    """Consumers with finite valuations plus a social endowment.

    With quasi-linear utility, how the endowment is split among owners moves
    only transfers, never the verdict, so the economy holds no split.
    """

    goods: int
    consumers: tuple[Valuation, ...]
    endowment: IVec

    def __post_init__(self):
        if not is_int(self.goods):
            raise ValidationError("the number of goods must be an integer")
        if not self.consumers:
            raise ValidationError("economy needs at least one consumer")
        for v in self.consumers:
            if v.goods != self.goods:
                raise ValidationError("consumer dimension mismatch")
        if len(self.endowment) != self.goods or any(
            not is_int(c) or c < 0 for c in self.endowment
        ):
            raise ValidationError("endowment must be a nonnegative lattice vector")


@dataclass(frozen=True)
class Allocation:
    """One bundle per consumer."""

    bundles: tuple[IVec, ...]


@dataclass(frozen=True)
class ConsumerReceipt:
    consumer: int
    surplus: Fraction
    best_surplus: Fraction

    @property
    def optimal(self) -> bool:
        return self.surplus == self.best_surplus


@dataclass(frozen=True)
class Certificate:
    prices: Vec
    allocation: Allocation
    receipts: tuple[ConsumerReceipt, ...]


@dataclass(frozen=True)
class EquilibriumReport:
    min_value: Fraction
    argmin_prices: Vec
    price_unique: bool
    max_value: Fraction
    argmax_allocations: tuple[Allocation, ...]
    gap: Fraction
    exists: bool
    certificate: Certificate | None
    demand_sets_at_argmin: tuple[DemandSet, ...]


def _check_prices(e: Economy, p: Sequence[Fraction | int]) -> Vec:
    if len(p) != e.goods:
        raise DomainError("price vector has wrong length")
    prices = tuple(Fraction(c) for c in p)
    if any(c < 0 for c in prices):
        raise DomainError("prices must be nonnegative")
    return prices


def _check_allocation(e: Economy, a: Allocation) -> None:
    if len(a.bundles) != len(e.consumers):
        raise DomainError("allocation needs one bundle per consumer")
    for bundle, consumer in zip(a.bundles, e.consumers):
        if bundle not in consumer.entries:
            raise DomainError(f"bundle {bundle} is not in the consumer's support")
    for l in range(e.goods):
        if sum(bundle[l] for bundle in a.bundles) > e.endowment[l]:
            raise DomainError("allocation exceeds the endowment")


def aggregate_indirect(e: Economy, p: Sequence[Fraction | int]) -> Fraction:
    """Sum of consumer surplus maxima plus the endowment value, exactly."""
    prices = _check_prices(e, p)
    return sum((demand(v, prices).value for v in e.consumers), ZERO) + dot(
        prices, e.endowment
    )


def _bland(
    tableau: list[list[int]],
    basis: list[int],
    ncols: int,
    lex: Sequence[tuple[int, int]],
) -> int:
    """Run simplex iterations on a feasible tableau of ints, over
    denominator 1, whose last row holds reduced costs (minimization), to
    optimality; returns the final common denominator.

    Bland's rule picks the entering column, the least one with a negative
    reduced cost.  The leaving row minimizes the vector (rhs, s * column c
    for each (c, s) in ``lex``) over the pivot entry, lexicographically,
    with ties broken by the least basic variable: Bland's rule on the LP
    whose right-hand side b is perturbed to b + sum_k eps^k s_k e_k, when
    column c_k of the tableau is B^-1 e_k (Dantzig, Orden and Wolfe 1955).
    The start must be feasible for that perturbation.  Only signs are
    tested and ratios are compared by cross-multiplication, so no test
    depends on the denominator.  An unbounded LP raises ``DegenerateInput``.
    """
    m, det = len(basis), 1
    while True:
        cost = tableau[m]
        enter = next((j for j in range(ncols) if cost[j] < 0), None)
        if enter is None:
            return det
        leave = None
        for r in range(m):
            line = tableau[r]
            a = line[enter]
            if a <= 0:
                continue
            if leave is None:
                leave, best, best_a = r, line, a
                continue
            # line / a against best / best_a, cross-multiplied, rhs first
            d = line[ncols] * best_a - best[ncols] * a
            for c, s in lex:
                if d:
                    break
                d = s * (line[c] * best_a - best[c] * a)
            if d < 0 or (d == 0 and basis[r] < basis[leave]):
                leave, best, best_a = r, line, a
        if leave is None:
            raise DegenerateInput("simplex: the LP is unbounded")
        det = _pivot(tableau, leave, enter, det)
        basis[leave] = enter


def min_aggregate_indirect(e: Economy) -> tuple[Fraction, Vec, bool]:
    """The least aggregate indirect utility over prices p >= 0, the
    lexicographically least price that attains it, and whether that price
    is the only one.

    The least of sum_i t_i + p.w subject to t_i + p.q >= u_i(q) for every
    bundle q of consumer i is, by LP duality, the most of the configuration
    LP (Bikhchandani and Mamer 1997): maximize sum lambda_iq u_i(q) subject
    to sum_q lambda_iq = 1 per consumer, sum lambda_iq q <= w and
    lambda >= 0.  It has one column per bundle of every support, since a
    bundle beyond w may still carry weight, and the goods rows' duals are
    the prices.  The basis of the zero bundles' columns and the slacks is
    the identity and feasible for every w >= 0, so there is no phase 1.
    The constraint matrix is integer; only the cost row is scaled, by the
    lcm L of the values' denominators.

    The kernel, ``_bland`` on ``polyhedra._pivot``, perturbs w to
    w + sum_l eps^l e_l, so the final basis's duals, the slack reduced
    costs over det * L, minimize p_1, then p_2, and so on, over the optimal
    prices: the lex-min price.  Perturbed by -e instead, which the start
    admits only when every w_l > 0, they give the lex-max price, and the
    price is unique iff the two agree; a first optimal basis that is
    feasible for -e as well gives both at once, so the second run is needed
    only when it is not.  When some w_l = 0, raising p_l keeps a price
    optimal, so the price is not unique.
    """
    supports = [sorted(v.entries.items()) for v in e.consumers]
    bundles = [(i, q) for i, support in enumerate(supports) for q, _ in support]
    scale, (values,) = scaled_ints([[u for support in supports for _, u in support]])
    slack = len(bundles)
    ncols = slack + e.goods
    rows = [[int(i == k) for k, _ in bundles] + [0] * e.goods + [1] for i in range(len(supports))]
    rows += [
        [q[l] for _, q in bundles] + [int(k == l) for k in range(e.goods)] + [w]
        for l, w in enumerate(e.endowment)
    ]
    start = [k for k, (_, q) in enumerate(bundles) if not any(q)] + list(range(slack, ncols))
    # The reduced costs of the cost -L u at the start, where consumer i
    # holds its zero bundle: L u_i(0) - L u_i(q) per bundle q of consumer
    # i, 0 per slack, and minus the start's cost, sum_i L u_i(0), last.
    zero = [values[k] for k in start[: len(supports)]]
    cost = [zero[i] - u for (i, _), u in zip(bundles, values)] + [0] * e.goods + [sum(zero)]

    def solve(sign: int) -> tuple[list[list[int]], list[Fraction]]:
        """The constraint rows at the optimum with w perturbed by sign * e,
        and the slack reduced costs then the value, over det * L."""
        tableau, basis = [list(row) for row in rows] + [list(cost)], list(start)
        det = _bland(tableau, basis, ncols, [(c, sign) for c in range(slack, ncols)])
        return tableau, [Fraction(x, det * scale) for x in tableau.pop()[slack:]]

    tableau, (*prices, value) = solve(1)
    if not all(e.endowment):
        unique = False
    elif all((row[ncols], *(-row[c] for c in range(slack, ncols))) >= (0,) * (e.goods + 1)
             for row in tableau):
        # The basis is feasible for -e too, so it also gives the lex-max.
        unique = True
    else:
        unique = solve(-1)[1][:-1] == prices
    return value, tuple(prices), unique


def _leftover_keys(w: IVec) -> tuple[list[int], int]:
    """Bit offsets and guard mask that key every leftover r <= w by one int.

    Good l gets a digit of ``w_l.bit_length() + 1`` bits whose top bit is a
    guard: a leftover r is ``sum(r_l << offset_l)`` plus every guard bit, a
    bundle q <= w is ``sum(q_l << offset_l)``.  Each digit of r less q stays
    in its field with no borrow, and keeps its guard bit exactly when
    q_l <= r_l, so ``r - q`` is the leftover after q and ``(r - q) & guards
    == guards`` tests that q fits r, for any number of goods.
    """
    offsets, guards = [], 0
    for c in w:
        offsets.append(guards.bit_length())
        guards |= 1 << (guards.bit_length() + c.bit_length())
    return offsets, guards


def max_aggregate_utility(e: Economy) -> tuple[Fraction, tuple[Allocation, ...]]:
    """The aggregate valuation at the endowment, a max-plus convolution of
    the consumers' valuations, and every allocation that attains it.

    ``best[i][r]`` is the most consumers i..n-1 can get from bundles that sum
    to at most r, for each leftover r that consumers 0..i-1 can reach; every
    support holds the zero bundle, so no maximum is over an empty set.  The
    DP runs on ints: the values are scaled once by the lcm L of their
    denominators, each leftover is one int key (``_leftover_keys``), and a
    step is one subtraction, one mask test, one addition and one
    comparison; the maximum becomes a Fraction only at the end.

    Bundles are nonnegative, so consumer i's leftovers are at most
    min(|box|, K^i) points of the endowment box: the time is O(n |box| K)
    steps on ints of about log2(L) plus the values' bits, and the tables
    hold O(n |box|) ints.  The last consumer's maximum is read off its
    bundles directly, so the leftovers after it, the largest level, are
    never stored.

    Backtracking from ``best[0][w]`` in support order lists the maximizers
    in product order (the first consumer's bundle varies slowest).  The
    size of that product is still capped at ``MAX_ALLOCATIONS``, since
    every allocation may be a maximizer.
    """
    bundles = [v.bundles() for v in e.consumers]
    size = prod(len(b) for b in bundles)
    if size > MAX_ALLOCATIONS:
        raise InstanceTooLarge(
            f"allocation enumeration: {size} allocations exceed the cap of "
            f"{MAX_ALLOCATIONS}; prune supports"
        )
    w = tuple(e.endowment)
    scale, values = scaled_ints([v.entries[q] for q in b] for v, b in zip(e.consumers, bundles))
    offsets, guards = _leftover_keys(w)

    def key(q: IVec) -> int:
        return sum(c << s for c, s in zip(q, offsets))

    # A bundle outside the endowment fits no leftover; dropping it first
    # keeps every bundle key's digits below the guard bits.
    supports = [
        [(q, key(q), u) for q, u in zip(b, us) if all(a <= c for a, c in zip(q, w))]
        for b, us in zip(bundles, values)
    ]
    root = key(w) | guards
    leftovers = [{root}]
    for support in supports[:-1]:
        leftovers.append(
            {r - k for r in leftovers[-1] for _, k, _ in support if (r - k) & guards == guards}
        )
    last = supports[-1]
    best = [{r: max(u for _, k, u in last if (r - k) & guards == guards) for r in leftovers[-1]}]
    for support, states in zip(supports[-2::-1], leftovers[-2::-1]):
        after = best[-1]
        best.append(
            {
                r: max(u + after[r - k] for _, k, u in support if (r - k) & guards == guards)
                for r in states
            }
        )
    best.reverse()
    best.append({})  # past the last consumer nothing is left to gain, read as 0

    # Depth-first with an explicit stack, since consumers whose only bundle
    # is zero do not count against the cap and may be arbitrarily many.
    argmax: list[Allocation] = []
    stack = [(root, best[0][root], ())]
    while stack:
        r, target, chosen = stack.pop()
        i = len(chosen)
        if i == len(supports):
            argmax.append(Allocation(bundles=chosen))
            continue
        after = best[i + 1]
        branches = []
        for q, k, u in supports[i]:
            rest = r - k
            if rest & guards == guards and u + after.get(rest, 0) == target:
                branches.append((rest, target - u, chosen + (q,)))
        stack.extend(reversed(branches))
    return Fraction(best[0][root], scale), tuple(argmax)


def walrasian_check(
    e: Economy, p: Sequence[Fraction | int], a: Allocation
) -> tuple[bool, tuple[ConsumerReceipt, ...]]:
    """Per-consumer optimality receipts: does each assigned bundle attain the
    consumer's best surplus at these prices?"""
    prices = _check_prices(e, p)
    _check_allocation(e, a)
    receipts = []
    for i, (v, q) in enumerate(zip(e.consumers, a.bundles)):
        receipts.append(
            ConsumerReceipt(
                consumer=i,
                surplus=v.entries[q] - dot(prices, q),
                best_surplus=demand(v, prices).value,
            )
        )
    return all(r.optimal for r in receipts), tuple(receipts)


def _market_clears(e: Economy, p: Vec, a: Allocation) -> bool:
    leftover = tuple(
        e.endowment[l] - sum(bundle[l] for bundle in a.bundles) for l in range(e.goods)
    )
    return dot(p, leftover) == 0


def duality_test(e: Economy) -> EquilibriumReport:
    """Compare min aggregate indirect utility with max aggregate utility.

    ``exists`` is decided by the gap alone.  The gap is the sum over consumers
    of f_i(p) - (u_i(a_i) - p.a_i) plus p.(w - sum a_i), every term >= 0, so
    when it is zero every maximizing allocation is Walrasian at the
    minimizing prices: the first one is the certificate, and a failed check
    raises DegenerateInput.  When no equilibrium exists, the per-consumer
    demand sets at the minimizing prices document why the market cannot
    clear.
    """
    max_value, argmax = max_aggregate_utility(e)  # refuses over-cap economies first
    min_value, prices, unique = min_aggregate_indirect(e)
    gap = min_value - max_value
    exists = gap == 0
    demand_sets = tuple(demand(v, prices) for v in e.consumers)

    certificate = None
    if exists:
        certificate = _build_certificate(e, prices, argmax[0])
    return EquilibriumReport(
        min_value=min_value,
        argmin_prices=prices,
        price_unique=unique,
        max_value=max_value,
        argmax_allocations=argmax,
        gap=gap,
        exists=exists,
        certificate=certificate,
        demand_sets_at_argmin=demand_sets,
    )


def _build_certificate(e: Economy, prices: Vec, allocation: Allocation) -> Certificate:
    ok, receipts = walrasian_check(e, prices, allocation)
    if not (ok and _market_clears(e, prices, allocation)):
        raise DegenerateInput("zero duality gap, but a maximizing allocation is not Walrasian")
    return Certificate(prices=prices, allocation=allocation, receipts=receipts)
