"""Timed CLI pipelines and the exact checks run between their calls.

Only ``cli.main`` is inside the timed span; reading outputs back, hashing
them and checking them happen after each call returns.  All comparisons
are exact ``Fraction`` equalities computed here from the seeded inputs, not
by calling the package under test.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import sys
import traceback
from fractions import Fraction
from math import prod
from pathlib import Path
from time import perf_counter

from instances import Instance, Values, best_surplus

EXIT_CAP = 5

# On a shared 2-vCPU KVM guest (Xeon host, CPython 3.11) CPU speed swings
# between about 0.6x and 1.4x of its median, in phases of 10-20 s, and the
# swings move dense Fraction row operations much as they move the program.
# So every instance is bracketed by a fixed reference kernel of such
# operations, and its calls are rescaled to the speed at which the kernel
# takes REFERENCE_SECONDS (about its median time on that guest).  The kernel
# does not call the program, so a change to the program moves the rescaled
# times in the same proportion as the wall times.
REFERENCE_SECONDS = 0.015
_rng = random.Random(0)
_REFERENCE_ROWS = [
    [Fraction(_rng.randint(-50, 50), _rng.randint(1, 9)) for _ in range(24)] for _ in range(12)
]


def reference_kernel() -> float:
    """Wall time of ten exact Gauss-Jordan pivots on a fixed 12x24 matrix."""
    start = perf_counter()
    rows = [row[:] for row in _REFERENCE_ROWS]
    for k in range(10):
        pivot = rows[k][k] or Fraction(1)
        rows[k] = [x / pivot for x in rows[k]]
        for i in range(len(rows)):
            if i != k and rows[i][k] != 0:
                f = rows[i][k]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[k])]
    return perf_counter() - start


class WrongAnswer(Exception):
    """An output contradicts the exact answer computed from the inputs."""


class CallFailed(Exception):
    """A call ended in an error exit or an exception; the pipeline stops."""


class Runner:
    """Runs pipelines through ``cli.main`` and records time and outcome of
    every call.  ``wall`` maps a call id to its wall times and ``times`` to
    its rescaled times (see ``REFERENCE_SECONDS``), one per pass.  With a
    tracer, every pass runs with the tracer installed."""

    def __init__(self, cli, allocation_cap: int, tracer=None):
        self.cli = cli
        self.allocation_cap = allocation_cap
        self.tracer = tracer
        self.wall: dict[str, list[float]] = {}
        self.times: dict[str, list[float]] = {}
        self._pending: list[tuple[str, float]] = []
        self.instance_of: dict[str, str] = {}
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.capped = 0
        self.wrong: list[str] = []

    def call(self, inst: Instance, step: str, argv: list[str], outputs: list[Path]) -> int:
        call_id = f"{inst.id}/{step}"
        for path in outputs:
            path.unlink(missing_ok=True)
        self.attempted += 1
        start = perf_counter()
        try:
            code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            code = None
            traceback.print_exc(file=sys.stderr)
        self._pending.append((call_id, perf_counter() - start))
        self.instance_of[call_id] = inst.id
        if code not in (0, 1, EXIT_CAP):
            self.failed += 1
            raise CallFailed(f"{call_id}: exit {code}")
        digest = hashlib.sha256(str(code).encode())
        for path in outputs:
            if path.exists():
                digest.update(path.read_bytes())
        self.digests[call_id] = digest.hexdigest()
        return code

    def run_pass(self, plan: list[Instance]) -> None:
        if self.tracer is not None:
            self.tracer.install()
        try:
            for inst in plan:
                before = reference_kernel()
                try:
                    PIPELINES[inst.pipeline](self, inst)
                except CallFailed as exc:
                    print(f"call failed: {exc}", file=sys.stderr)
                except WrongAnswer as exc:
                    self.wrong.append(f"{inst.id}: {exc}")
                scale = 2 * REFERENCE_SECONDS / (before + reference_kernel())
                for call_id, elapsed in self._pending:
                    self.wall.setdefault(call_id, []).append(elapsed)
                    self.times.setdefault(call_id, []).append(elapsed * scale)
                self._pending.clear()
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()

    def latencies(self, plan: list[Instance], wall: bool = False) -> dict[str, float]:
        """Per instance, the sum over its calls of each call's median over
        the passes, rescaled unless ``wall``."""
        out = {inst.id: 0.0 for inst in plan}
        for call_id, times in (self.wall if wall else self.times).items():
            out[self.instance_of[call_id]] += statistics.median(times)
        return out


def _load(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise WrongAnswer(f"unreadable output {path.name}: {exc}") from exc


def _vec(raw) -> tuple[Fraction, ...]:
    return tuple(Fraction(c) for c in raw)


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise WrongAnswer(message)


def _expect_exit(code: int, want: int, step: str) -> None:
    _expect(code == want, f"{step} exited {code}, expected {want}")


def _evaluate(piece: dict, x) -> Fraction:
    return sum(s * c for s, c in zip(_vec(piece["slope"]), x)) + Fraction(piece["intercept"])


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------


def price_pipeline(run: Runner, inst: Instance) -> None:
    """complex --which price --svg, then balance and integrate on its output,
    then cyclemono on exact demand selections at the seeded prices."""
    d = inst.dir
    code = run.call(
        inst,
        "complex",
        ["complex", "--which", "price", "--in", str(d / "valuation.json"),
         "--out", str(d / "price.json"), "--svg", str(d / "price.svg")],
        [d / "price.json", d / "price.svg"],
    )
    _expect_exit(code, 0, "complex")
    complex_doc = _load(d / "price.json")
    regions = {
        _vec(c["label"]): c["id"] for c in complex_doc["cells"] if c["dim"] == 2
    }
    _expect(inst.anchor in regions, f"no region labeled {inst.anchor}")

    code = run.call(
        inst, "balance",
        ["balance", "--in", str(d / "price.json"), "--out", str(d / "balance.json")],
        [d / "balance.json"],
    )
    _expect_exit(code, 0, "balance")

    anchor_value = inst.valuation[inst.anchor]
    code = run.call(
        inst, "integrate",
        ["integrate", "--in", str(d / "price.json"), "--anchor-region",
         str(regions[inst.anchor]), "--anchor-value", str(anchor_value),
         "--out", str(d / "potential.json")],
        [d / "potential.json"],
    )
    _expect_exit(code, 0, "integrate")
    pieces = _load(d / "potential.json")["pieces"]
    for p in inst.prices:
        got = max(_evaluate(piece, p) for piece in pieces)
        _expect(got == best_surplus(inst.valuation, p), f"potential wrong at p={p}")

    code = run.call(
        inst, "cyclemono",
        ["cyclemono", "--in", str(d / "sample.json"), "--out", str(d / "cyclemono.json")],
        [d / "cyclemono.json"],
    )
    _expect_exit(code, 0, "cyclemono")


def _check_dual(values: Values, doc: dict) -> None:
    never = {tuple(q) for q in doc.get("never_demanded", [])}
    for q, u in values.items():
        heights = [_evaluate(piece, q) for piece in doc["pieces"]]
        _expect(min(heights) >= u, f"a dual piece lies below u{q}")
        if q in never:
            _expect(min(heights) > u, f"{q} is listed as never demanded but lies on the hull")
        else:
            _expect(min(heights) == u, f"dual at {q} is not u{q}")


def dualize_pipeline(run: Runner, inst: Instance) -> list[tuple[Fraction, ...]]:
    d = inst.dir
    code = run.call(
        inst, "dualize",
        ["dualize", "--in", str(d / "valuation.json"), "--out", str(d / "dual.json")],
        [d / "dual.json"],
    )
    _expect_exit(code, 0, "dualize")
    doc = _load(d / "dual.json")
    _check_dual(inst.valuation, doc)
    return [_vec(piece["slope"]) for piece in doc["pieces"]]


def dual_pipeline(run: Runner, inst: Instance) -> None:
    """dualize, then complex --which demand and balance on its output."""
    slopes = dualize_pipeline(run, inst)
    d = inst.dir
    code = run.call(
        inst, "demand",
        ["complex", "--which", "demand", "--in", str(d / "valuation.json"),
         "--out", str(d / "demand.json")],
        [d / "demand.json"],
    )
    _expect_exit(code, 0, "complex --which demand")
    labels = {_vec(c["label"]) for c in _load(d / "demand.json")["cells"] if c["dim"] == 2}
    _expect(labels == set(slopes), "demand complex labels differ from the dual slopes")

    code = run.call(
        inst, "balance",
        ["balance", "--in", str(d / "demand.json"), "--out", str(d / "balance.json")],
        [d / "balance.json"],
    )
    _expect_exit(code, 0, "balance")


def equilibrium_pipeline(run: Runner, inst: Instance) -> None:
    """equilibrium; a cap exit is accepted only when the allocation space
    really exceeds the cap."""
    d = inst.dir
    code = run.call(
        inst, "equilibrium",
        ["equilibrium", "--in", str(d / "economy.json"), "--out", str(d / "report.json")],
        [d / "report.json"],
    )
    size = prod(len(v) for v in inst.consumers)
    if code == EXIT_CAP:
        _expect(size > run.allocation_cap, f"capped at {size} allocations")
        run.capped += 1
        return
    report = _load(d / "report.json")
    gap = Fraction(report["gap"])
    _expect(gap >= 0, "negative duality gap")
    _expect(code == (0 if gap == 0 else 1), f"exit {code} with gap {gap}")
    prices = _vec(report["argmin_prices"])
    _expect(all(c >= 0 for c in prices), "negative prices")
    aggregate = sum(best_surplus(v, prices) for v in inst.consumers) + sum(
        p * w for p, w in zip(prices, inst.endowment)
    )
    _expect(Fraction(report["min_value"]) == aggregate, "min_value is not the aggregate indirect utility")
    _expect(report["argmax_allocations"], "no argmax allocation")
    bundles = [tuple(q) for q in report["argmax_allocations"][0]]
    _expect(len(bundles) == len(inst.consumers), "allocation has the wrong length")
    _expect(all(q in v for q, v in zip(bundles, inst.consumers)), "bundle outside a support")
    _expect(
        all(sum(q[l] for q in bundles) <= w for l, w in enumerate(inst.endowment)),
        "argmax allocation exceeds the endowment",
    )
    utility = sum(v[q] for q, v in zip(bundles, inst.consumers))
    _expect(Fraction(report["max_value"]) == utility, "max_value is not the allocation's utility")


PIPELINES = {
    "price": price_pipeline,
    "dual": dual_pipeline,
    "dualize": dualize_pipeline,
    "equilibrium": equilibrium_pipeline,
}
