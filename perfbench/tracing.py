"""Outside-in spans around the package's public functions.

The tracer replaces every public function of each layer module at each of
its binding sites (the defining module and every package module that
imported the name), so calls the package makes internally are seen as
well.  ``exactmath`` is left unwrapped: its arithmetic shows up as self time
of its callers.  Names that a later version deletes are simply not found,
and their metrics read zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter
from math import comb, prod
from pathlib import Path
from time import perf_counter

from instances import affine_rank

LAYERS = ("cli", "serialize", "valuation", "polyhedra", "complexes", "potential", "equilibrium", "svg")


def span_name(layer: str, attr: str) -> str:
    if layer == "serialize":
        return "serialize.decode" if attr.endswith("_from_dict") else "serialize.encode"
    return f"{layer}.{attr}"


# Counts taken at a span boundary from the call's arguments or result, keyed
# by the wrapped function.  The "computed" ones are derived from the inputs,
# not observed inside the call.


def _count_simplex(counts, args, kwargs, result):
    lp = args[0] if args else kwargs["lp"]
    counts["polyhedra.simplex_solve.rows"] += len(lp.constraints) + len(lp.equalities)
    counts["polyhedra.simplex_solve.infeasible"] += result.status == "infeasible"


def _count_hull(counts, args, kwargs, result):
    bundles = [q for q, _ in (args[0] if args else kwargs["points"])]
    d = affine_rank(bundles)
    counts["polyhedra.upper_concave_hull.subsets"] += comb(len(bundles), d + 1)


def _count_allocations(counts, args, kwargs, result):
    e = args[0] if args else kwargs["e"]
    counts["equilibrium.max_aggregate_utility.product"] += prod(len(v.entries) for v in e.consumers)


def _count_regions(counts, args, kwargs, result):
    counts["complexes.regions"] += len(result.regions())


def _count_bytes(counts, args, kwargs, result):
    counts["serialize.bytes_out"] += len(result.encode("utf-8"))


HOOKS = {
    "serialize.dumps": _count_bytes,
    "polyhedra.simplex_solve": _count_simplex,
    "polyhedra.upper_concave_hull": _count_hull,
    "equilibrium.max_aggregate_utility": _count_allocations,
    "complexes.price_complex": _count_regions,
    "complexes.demand_complex": _count_regions,
}


class Tracer:
    """Records spans (name, start, end, parent index) in memory while
    installed; ``metrics`` folds them into per-layer calls and times."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, hook):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, perf_counter(), None, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        package = [
            m for name, m in sys.modules.items()
            if name == "tropical_demand" or name.startswith("tropical_demand.")
        ]
        for layer in LAYERS:
            module = importlib.import_module(f"tropical_demand.{layer}")
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                traced = self._wrap(span_name(layer, attr), fn, HOOKS.get(f"{layer}.{attr}"))
                for site in package:
                    for site_attr, value in list(vars(site).items()):
                        if value is fn:
                            setattr(site, site_attr, traced)
                            self._patched.append((site, site_attr, fn))

    def uninstall(self) -> None:
        for site, attr, fn in reversed(self._patched):
            setattr(site, attr, fn)
        self._patched.clear()

    def metrics(self, passes: int) -> dict[str, float]:
        """Per span name: ``.calls``, ``.self_s`` and ``.total_s``, plus the
        boundary counts, each divided by the number of traced passes."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Counter = Counter()
        for (name, start, end, _), children in zip(self.spans, child_time):
            out[f"{name}.calls"] += 1
            out[f"{name}.total_s"] += end - start
            out[f"{name}.self_s"] += end - start - children
        out.update(self.counts)
        out = Counter({k: v / passes for k, v in out.items()})
        interior = out["polyhedra.interior_point.calls"]
        out["complexes.useful_lp_ratio"] = out["complexes.regions"] / interior if interior else 0.0
        return dict(out)

    def dump(self, path: Path) -> None:
        path.write_text(
            json.dumps({"fields": ["name", "start", "end", "parent"], "spans": self.spans}),
            encoding="utf-8",
        )
