"""Seeded benchmark inputs.

Every input comes from one ``random.Random(seed)`` stream, drawn in the
order the workload's rungs are listed in ``workloads.json``, so the same seed
always gives the same files.  The program under test only ever sees the
JSON files written here.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from pathlib import Path

SPEC_PATH = Path(__file__).with_name("workloads.json")

Bundle = tuple[int, ...]
Values = dict[Bundle, Fraction]


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


def fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def affine_rank(points: list[Bundle]) -> int:
    """Dimension of the affine hull of integer points (exact elimination)."""
    base = points[0]
    rows = [[Fraction(a - b) for a, b in zip(p, base)] for p in points[1:]]
    rank = 0
    for col in range(len(base)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def upper_hull_facets(values: Values) -> int:
    """Facets of the upper hull of the lifted 2-good points (q, u(q)).

    This is the number of pieces of the concave dual, which drives the cost
    of the demand complex.  Integer arithmetic over all triples.
    """
    pts = [(q[0], q[1], int(u)) for q, u in values.items()]
    planes = set()
    for i, a in enumerate(pts):
        for j in range(i + 1, len(pts)):
            b = pts[j]
            u = (b[0] - a[0], b[1] - a[1], b[2] - a[2])
            for c in pts[j + 1 :]:
                v = (c[0] - a[0], c[1] - a[1], c[2] - a[2])
                n = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])
                if n[2] == 0:
                    continue
                if n[2] < 0:
                    n = (-n[0], -n[1], -n[2])
                off = n[0] * a[0] + n[1] * a[1] + n[2] * a[2]
                if all(n[0] * p[0] + n[1] * p[1] + n[2] * p[2] <= off for p in pts):
                    g = gcd(gcd(n[0], n[1]), gcd(n[2], off))
                    planes.add((n[0] // g, n[1] // g, n[2] // g, off // g))
    return len(planes)


def best_surplus(values: Values, p: tuple[Fraction, ...]) -> Fraction:
    return max(u - sum(pi * qi for pi, qi in zip(p, q)) for q, u in values.items())


def demanded(values: Values, p: tuple[Fraction, ...]) -> list[Bundle]:
    best = best_surplus(values, p)
    return sorted(
        q for q, u in values.items() if u - sum(pi * qi for pi, qi in zip(p, q)) == best
    )


@dataclass
class Instance:
    """One seeded input and the pipeline of CLI calls run on it."""

    id: str
    rung: str
    role: str
    pipeline: str
    dir: Path
    valuation: Values | None = None
    consumers: list[Values] = field(default_factory=list)
    endowment: Bundle = ()
    prices: list[tuple[Fraction, ...]] = field(default_factory=list)
    anchor: Bundle | None = None


class Generator:
    """Draws valuations, economies and price samples from one seeded stream.

    Bundle sets whose affine hull is lower-dimensional are redrawn: the
    demand complex rejects collinear 2-good sets and the 3-D hull rejects
    coplanar 3-good sets.  ``redrawn`` counts them.
    """

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.redrawn = 0

    def valuation(self, goods: int, bundles: int, box: int, values: list[int]) -> Values:
        zero = (0,) * goods
        while True:
            chosen = {zero}
            while len(chosen) < bundles:
                chosen.add(tuple(self.rng.randint(0, box) for _ in range(goods)))
            ordered = sorted(chosen)
            if affine_rank(ordered) == goods:
                break
            self.redrawn += 1
        lo, hi = values
        return {q: Fraction(0 if q == zero else self.rng.randint(lo, hi)) for q in ordered}

    def stratified(self, count: int, oversample: int, draw: tuple) -> list[Values]:
        """``count`` valuations spread evenly over the hull-facet counts of
        ``count * oversample`` draws, so every seed covers the same range of
        demand-complex sizes instead of a lucky or unlucky handful."""
        pool = [self.valuation(*draw) for _ in range(count * oversample)]
        ranked = sorted(range(len(pool)), key=lambda i: (upper_hull_facets(pool[i]), i))
        return [pool[ranked[(2 * k + 1) * len(pool) // (2 * count)]] for k in range(count)]

    def prices(self, goods: int, spec: dict) -> list[tuple[Fraction, ...]]:
        return [
            tuple(
                Fraction(self.rng.randint(0, spec["numerator_max"]), spec["denominator"])
                for _ in range(goods)
            )
            for _ in range(spec["count"])
        ]


def _valuation_doc(goods: int, values: Values) -> dict:
    return {
        "goods": goods,
        "entries": [{"bundle": list(q), "value": fmt(u)} for q, u in values.items()],
    }


def _write(path: Path, doc) -> None:
    path.write_text(json.dumps(doc), encoding="utf-8")


def build(workload: str, seed: int, workdir: Path) -> tuple[list[Instance], int]:
    """Draw the workload's inputs, write them under ``workdir`` and return the
    instances plus the number of redrawn bundle sets."""
    spec = load_spec()["workloads"][workload]
    gen = Generator(seed)
    out: list[Instance] = []
    for rung in spec["rungs"]:
        goods = rung["goods"]
        draw = (goods, rung["bundles"], rung["box"], rung["values"])
        drawn = (
            gen.stratified(rung["count"], rung["stratify"], draw) if "stratify" in rung else None
        )
        for i in range(rung["count"]):
            inst = Instance(
                id=f"{rung['name']}-{i}",
                rung=rung["name"],
                role=rung["role"],
                pipeline=rung["pipeline"],
                dir=workdir / f"{rung['name']}-{i}",
            )
            inst.dir.mkdir(parents=True)
            if inst.pipeline == "equilibrium":
                inst.consumers = [gen.valuation(*draw) for _ in range(rung["consumers"])]
                inst.endowment = tuple(rung["endowment"])
                _write(
                    inst.dir / "economy.json",
                    {
                        "goods": goods,
                        "endowment": list(inst.endowment),
                        "consumers": [_valuation_doc(goods, v) for v in inst.consumers],
                    },
                )
                out.append(inst)
                continue
            inst.valuation = drawn[i] if drawn else gen.valuation(*draw)
            _write(inst.dir / "valuation.json", _valuation_doc(goods, inst.valuation))
            if inst.pipeline == "price":
                inst.prices = gen.prices(goods, spec["prices"])
                selections = [demanded(inst.valuation, p) for p in inst.prices]
                inst.anchor = next((s[0] for s in selections if len(s) == 1), (0,) * goods)
                _write(
                    inst.dir / "sample.json",
                    {
                        "pairs": [
                            {"p": [fmt(c) for c in p], "q": [str(c) for c in s[0]]}
                            for p, s in zip(inst.prices, selections)
                        ]
                    },
                )
            out.append(inst)
    return out, gen.redrawn
