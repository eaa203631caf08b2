#!/usr/bin/env python3
"""Seeded end-to-end benchmark of the tropical-demand CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The program is imported from
``src/`` of that checkout and every timed call goes through
``tropical_demand.cli.main`` in this one single-threaded process, with
inputs and outputs as JSON files, so parsing and emitting are timed too.
Workloads, rungs and input distributions live in ``workloads.json``;
metric names and units in ``BENCHMARK.json`` at the root.

The instance set is fixed by the seed and sized so that one pass takes
about ``--seconds``; it is timed again while another full pass fits.  Each
call's time is its median over the passes, rescaled to a fixed reference
speed (see ``pipelines.REFERENCE_SECONDS``); the raw wall time of the batch
is printed as well.  ``--trace 1`` alternates untraced and traced passes
and prints the per-layer metrics, per traced pass.  Human-readable lines come first; the last
line of standard output is the JSON result.  A wrong answer prints
``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import instances
from pipelines import REFERENCE_SECONDS, Runner, reference_kernel
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"


def parse_args(argv: list[str] | None, spec: dict) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="Seeded CLI benchmark of tropical-demand.")
    p.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    p.add_argument("--seed", type=int, default=spec["default_seed"])
    p.add_argument("--seconds", type=float, default=30.0, help="time budget for repeat passes")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--smoke", action="store_true",
        help="run only the first small-rung instance (for the smoke test)",
    )
    p.add_argument(
        "--record-digests", action="store_true",
        help="store the output digests of this default-seed run in digests.json",
    )
    p.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_cli():
    """Import the CLI from this checkout's ``src/``, never from elsewhere."""
    package = SRC / "tropical_demand"
    if not (package / "cli.py").is_file():
        raise SystemExit(f"error: no program to benchmark: {package} is missing")
    sys.path.insert(0, str(SRC))
    from tropical_demand import cli

    if Path(cli.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported {cli.__file__}, not the checkout's copy")
    return cli


def time_setups(args, repeats: int) -> float:
    """Median time, rescaled like the calls, of fresh processes that import
    the CLI and write the workload's inputs."""
    times = []
    for i in range(repeats):
        target = WORK / f"setup-{args.workload}-{os.getpid()}-{i}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only", str(target),
               "--workload", args.workload, "--seed", str(args.seed)]
        before = reference_kernel()
        start = perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL)
        elapsed = perf_counter() - start
        times.append(elapsed * 2 * REFERENCE_SECONDS / (before + reference_kernel()))
        shutil.rmtree(target, ignore_errors=True)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up process exited {proc.returncode}")
    return statistics.median(times)


def run_rounds(runners: list[Runner], plan, seconds: float) -> int:
    """One pass per runner, repeated while another round fits in ``seconds``."""
    start = perf_counter()
    rounds = 0
    while True:
        t0 = perf_counter()
        for runner in runners:
            runner.run_pass(plan)
        rounds += 1
        if perf_counter() - start + (perf_counter() - t0) > seconds:
            return rounds


def end_to_end(runner: Runner, plan, wall: bool = False) -> dict[str, float]:
    latency = runner.latencies(plan, wall)
    small = [latency[i.id] for i in plan if "small" in i.role]
    large = [latency[i.id] for i in plan if "large" in i.role]
    return {
        "batch_s": sum(latency.values()),
        "small_mean_ms": 1000 * statistics.mean(small),
        "large_mean_s": statistics.mean(large),
    }


def digest_mismatches(runner: Runner, workload: str) -> int:
    stored = json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload, {})
    return sum(stored.get(call_id) != digest for call_id, digest in runner.digests.items())


def record_digests(runner: Runner, workload: str) -> None:
    stored = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    stored[workload] = dict(sorted(runner.digests.items()))
    DIGESTS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    spec = instances.load_spec()
    args = parse_args(argv, spec)
    if args.setup_only:
        import_cli()
        instances.build(args.workload, args.seed, Path(args.setup_only))
        return 0
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    cli = import_cli()

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        plan, redrawn = instances.build(args.workload, args.seed, workdir)
        if args.smoke:
            plan = [next(i for i in plan if i.role == "small")]
            plan[0].role = "small large"
        runner = Runner(cli, spec["allocation_cap"])
        tracer = Tracer() if args.trace else None
        runners = [runner] + ([Runner(cli, spec["allocation_cap"], tracer)] if tracer else [])
        passes = run_rounds(runners, plan, args.seconds)
        wall_batch = end_to_end(runner, plan, wall=True)["batch_s"]
        if tracer:
            tracer.dump(WORK / f"spans-{args.workload}-{args.seed}.json")
            values = tracer.metrics(passes)
            values["trace.overhead_s"] = (
                end_to_end(runners[1], plan)["batch_s"] - end_to_end(runner, plan)["batch_s"]
            )
            values["equilibrium.cap_exceeded"] = runners[1].capped / passes
            wanted = bench["per_layer"]
        else:
            values = end_to_end(runner, plan)
            values["setup_s"] = time_setups(args, spec["setup_repeats"])
            values["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            wanted = bench["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in runners)
    failed = sum(r.failed for r in runners)
    capped = sum(r.capped for r in runners)
    wrong = [w for r in runners for w in r.wrong]
    if args.record_digests:
        if args.seed != spec["default_seed"] or args.smoke:
            raise SystemExit("error: digests are recorded from a full default-seed run")
        record_digests(runner, args.workload)
    if args.seed == spec["default_seed"]:
        digest_note = f"digest_mismatch {digest_mismatches(runner, args.workload)}"
    else:
        digest_note = f"digest_mismatch n/a (digests are stored for seed {spec['default_seed']})"

    print(
        f"workload {args.workload}  seed {args.seed}  passes {passes}  calls {attempted}  "
        f"wall batch {wall_batch:.3f} s"
    )
    print(
        f"  fail_ratio {(failed + capped) / attempted:.4f} 1  "
        f"(errors {failed}, capped {capped})  redrawn {redrawn}  {digest_note}"
    )
    for message in wrong:
        print(f"  WRONG {message}")
    metrics = {}
    for m in wanted:
        value = values.get(m["name"], 0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<48} {value:>14.6f} {m['unit']}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
