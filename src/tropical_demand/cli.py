"""Command-line surface.

Subcommands: dualize, complex, balance, integrate, equilibrium, cyclemono.
All take --in FILE and write JSON to --out FILE (stdout when omitted);
`complex` can additionally emit an SVG.  Exit codes: 0 success / verdict
true, 1 verdict false (unbalanced, no equilibrium, non-monotone,
non-conservative), 2 parse error (malformed JSON, bytes that are not UTF-8,
or a number or nesting past the decoder's limits), 3 validation error, 4
unsupported dimension, 5 resource cap exceeded.  A command returns 0 or 1
by its verdict and raises on every error; ``main`` alone maps each error
type to its code and writes its one stderr line, the witness cycle of a
non-conservative subdivision included.  The caps are fixed module
constants, not options: ``polyhedra.MAX_HULL_POINTS`` bundles per hull,
``potential.MAX_SAMPLE_PAIRS`` sample pairs and
``equilibrium.MAX_ALLOCATIONS`` allocations.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import serialize
from .complexes import check_balancing, demand_complex, price_complex
from .equilibrium import duality_test
from .errors import (
    InstanceTooLarge,
    NonConservative,
    ToolkitError,
    UnsupportedDimension,
    ValidationError,
    quoted,
)
from .exactmath import rational
from .potential import check_cyclic_monotonicity, integrate_subdivision
from .svg import render_subdivision
from .valuation import dualize

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_DIMENSION = 4
EXIT_CAP = 5


class _ParseFailure(Exception):
    pass


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _ParseFailure(
            f"parse error in {path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:
        # Bytes that are not UTF-8, an integer literal over the interpreter's
        # digit limit, or nesting deeper than the decoder's recursion limit.
        raise _ParseFailure(f"parse error in {path}: {exc}") from exc


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def cmd_dualize(args) -> int:
    v = serialize.valuation_from_dict(_read_json(args.infile))
    dual, below = dualize(v)
    _emit(serialize.dumps(serialize.function_to_dict(dual, never_demanded=sorted(below))), args.out)
    return EXIT_OK


def cmd_complex(args) -> int:
    v = serialize.valuation_from_dict(_read_json(args.infile))
    build = price_complex if args.which == "price" else demand_complex
    subdivision = build(v)
    _emit(serialize.dumps(serialize.subdivision_to_dict(subdivision)), args.out)
    if args.svg is not None:
        _emit(render_subdivision(subdivision), args.svg)
    return EXIT_OK


def cmd_balance(args) -> int:
    subdivision = serialize.subdivision_from_dict(_read_json(args.infile))
    report = check_balancing(subdivision)
    _emit(serialize.dumps(serialize.balance_report_to_dict(report)), args.out)
    return EXIT_OK if report.overall else EXIT_FALSE


def cmd_integrate(args) -> int:
    subdivision = serialize.subdivision_from_dict(_read_json(args.infile))
    regions = subdivision.regions()
    if not regions:
        raise ValidationError("subdivision has no regions")
    anchor_region = args.anchor_region if args.anchor_region is not None else regions[0]
    anchor_value = rational(args.anchor_value)
    potential = integrate_subdivision(subdivision, (anchor_region, anchor_value))
    _emit(serialize.dumps(serialize.function_to_dict(potential)), args.out)
    return EXIT_OK


def cmd_equilibrium(args) -> int:
    economy = serialize.economy_from_dict(_read_json(args.infile))
    report = duality_test(economy)
    _emit(serialize.dumps(serialize.equilibrium_report_to_dict(report)), args.out)
    return EXIT_OK if report.exists else EXIT_FALSE


def cmd_cyclemono(args) -> int:
    sample = serialize.sample_from_dict(_read_json(args.infile))
    monotone, witness = check_cyclic_monotonicity(sample, direction=args.direction)
    out = {
        "cyclically_monotone": monotone,
        "direction": args.direction,
        "witness_cycle": list(witness) if witness is not None else None,
    }
    _emit(serialize.dumps(out), args.out)
    return EXIT_OK if monotone else EXIT_FALSE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tropical-demand",
        description="Exact demand geometry for indivisible goods.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--in", dest="infile", required=True, help="input JSON file")
        p.add_argument("--out", dest="out", default=None, help="output JSON file (default stdout)")

    p = sub.add_parser("dualize", help="concave dual of a valuation")
    common(p)

    p = sub.add_parser("complex", help="price or demand complex of a valuation")
    common(p)
    p.add_argument("--which", choices=("price", "demand"), required=True)
    p.add_argument("--svg", default=None, help="also render the complex to SVG")

    p = sub.add_parser("balance", help="balancing check of a labeled subdivision")
    common(p)

    p = sub.add_parser("integrate", help="integrate a subdivision up to its potential")
    common(p)
    p.add_argument("--anchor-region", type=int, default=None, help="region id fixing the constant")
    p.add_argument("--anchor-value", default="0", help="intercept of the anchored region's piece")

    p = sub.add_parser("equilibrium", help="duality test for Walrasian equilibrium")
    common(p)

    p = sub.add_parser("cyclemono", help="cyclic monotonicity of sampled demand data")
    common(p)
    p.add_argument("--direction", choices=("demand", "inverse"), default="demand")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: each parse_args call returns a
    fresh namespace, so no state carries over between calls."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # The handler is looked up by name on each call rather than stored in
    # the cached parser, so a wrapper put on a cmd_* function later is seen.
    handler = globals()[f"cmd_{args.command}"]
    try:
        return handler(args)
    except _ParseFailure as exc:
        return _fail(str(exc), EXIT_PARSE)
    except UnsupportedDimension as exc:
        return _fail(str(exc), EXIT_DIMENSION)
    except InstanceTooLarge as exc:
        return _fail(str(exc), EXIT_CAP)
    except NonConservative as exc:
        cycle = " -> ".join(quoted(r) for r in exc.cycle) if exc.cycle else "?"
        return _fail(f"non-conservative: {exc} (cycle {cycle})", EXIT_FALSE)
    except ToolkitError as exc:
        return _fail(str(exc), EXIT_VALIDATION)


if __name__ == "__main__":
    sys.exit(main())
