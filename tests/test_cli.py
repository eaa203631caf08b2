import contextlib
import functools
import io
import json
import pathlib
import random
import re
import tempfile
import time
from fractions import Fraction

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tropical_demand import (
    NonConservative,
    cli,
    equilibrium,
    format_rational,
    integrate_subdivision,
    price_complex,
    serialize,
)
from tropical_demand.cli import build_parser

from facet_walk import independent_directions

F = Fraction

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCHEMAS = ROOT / "docs" / "schemas"

FIVE_BUNDLE = {
    "goods": 2,
    "entries": [
        {"bundle": [0, 0], "value": "0"},
        {"bundle": [2, 0], "value": "16"},
        {"bundle": [1, 1], "value": "24"},
        {"bundle": [0, 2], "value": "28"},
        {"bundle": [2, 2], "value": "34"},
    ],
}

ECONOMY = {
    "goods": 2,
    "endowment": [1, 1],
    "consumers": [
        {
            "goods": 2,
            "entries": [
                {"bundle": [0, 0], "value": "0"},
                {"bundle": [1, 0], "value": "30"},
                {"bundle": [0, 1], "value": "50"},
                {"bundle": [1, 1], "value": "60"},
            ],
        },
        {
            "goods": 2,
            "entries": [
                {"bundle": [0, 0], "value": "0"},
                {"bundle": [1, 0], "value": "10"},
                {"bundle": [0, 1], "value": "30"},
                {"bundle": [1, 1], "value": "70"},
            ],
        },
    ],
}


def write(tmp_path, name, payload) -> str:
    path = tmp_path / name
    if isinstance(payload, str):
        path.write_text(payload)
    else:
        path.write_text(json.dumps(payload))
    return str(path)


def validate(instance, schema_name):
    from referencing import Registry, Resource

    resources = []
    for path in SCHEMAS.glob("*.schema.json"):
        doc = json.loads(path.read_text())
        resources.append((path.name, Resource.from_contents(doc)))
    registry = Registry().with_resources(resources)
    schema = json.loads((SCHEMAS / schema_name).read_text())
    jsonschema.validators.validator_for(schema)(schema, registry=registry).validate(instance)


DEMAND_COMPLEX = json.loads((ROOT / "tests" / "golden" / "complex_demand.json").read_text())
PRICE_COMPLEX = json.loads((ROOT / "tests" / "golden" / "complex_price.json").read_text())
FULL_DIMENSIONAL = json.loads((ROOT / "tests" / "golden" / "dualize_full_dimensional.json").read_text())


def test_bundled_data_files_match_goldens():
    data = json.loads((ROOT / "data" / "five_bundle_valuation.json").read_text())
    assert data == FIVE_BUNDLE == DEMAND_COMPLEX[0]["valuation"] == PRICE_COMPLEX[0]["valuation"]
    assert data == FULL_DIMENSIONAL[0]["valuation"]
    econ = json.loads((ROOT / "data" / "no_equilibrium_economy.json").read_text())
    assert econ == ECONOMY


def test_bundled_data_files_match_their_schemas():
    data = json.loads((ROOT / "data" / "five_bundle_valuation.json").read_text())
    validate(data, "valuation.schema.json")
    econ = json.loads((ROOT / "data" / "no_equilibrium_economy.json").read_text())
    validate(econ, "economy.schema.json")


def test_dualize_golden(tmp_path):
    infile = write(tmp_path, "v.json", FIVE_BUNDLE)
    out = tmp_path / "dual.json"
    assert cli.main(["dualize", "--in", infile, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    validate(doc, "polyhedral_function.schema.json")
    assert doc["convention"] == "min"
    pieces = {(tuple(p["slope"]), p["intercept"]) for p in doc["pieces"]}
    assert pieces == {
        (("1", "9"), "14"),
        (("3", "7"), "14"),
        (("8", "16"), "0"),
        (("10", "14"), "0"),
    }
    slopes = [p["slope"] for p in doc["pieces"]]
    assert slopes == sorted(slopes, key=lambda s: [F(c) for c in s])
    assert doc["never_demanded"] == []
    # output parses back through its own reader
    serialize.function_from_dict(doc)


def test_dualize_three_goods_golden(tmp_path):
    # (1,0,0) lies below the chord from (0,0,0) to (2,0,0); the value 15/2
    # makes the lifted points rational.
    values = {
        (0, 0, 0): "0",
        (1, 0, 0): "1",
        (2, 0, 0): "9",
        (0, 1, 0): "4",
        (0, 0, 1): "3",
        (1, 1, 0): "8",
        (1, 0, 1): "15/2",
        (0, 1, 1): "6",
        (1, 1, 1): "10",
    }
    payload = {"goods": 3, "entries": [{"bundle": list(q), "value": u} for q, u in values.items()]}
    infile = write(tmp_path, "v.json", payload)
    out = tmp_path / "dual.json"
    assert cli.main(["dualize", "--in", infile, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    validate(doc, "polyhedral_function.schema.json")
    rows = [(h["normal"], h["offset"]) for h in doc["domain"]["halfspaces"]]
    assert rows == [
        (["-1", "0", "0"], "0"),
        (["0", "-1", "0"], "0"),
        (["0", "0", "-1"], "0"),
        (["0", "0", "1"], "1"),
        (["0", "1", "0"], "1"),
        (["1", "0", "1"], "2"),
        (["1", "1", "0"], "2"),
    ]
    pieces = [(p["slope"], p["intercept"]) for p in doc["pieces"]]
    assert pieces == [
        (["7/2", "5/2", "2"], "2"),
        (["4", "5/2", "2"], "3/2"),
        (["4", "3", "5/2"], "1"),
        (["9/2", "3", "2"], "1"),
        (["9/2", "4", "3"], "0"),
    ]
    assert doc["never_demanded"] == [[1, 0, 0]]


def test_dualize_single_bundle(tmp_path):
    infile = write(
        tmp_path, "v.json", {"goods": 2, "entries": [{"bundle": [0, 0], "value": "0"}]}
    )
    out = tmp_path / "dual.json"
    assert cli.main(["dualize", "--in", infile, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["pieces"]) == 1


def test_dualize_lower_dimensional_three_good_sets(tmp_path):
    # A point, four coplanar bundles and two collinear ones: the domain is
    # the equations of the affine hull plus the hull within it.
    for bundles in (
        [(0, 0, 0)],
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)],
        [(0, 0, 0), (1, 1, 1)],
    ):
        payload = {
            "goods": 3,
            "entries": [{"bundle": list(q), "value": str(i)} for i, q in enumerate(bundles)],
        }
        infile = write(tmp_path, "v.json", payload)
        out = tmp_path / "dual.json"
        assert cli.main(["dualize", "--in", infile, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        validate(doc, "polyhedral_function.schema.json")
        domain = serialize.function_from_dict(doc).domain
        assert all(domain.contains(q) for q in bundles)
        assert len(domain.halfspaces) == 6


LOWER_DIMENSIONAL = json.loads((ROOT / "tests" / "golden" / "dualize_lower_dimensional.json").read_text())


@pytest.mark.parametrize("case", LOWER_DIMENSIONAL, ids=lambda case: case["name"])
def test_dualize_lower_dimensional_golden_bytes(tmp_path, case):
    # The exact bytes of `dualize` on bundle sets that do not span the goods
    # space: a lone zero bundle in 1-3 goods, 1 good, collinear 2- and
    # 3-good sets, and coplanar 3-good sets, one with many bundles per facet
    # and one whose facets sort differently in bundle and plane coordinates.
    infile = write(tmp_path, "v.json", case["valuation"])
    out = tmp_path / "dual.json"
    assert cli.main(["dualize", "--in", infile, "--out", str(out)]) == 0
    assert out.read_bytes() == case["dualize"].encode()


@pytest.mark.parametrize("case", FULL_DIMENSIONAL, ids=lambda case: case["name"])
def test_dualize_full_dimensional_golden_bytes(tmp_path, case):
    # The exact bytes of `dualize` on bundle sets that span the goods space:
    # the bundled valuation, and one set each in 2 and 3 goods with a bundle
    # that no price demands.
    infile = write(tmp_path, "v.json", case["valuation"])
    out = tmp_path / "dual.json"
    assert cli.main(["dualize", "--in", infile, "--out", str(out)]) == 0
    assert out.read_bytes() == case["dualize"].encode()
    assert (json.loads(out.read_text())["never_demanded"] == []) == (case is FULL_DIMENSIONAL[0])


def test_dualize_builds_at_most_one_hull_and_reads_never_demanded_off_it(tmp_path, monkeypatch):
    from tropical_demand import polyhedra, valuation

    calls, kernels = [], []
    hull, kernel = valuation.upper_concave_hull, polyhedra._extreme_rays

    def counting_hull(points):
        calls.append(len(points))
        return hull(points)

    def counting_kernel(rows, dim):
        kernels.append(len(rows))
        return kernel(rows, dim)

    monkeypatch.setattr(valuation, "upper_concave_hull", counting_hull)
    monkeypatch.setattr(polyhedra, "_extreme_rays", counting_kernel)
    # Every valuation lifts the hull exactly once, and the double description
    # runs once, since the domain comes off the same lift: 1 good,
    # full-dimensional and collinear 2-good bundles, and 3 goods.
    cases = [
        (1, {(0,): 0, (1,): 1, (2,): 10, (3,): 12}, [[1]], [4]),
        (2, {(0, 0): 0, (2, 0): 16, (1, 1): 1, (0, 2): 28, (2, 2): 34}, [[1, 1]], [5]),
        (2, {(0, 0): 0, (1, 1): 1, (2, 2): 10, (3, 3): 12}, [[1, 1]], [4]),
        (3, {(0, 0, 0): 0, (2, 0, 0): 9, (0, 2, 0): 9, (2, 2, 2): 30, (1, 1, 1): 1}, [[1, 1, 1]], [5]),
    ]
    for goods, entries, never_demanded, hulls in cases:
        calls.clear()
        kernels.clear()
        payload = {
            "goods": goods,
            "entries": [{"bundle": list(q), "value": str(u)} for q, u in entries.items()],
        }
        infile = write(tmp_path, "v.json", payload)
        out = tmp_path / "dual.json"
        assert cli.main(["dualize", "--in", infile, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["never_demanded"] == never_demanded
        assert calls == hulls
        # One kernel call, on one row per bundle and the row s >= 0.
        assert kernels == [n + 1 for n in hulls]


def test_dualize_duplicate_bundle_is_validation_error(tmp_path, capsys):
    payload = {
        "goods": 2,
        "entries": [
            {"bundle": [0, 0], "value": "0"},
            {"bundle": [0, 0], "value": "3"},
        ],
    }
    infile = write(tmp_path, "v.json", payload)
    assert cli.main(["dualize", "--in", infile]) == cli.EXIT_VALIDATION
    assert "duplicate bundle" in capsys.readouterr().err


def test_malformed_json_is_parse_error(tmp_path, capsys):
    infile = write(tmp_path, "v.json", "{not json")
    assert cli.main(["dualize", "--in", infile]) == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


@pytest.mark.parametrize(
    "content",
    [
        # An integer literal over CPython's 4,300-digit limit: ValueError.
        ('{"goods": 2, "entries": [{"bundle": [0, 0], "value": "0"}, '
         '{"bundle": [' + "1" * 5000 + ', 0], "value": "1"}]}').encode(),
        # Nesting deeper than the decoder's recursion limit: RecursionError.
        b"[" * 100_000 + b"]" * 100_000,
        # A byte that is not UTF-8: UnicodeDecodeError.
        b"\xff",
    ],
    ids=["5000-digit-int", "deep-nesting", "non-utf8-byte"],
)
def test_undecodable_input_is_parse_error(tmp_path, capsys, content):
    infile = tmp_path / "v.json"
    infile.write_bytes(content)
    assert cli.main(["dualize", "--in", str(infile)]) == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith(f"error: parse error in {infile}: ") and err.count("\n") == 1


def test_error_messages_quote_a_bounded_prefix(tmp_path, capsys):
    # A message names an input value by its first characters and its
    # length, not by all of it: the 5,000-digit value string, which int()
    # refuses, used to give 5,049 bytes of stderr.
    entries = [*FIVE_BUNDLE["entries"][:-1], {"bundle": [2, 2], "value": "1" * 5000}]
    long_value = {**FIVE_BUNDLE, "entries": entries}
    # A 5,000-coordinate bundle of a 2-good valuation: 15,032 bytes before.
    entries = [*FIVE_BUNDLE["entries"], {"bundle": [1] * 5000, "value": "1"}]
    long_bundle = {**FIVE_BUNDLE, "entries": entries}
    infile, pc = write(tmp_path, "v.json", FIVE_BUNDLE), tmp_path / "pc.json"
    assert cli.main(["complex", "--in", infile, "--which", "price", "--out", str(pc)]) == 0
    long_id = json.loads(pc.read_text())
    next(c for c in long_id["cells"] if c["dim"] == 1)["incident"][0] = 10**4000  # names no cell
    # Inconsistent constants of 4,000 digits: 4,089 bytes of stderr before.
    far = str(10**4000 - 1)
    # Of about 8,000 digits, over the int-to-string limit: a traceback before.
    for command, doc, code in (
        ("dualize", long_value, cli.EXIT_VALIDATION),
        ("dualize", long_bundle, cli.EXIT_VALIDATION),
        ("balance", long_id, cli.EXIT_VALIDATION),
        ("integrate", _two_facet_subdivision(far), cli.EXIT_FALSE),
        ("integrate", _two_facet_subdivision(far, label=far), cli.EXIT_FALSE),
    ):
        capsys.readouterr()
        assert cli.main([command, "--in", write(tmp_path, "in.json", doc)]) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err) < 200 and "characters)" in err


def test_complex_price_golden(tmp_path):
    infile = write(tmp_path, "v.json", FIVE_BUNDLE)
    out = tmp_path / "pc.json"
    svg = tmp_path / "pc.svg"
    assert cli.main(["complex", "--in", infile, "--which", "price", "--out", str(out), "--svg", str(svg)]) == 0
    doc = json.loads(out.read_text())
    validate(doc, "subdivision.schema.json")
    cells = doc["cells"]
    assert [c["id"] for c in cells] == sorted(c["id"] for c in cells)
    dims = [c["dim"] for c in cells]
    assert dims.count(2) == 5 and dims.count(0) == 4 and dims.count(1) == 8
    rays = [c for c in cells if c["dim"] == 1 and c["rays"]]
    segments = [c for c in cells if c["dim"] == 1 and not c["rays"]]
    assert len(rays) == 4 and len(segments) == 4
    text = svg.read_text()
    assert text.startswith("<svg") and "steelblue" in text
    serialize.subdivision_from_dict(doc)


@pytest.mark.parametrize("case", PRICE_COMPLEX, ids=lambda case: case["name"])
def test_complex_price_golden_bytes(tmp_path, case):
    # The exact bytes of `complex --which price --svg` on the bundled
    # valuation, on collinear bundles (full lines between strips and
    # half-planes), on one bundle (the whole plane) and on two.
    infile = write(tmp_path, "v.json", case["valuation"])
    out, svg = tmp_path / "pc.json", tmp_path / "pc.svg"
    argv = ["complex", "--in", infile, "--which", "price", "--out", str(out), "--svg", str(svg)]
    assert cli.main(argv) == 0
    assert out.read_bytes() == case["complex"].encode()
    assert svg.read_bytes() == case["svg"].encode()


def test_complex_demand_golden(tmp_path):
    infile = write(tmp_path, "v.json", FIVE_BUNDLE)
    out = tmp_path / "dc.json"
    assert cli.main(["complex", "--in", infile, "--which", "demand", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    dims = [c["dim"] for c in doc["cells"]]
    assert dims.count(2) == 4 and dims.count(0) == 5


@pytest.mark.parametrize("case", DEMAND_COMPLEX, ids=lambda case: case["name"])
def test_complex_demand_golden_bytes(tmp_path, case):
    # The exact bytes of `complex --which demand` on the bundled valuation
    # and on a square whose bundle (1,1) lies in the middle of a hull edge,
    # where the domain lists the bundle hull's rows, not the region labels'.
    # Its SVG is segments only: a demand complex has no rays to clip.
    infile = write(tmp_path, "v.json", case["valuation"])
    out, svg = tmp_path / "dc.json", tmp_path / "dc.svg"
    argv = ["complex", "--in", infile, "--which", "demand", "--out", str(out), "--svg", str(svg)]
    assert cli.main(argv) == 0
    assert out.read_bytes() == case["complex"].encode()
    assert svg.read_bytes() == case["svg"].encode()


def test_complex_three_goods_unsupported(tmp_path, capsys):
    payload = {
        "goods": 3,
        "entries": [
            {"bundle": [0, 0, 0], "value": "0"},
            {"bundle": [1, 0, 0], "value": "5"},
        ],
    }
    infile = write(tmp_path, "v.json", payload)
    assert cli.main(["complex", "--in", infile, "--which", "price"]) == cli.EXIT_DIMENSION


def test_balance_golden_and_tampered(tmp_path):
    infile = write(tmp_path, "v.json", FIVE_BUNDLE)
    out = tmp_path / "dc.json"
    cli.main(["complex", "--in", infile, "--which", "demand", "--out", str(out)])
    report = tmp_path / "bal.json"
    assert cli.main(["balance", "--in", str(out), "--out", str(report)]) == 0
    doc = json.loads(report.read_text())
    validate(doc, "balance_report.schema.json")
    assert doc["balanced"] is True
    golden = ROOT / "tests" / "golden"
    assert report.read_bytes() == (golden / "balance_demand_five_bundles.json").read_bytes()

    tampered = json.loads(out.read_text())
    for cell in tampered["cells"]:
        if cell.get("weight") == "2":
            cell["weight"] = "3"
            break
    bad = write(tmp_path, "bad.json", tampered)
    report2 = tmp_path / "bal2.json"
    assert cli.main(["balance", "--in", bad, "--out", str(report2)]) == 1
    doc2 = json.loads(report2.read_text())
    assert doc2["balanced"] is False
    residuals = [c["residual"] for c in doc2["checked"] if not c["balanced"]]
    assert residuals
    assert report2.read_bytes() == (golden / "balance_tampered_demand.json").read_bytes()


# Values with denominators 2 and 3: the demand complex's labels and the
# price complex's vertices are rational, and so are the constants.
RATIONAL_VALUES = {
    "goods": 2,
    "entries": [
        {"bundle": [0, 0], "value": "0"},
        {"bundle": [2, 0], "value": "1"},
        {"bundle": [0, 3], "value": "1/2"},
        {"bundle": [1, 1], "value": "4/3"},
        {"bundle": [2, 3], "value": "5/2"},
    ],
}


ANCHOR_THIRD = ["--anchor-value", "1/3"]
BALANCE_INTEGRATE_GOLDENS = [
    ("balance", "price", FIVE_BUNDLE, [], "balance_price_five_bundles.json"),
    ("balance", "demand", FIVE_BUNDLE, [], "balance_demand_five_bundles.json"),
    ("balance", "price", RATIONAL_VALUES, [], "balance_price_rational.json"),
    ("balance", "demand", RATIONAL_VALUES, [], "balance_demand_rational.json"),
    ("integrate", "price", FIVE_BUNDLE, [], "integrate_price_five_bundles.json"),
    ("integrate", "demand", FIVE_BUNDLE, [], "integrate_demand_five_bundles.json"),
    ("integrate", "price", RATIONAL_VALUES, ANCHOR_THIRD, "integrate_price_rational.json"),
    ("integrate", "demand", RATIONAL_VALUES, ANCHOR_THIRD, "integrate_demand_rational.json"),
]


@pytest.mark.parametrize(
    "command, which, valuation, extra, golden",
    BALANCE_INTEGRATE_GOLDENS,
    ids=[golden.removesuffix(".json") for *_, golden in BALANCE_INTEGRATE_GOLDENS],
)
def test_balance_and_integrate_golden_bytes(tmp_path, command, which, valuation, extra, golden):
    # The exact bytes of `balance` and `integrate` on both complexes of the
    # bundled valuation and of one with rational values.
    infile = write(tmp_path, "v.json", valuation)
    complex_ = tmp_path / "c.json"
    assert cli.main(["complex", "--in", infile, "--which", which, "--out", str(complex_)]) == 0
    out = tmp_path / "out.json"
    assert cli.main([command, "--in", str(complex_), "--out", str(out), *extra]) == 0
    assert out.read_bytes() == (ROOT / "tests" / "golden" / golden).read_bytes()


def test_balance_structurally_invalid(tmp_path, capsys):
    payload = {
        "ambient_dim": 2,
        "convention": "max",
        "domain": {"dim": 2, "halfspaces": []},
        "cells": [
            {"id": 0, "dim": 1, "points": [["0", "0"], ["1", "0"]], "rays": [], "incident": [99]}
        ],
    }
    infile = write(tmp_path, "s.json", payload)
    assert cli.main(["balance", "--in", infile]) == cli.EXIT_VALIDATION


ONE_GOOD = {
    "goods": 1,
    "entries": [{"bundle": [0], "value": "0"}, {"bundle": [1], "value": "5"}],
}


def price_complex_doc(tmp_path, payload) -> dict:
    infile = write(tmp_path, "v.json", payload)
    out = tmp_path / "pc.json"
    assert cli.main(["complex", "--in", infile, "--which", "price", "--out", str(out)]) == 0
    return json.loads(out.read_text())


@pytest.mark.parametrize("field", ["points", "rays", "incident"])
def test_balance_non_array_cell_field_is_validation_error(tmp_path, capsys, field):
    doc = price_complex_doc(tmp_path, FIVE_BUNDLE)
    doc["cells"][-1][field] = 5
    assert cli.main(["balance", "--in", write(tmp_path, "bad.json", doc)]) == cli.EXIT_VALIDATION
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("field", ["id", "dim", "from_region", "to_region"])
def test_balance_boolean_cell_integer_is_validation_error(tmp_path, field):
    # Two bundles: one edge between regions 1 and 2, so true would pass for
    # id 1 wherever the field holds 1.
    two = {
        "goods": 2,
        "entries": [{"bundle": [0, 0], "value": "0"}, {"bundle": [1, 0], "value": "1"}],
    }
    doc = price_complex_doc(tmp_path, two)
    edge, first, second = doc["cells"]
    if field == "from_region":
        # The same subdivision with the two regions' ids swapped.
        edge["from_region"], edge["to_region"] = edge["to_region"], edge["from_region"]
        first["id"], second["id"] = second["id"], first["id"]
    cell = first if field == "id" else edge
    assert cell[field] == 1
    assert cli.main(["balance", "--in", write(tmp_path, "ok.json", doc)]) == 0
    cell[field] = True
    assert cli.main(["balance", "--in", write(tmp_path, "bad.json", doc)]) == cli.EXIT_VALIDATION


def test_boolean_goods_is_validation_error(tmp_path):
    assert cli.main(["dualize", "--in", write(tmp_path, "v.json", ONE_GOOD)]) == 0
    infile = write(tmp_path, "v.json", {**ONE_GOOD, "goods": True})
    assert cli.main(["dualize", "--in", infile]) == cli.EXIT_VALIDATION
    economy = {"goods": 1, "endowment": [1], "consumers": [ONE_GOOD]}
    assert cli.main(["equilibrium", "--in", write(tmp_path, "e.json", economy)]) == 0
    infile = write(tmp_path, "e.json", {**economy, "goods": True})
    assert cli.main(["equilibrium", "--in", infile]) == cli.EXIT_VALIDATION


def test_integrate_malformed_domain_is_validation_error(tmp_path):
    doc = price_complex_doc(tmp_path, FIVE_BUNDLE)
    doc["domain"]["halfspaces"] = [{"normal": ["1", "0"], "offset": "100"}]
    assert cli.main(["integrate", "--in", write(tmp_path, "ok.json", doc)]) == 0
    # A boolean dim, and a normal whose length is not dim.
    doc["domain"]["dim"] = True
    assert cli.main(["integrate", "--in", write(tmp_path, "bad.json", doc)]) == cli.EXIT_VALIDATION
    doc["domain"]["dim"] = 2
    doc["domain"]["halfspaces"][0]["normal"].append("0")
    assert cli.main(["integrate", "--in", write(tmp_path, "bad.json", doc)]) == cli.EXIT_VALIDATION


def _first(doc, dim):
    return next(cell for cell in doc["cells"] if cell["dim"] == dim)


def _facet(doc):
    return next(cell for cell in doc["cells"] if "normal" in cell)


def _segment(doc):
    return next(cell for cell in doc["cells"] if cell["dim"] == 1 and len(cell["points"]) == 2)


MALFORMED_SUBDIVISIONS = {
    # Crashed with an IndexError before the parser checked cell shapes.
    "edge without points or rays": lambda doc: _first(doc, 1).update(points=[], rays=[]),
    "vertex without points": lambda doc: _first(doc, 0).update(points=[]),
    # Accepted before.
    "3-D domain": lambda doc: doc["domain"].update(dim=3),
    "3-coordinate facet normal": lambda doc: _facet(doc)["normal"].append(0),
    "float ambient_dim": lambda doc: doc.update(ambient_dim=2.0),
    "vertex with two points": lambda doc: _first(doc, 0)["points"].append(["9", "9"]),
    "vertex with a ray": lambda doc: _first(doc, 0)["rays"].append([1, 0]),
    "segment with a ray": lambda doc: _segment(doc)["rays"].append([1, 0]),
    "ray without its point": lambda doc: _first(doc, 1).update(points=[], rays=[[1, 0]]),
    "3-coordinate point": lambda doc: _first(doc, 0)["points"][0].append("0"),
    "3-coordinate ray": lambda doc: _first(doc, 2)["rays"][0].append(0),
    "3-coordinate label": lambda doc: _first(doc, 2)["label"].append("0"),
    # Degenerate facet data: accepted before, and `balance` then gave a
    # verdict (exit 1) while `integrate` exited 0.
    "zero rays": lambda doc: [cell.update(rays=[[0, 0]] * len(cell["rays"])) for cell in doc["cells"]],
    "zero facet normal": lambda doc: _facet(doc).update(normal=[0, 0]),
    "negative facet weight": lambda doc: _facet(doc).update(weight="-1"),
    "zero facet weight": lambda doc: _facet(doc).update(weight="0"),
    # Accepted before, with both commands exiting 0.
    "vertex outside the domain": lambda doc: doc["domain"].update(
        halfspaces=[{"normal": ["1", "0"], "offset": "-100"}]
    ),
    "ray without its vertex": lambda doc: _first(doc, 1).update(incident=[]),
}


@pytest.mark.parametrize("command", ["balance", "integrate"])
@pytest.mark.parametrize("case", sorted(MALFORMED_SUBDIVISIONS))
def test_malformed_subdivision_is_validation_error(tmp_path, capsys, command, case):
    doc = price_complex_doc(tmp_path, FIVE_BUNDLE)
    assert cli.main([command, "--in", write(tmp_path, "ok.json", doc)]) == 0
    MALFORMED_SUBDIVISIONS[case](doc)
    assert cli.main([command, "--in", write(tmp_path, "bad.json", doc)]) == cli.EXIT_VALIDATION
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["balance", "integrate"])
def test_vertices_are_tested_against_the_domain_exactly(tmp_path, command):
    # One vertex, (1/2, 1/3), where all three bundles tie.  The rows
    # x/3 <= 1/6 and y/2 <= 1/6 hold there with equality; moving either
    # row in by 1/300 puts the vertex outside.
    three = {
        "goods": 2,
        "entries": [
            {"bundle": [0, 0], "value": "0"},
            {"bundle": [2, 0], "value": "1"},
            {"bundle": [0, 3], "value": "1"},
        ],
    }
    doc = price_complex_doc(tmp_path, three)
    assert [c["points"] for c in doc["cells"] if c["dim"] == 0] == [[["1/2", "1/3"]]]
    for offsets, code in ((("1/6", "1/6"), 0), (("49/300", "1/6"), 3), (("1/6", "49/300"), 3)):
        doc["domain"]["halfspaces"] = [
            {"normal": ["1/3", "0"], "offset": offsets[0]},
            {"normal": ["0", "1/2"], "offset": offsets[1]},
        ]
        assert cli.main([command, "--in", write(tmp_path, "d.json", doc)]) == code


@pytest.mark.parametrize("command", ["balance", "integrate"])
def test_edge_whose_vertices_are_not_its_endpoints_is_validation_error(tmp_path, capsys, command):
    # Segment 8 runs from vertex 0 to vertex 1.  With vertex 2 in place of
    # vertex 1, `balance` answered balanced: false (exit 1) and `integrate`
    # exited 0.
    doc = price_complex_doc(tmp_path, FIVE_BUNDLE)
    edge = next(cell for cell in doc["cells"] if cell["id"] == 8)
    assert edge["incident"] == [0, 1]
    edge["incident"] = [0, 2]
    assert cli.main([command, "--in", write(tmp_path, "bad.json", doc)]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == "error: edge 8: its incident vertices are not its endpoints\n"


def _two_facet_subdivision(far: str = "1", label: str = "1") -> dict:
    """Regions 6, labeled (0, 0), and 7, labeled (label, 0), on both sides
    of two vertical facets of weight label, at x = 0 and at x = far.  Each
    label difference is normal to both facets, but crossing at x = 0 keeps
    the constant and crossing at x = far raises it by far * label."""
    vertices = [["0", "0"], ["0", "1"], [far, "0"], [far, "1"]]
    cells = [
        {"id": i, "dim": 0, "points": [p], "rays": [], "incident": []}
        for i, p in enumerate(vertices)
    ]
    for edge_id, ends in ((4, [0, 1]), (5, [2, 3])):
        cells.append({
            "id": edge_id, "dim": 1, "points": [vertices[i] for i in ends], "rays": [],
            "incident": ends, "weight": label, "normal": [1, 0], "from_region": 7, "to_region": 6,
        })
    for region_id, region_label in ((6, ["0", "0"]), (7, [label, "0"])):
        cells.append({
            "id": region_id, "dim": 2, "points": [vertices[i] for i in (0, 2, 3, 1)], "rays": [],
            "incident": [4, 5], "label": region_label,
        })
    domain = {"dim": 2, "halfspaces": []}
    return {"ambient_dim": 2, "convention": "max", "domain": domain, "cells": cells}


def test_integrate_inconsistent_constants_name_a_region_cycle(tmp_path, capsys):
    doc = _two_facet_subdivision()
    s = serialize.subdivision_from_dict(doc)
    with pytest.raises(NonConservative) as info:
        integrate_subdivision(s, (6, F(0)))
    cycle = info.value.cycle
    assert len(cycle) >= 3 and cycle[0] == cycle[-1] and set(cycle) == {6, 7}
    assert cli.main(["integrate", "--in", write(tmp_path, "d.json", doc)]) == cli.EXIT_FALSE
    assert "cycle" in capsys.readouterr().err


def test_integrate_disconnected_regions_is_validation_error(tmp_path, capsys):
    # The same two regions with no facet between them.
    doc = _two_facet_subdivision()
    for cell in doc["cells"]:
        for key in ("weight", "normal", "from_region", "to_region"):
            cell.pop(key, None)
    assert cli.main(["integrate", "--in", write(tmp_path, "d.json", doc)]) == cli.EXIT_VALIDATION
    assert "disconnected" in capsys.readouterr().err
    # An unreached region id of 4,001 digits is named by its first
    # characters: 4,063 bytes of stderr before.
    for cell in doc["cells"]:
        if cell["id"] == 7:
            cell["id"] = 10**4000
    assert cli.main(["integrate", "--in", write(tmp_path, "d.json", doc)]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == (
        "error: region adjacency graph is disconnected "
        f"(unreached: [{str(10**4000)[:39]}... (4003 characters))\n"
    )


def test_integrate_golden(tmp_path):
    infile = write(tmp_path, "v.json", FIVE_BUNDLE)
    pc = tmp_path / "pc.json"
    cli.main(["complex", "--in", infile, "--which", "price", "--out", str(pc)])
    out = tmp_path / "pot.json"
    assert cli.main(["integrate", "--in", str(pc), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    validate(doc, "polyhedral_function.schema.json")
    pieces = {(tuple(p["slope"]), p["intercept"]) for p in doc["pieces"]}
    assert pieces == {
        (("0", "0"), "0"),
        (("-2", "0"), "16"),
        (("-1", "-1"), "24"),
        (("0", "-2"), "28"),
        (("-2", "-2"), "34"),
    }


def test_integrate_tampered_complex(tmp_path, capsys):
    infile = write(tmp_path, "v.json", FIVE_BUNDLE)
    pc = tmp_path / "pc.json"
    cli.main(["complex", "--in", infile, "--which", "price", "--out", str(pc)])
    doc = json.loads(pc.read_text())
    for cell in doc["cells"]:
        if cell["dim"] == 2 and cell["label"] == ["1", "1"]:
            cell["label"] = ["3", "0"]
    bad = write(tmp_path, "bad.json", doc)
    assert cli.main(["integrate", "--in", bad]) == 1
    err = capsys.readouterr().err
    assert "non-conservative" in err and "cycle" in err


def test_integrate_one_region(tmp_path):
    infile = write(
        tmp_path, "v.json", {"goods": 2, "entries": [{"bundle": [0, 0], "value": "0"}]}
    )
    pc = tmp_path / "pc.json"
    cli.main(["complex", "--in", infile, "--which", "price", "--out", str(pc)])
    out = tmp_path / "pot.json"
    assert cli.main(["integrate", "--in", str(pc), "--out", str(out), "--anchor-value", "5"]) == 0
    doc = json.loads(out.read_text())
    assert doc["pieces"] == [{"slope": ["0", "0"], "intercept": "5"}]


def test_equilibrium_writes_rationals_past_the_digit_limit(tmp_path):
    # 4,300 digits is the most the interpreter reads or writes by default;
    # both consumers' values fit, but their sum, the least aggregate
    # indirect utility, has 4,301 digits.  Writing it raised ValueError,
    # a traceback with exit 1.
    big = "9" * 4300
    consumer = {
        "goods": 2,
        "entries": [{"bundle": [0, 0], "value": "0"}, {"bundle": [1, 0], "value": big}],
    }
    economy = {"goods": 2, "endowment": [2, 0], "consumers": [consumer, consumer]}
    infile, out = write(tmp_path, "e.json", economy), tmp_path / "report.json"
    assert cli.main(["equilibrium", "--in", infile, "--out", str(out)]) == 0
    # 2 * (10^4300 - 1), as text.
    twice = "1" + "9" * 4299 + "8"
    text = out.read_text()
    assert f'"min_value": "{twice}"' in text and f'"max_value": "{twice}"' in text


def test_equilibrium_with_a_4299_digit_denominator_runs_within_a_second(tmp_path):
    # The bundled economy with the first consumer's u(1, 0) = 1/d, d of
    # 4,299 digits, the most the reader accepts.  Only the LP's cost row
    # carries d, so the call stays within a wall bound of 1 s (a few ms on
    # a 2-vCPU host); the epigraph LP's integer tableau, where every row
    # carried d, took about 4.5 s there.
    d = "7" * 4299
    economy = json.loads(json.dumps(ECONOMY))
    economy["consumers"][0]["entries"][1]["value"] = "1/" + d
    infile, out = write(tmp_path, "e.json", economy), tmp_path / "report.json"
    start = time.perf_counter()
    assert cli.main(["equilibrium", "--in", infile, "--out", str(out)]) == cli.EXIT_OK
    assert time.perf_counter() - start < 1.0
    # The second consumer takes (1, 1) at every p with 1/d <= p_1 <= 40,
    # 50 <= p_2 <= 60 and 60 <= p_1 + p_2 <= 70; the least is (1/d, 60 - 1/d).
    doc = json.loads(out.read_text())
    eps = Fraction(1, int(d))
    assert doc["argmin_prices"] == [format_rational(eps), format_rational(60 - eps)]
    assert doc["min_value"] == doc["max_value"] == "70" and doc["price_unique"] is False


def test_equilibrium_golden(tmp_path):
    infile = write(tmp_path, "e.json", ECONOMY)
    out = tmp_path / "report.json"
    assert cli.main(["equilibrium", "--in", infile, "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    validate(doc, "equilibrium_report.schema.json")
    assert doc["gap"] == "5"
    assert doc["exists"] is False
    assert doc["argmin_prices"] == ["25", "45"]
    assert doc["price_unique"] is True
    assert doc["demand_sets_at_argmin"] == [
        {"bundles": [[0, 1], [1, 0]], "surplus": "5"},
        {"bundles": [[0, 0], [1, 1]], "surplus": "0"},
    ]


# Values over the denominators 3, 7 and 11, one per consumer; the optimal
# prices are not unique, the gap is zero and two allocations attain the
# maximum, so the report holds a certificate with rational receipts.
THREE_CONSUMERS = {
    "goods": 2,
    "endowment": [2, 1],
    "consumers": [
        {
            "goods": 2,
            "entries": [
                {"bundle": [0, 0], "value": "0"},
                {"bundle": [1, 0], "value": "41/3"},
                {"bundle": [1, 1], "value": "25/3"},
                {"bundle": [2, 1], "value": "44/3"},
            ],
        },
        {
            "goods": 2,
            "entries": [
                {"bundle": [0, 0], "value": "0"},
                {"bundle": [0, 1], "value": "116/7"},
                {"bundle": [1, 1], "value": "116/7"},
                {"bundle": [2, 2], "value": "116/7"},
            ],
        },
        {
            "goods": 2,
            "entries": [
                {"bundle": [0, 0], "value": "0"},
                {"bundle": [0, 1], "value": "178/11"},
                {"bundle": [1, 1], "value": "9/11"},
                {"bundle": [2, 1], "value": "153/11"},
            ],
        },
    ],
}


# One good, u(1) = 3, endowment 1: every price in [0, 3] is optimal, and
# the report gives the least, 0.
NON_UNIQUE = {
    "goods": 1,
    "endowment": [1],
    "consumers": [
        {"goods": 1, "entries": [{"bundle": [0], "value": "0"}, {"bundle": [1], "value": "3"}]}
    ],
}


@pytest.mark.parametrize(
    "economy, golden, code",
    [
        (ECONOMY, "equilibrium_no_equilibrium_economy.json", cli.EXIT_FALSE),
        (THREE_CONSUMERS, "equilibrium_three_consumers.json", cli.EXIT_OK),
        (NON_UNIQUE, "equilibrium_non_unique.json", cli.EXIT_OK),
    ],
    ids=["no-equilibrium", "three-consumers", "non-unique"],
)
def test_equilibrium_golden_bytes(tmp_path, economy, golden, code):
    # The exact bytes of `equilibrium` on the bundled economy, which has no
    # equilibrium, on THREE_CONSUMERS and on NON_UNIQUE.
    infile = write(tmp_path, "e.json", economy)
    out = tmp_path / "report.json"
    assert cli.main(["equilibrium", "--in", infile, "--out", str(out)]) == code
    assert out.read_bytes() == (ROOT / "tests" / "golden" / golden).read_bytes()


def test_equilibrium_single_consumer_exists(tmp_path):
    economy = {"goods": 2, "endowment": [2, 2], "consumers": [FIVE_BUNDLE]}
    infile = write(tmp_path, "e.json", economy)
    out = tmp_path / "report.json"
    assert cli.main(["equilibrium", "--in", infile, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["exists"] is True and doc["gap"] == "0"
    assert doc["certificate"]["status"] == "found"


def test_equilibrium_oversized(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(equilibrium, "MAX_ALLOCATIONS", 3)
    infile = write(tmp_path, "e.json", ECONOMY)
    assert cli.main(["equilibrium", "--in", infile]) == cli.EXIT_CAP


def test_equilibrium_oversized_names_stage_and_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(equilibrium, "MAX_ALLOCATIONS", 3)
    infile = write(tmp_path, "e.json", ECONOMY)
    assert cli.main(["equilibrium", "--in", infile]) == cli.EXIT_CAP
    err = capsys.readouterr().err
    assert "allocation enumeration: 16 allocations exceed the cap of 3; prune supports" in err


def test_equilibrium_has_no_cap_option(tmp_path, capsys):
    # The allocation cap is the constant equilibrium.MAX_ALLOCATIONS.
    infile = write(tmp_path, "e.json", ECONOMY)
    with pytest.raises(SystemExit) as exc:
        cli.main(["equilibrium", "--in", infile, "--cap", "3"])
    assert exc.value.code == 2
    assert "--cap" in capsys.readouterr().err


def test_equilibrium_ignores_an_ownership_key(tmp_path):
    # Quasi-linear utility: an endowment split moves only transfers, so the
    # parser reads no split, well-formed or not.
    reports = []
    for ownership in (None, [[1, 1], [0, 0]], "not a split"):
        economy = ECONOMY if ownership is None else {**ECONOMY, "ownership": ownership}
        out = tmp_path / "report.json"
        assert cli.main(["equilibrium", "--in", write(tmp_path, "e.json", economy),
                         "--out", str(out)]) == 1
        reports.append(out.read_bytes())
    assert reports[1] == reports[0] and reports[2] == reports[0]


def test_dualize_over_bundle_cap(tmp_path, capsys):
    bundles = [(i, j) for i in range(9) for j in range(9)][:65]
    payload = {
        "goods": 2,
        "entries": [{"bundle": list(q), "value": str(i)} for i, q in enumerate(bundles)],
    }
    infile = write(tmp_path, "v.json", payload)
    assert cli.main(["dualize", "--in", infile]) == cli.EXIT_CAP
    assert "upper concave hull: 65 bundles exceed the cap of 64" in capsys.readouterr().err


def test_dualize_three_goods_at_the_bundle_cap(tmp_path):
    # 64 seeded bundles in [0,6]^3, exactly the cap, checked against a
    # certificate that enumerates nothing: each piece majorizes every
    # bundle and is tight on 4 affinely independent ones (a vertex of the
    # epigraph), and a bundle's min over the pieces is its value exactly
    # when it is demanded somewhere.
    rng = random.Random(64)
    bundles = {(0, 0, 0)}
    while len(bundles) < 64:
        bundles.add(tuple(rng.randint(0, 6) for _ in range(3)))
    entries = {q: F(rng.randint(0, 60), rng.choice([1, 2, 3])) for q in sorted(bundles)}
    payload = {
        "goods": 3,
        "entries": [{"bundle": list(q), "value": str(u)} for q, u in entries.items()],
    }
    infile = write(tmp_path, "v.json", payload)
    out = tmp_path / "dual.json"
    assert cli.main(["dualize", "--in", infile, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    pieces = serialize.function_from_dict(doc).pieces
    never = {tuple(q) for q in doc["never_demanded"]}
    assert pieces
    for p in pieces:
        tight = [q for q, u in entries.items() if p.evaluate(q) == u]
        assert all(p.evaluate(q) >= u for q, u in entries.items())
        assert len(independent_directions(tight)) == 3
    for q, u in entries.items():
        assert (min(p.evaluate(q) for p in pieces) == u) == (q not in never)


def test_distinct_1000_digit_denominators_run_within_a_wall_bound(tmp_path):
    # The whole [0,7]^2 grid, 64 bundles (the cap): a strictly concave
    # quadratic plus a seeded fraction in [0, 4), each nonzero value over
    # its own 1,000-digit denominator.  The dual has 86 pieces and 7
    # bundles are never demanded.  Each lift row carries its own
    # denominator, so each of the three commands stays within a wall bound
    # of 5 s: run as a subprocess on a 2-vCPU host, each took 0.56-0.68 s,
    # and 36 s when one lcm of all 63 denominators scaled every height.
    # Both complexes then read back: `balance` finds them balanced and
    # `integrate` recovers the price complex's potential, although their
    # longest integers run to 4,000 digits.
    rng = random.Random(1000)
    entries = {(0, 0): F(0)}
    for q in [(i, j) for i in range(8) for j in range(8)][1:]:
        d = rng.randrange(10**999, 10**1000)
        i, j = q
        entries[q] = 50 * (i + j) - 2 * (i * i + j * j) + F(rng.randrange(4 * d), d)
    assert len({u.denominator for u in entries.values()}) == 64
    payload = {
        "goods": 2,
        "entries": [{"bundle": list(q), "value": str(u)} for q, u in entries.items()],
    }
    infile = write(tmp_path, "v.json", payload)
    for command in (["dualize"], ["complex", "--which", "price"], ["complex", "--which", "demand"]):
        out = tmp_path / f"{command[-1]}.json"
        start = time.perf_counter()
        assert cli.main([*command, "--in", infile, "--out", str(out)]) == cli.EXIT_OK
        assert time.perf_counter() - start < 5.0, command
    # The dual majorizes u, with equality exactly off never_demanded.
    doc = json.loads((tmp_path / "dualize.json").read_text())
    pieces = serialize.function_from_dict(doc).pieces
    never = {tuple(q) for q in doc["never_demanded"]}
    assert (len(pieces), len(never)) == (86, 7)
    for q, u in entries.items():
        envelope = min(p.evaluate(q) for p in pieces)
        assert envelope >= u and (envelope == u) == (q not in never)
    for which in ("price", "demand"):
        complex_file = str(tmp_path / f"{which}.json")
        out = tmp_path / f"balance_{which}.json"
        assert cli.main(["balance", "--in", complex_file, "--out", str(out)]) == cli.EXIT_OK
        assert json.loads(out.read_text())["balanced"] is True
        out = tmp_path / f"integrate_{which}.json"
        assert cli.main(["integrate", "--in", complex_file, "--out", str(out)]) == cli.EXIT_OK
    # The price complex's default anchor is the region of (0,0), at
    # value 0 = u(0,0), so its potential is the indirect utility: the piece
    # -q.p + u(q) of each demanded bundle q.
    doc = json.loads((tmp_path / "integrate_price.json").read_text())
    potential = {
        (tuple(-c for c in p.slope), p.intercept)
        for p in serialize.function_from_dict(doc).pieces
    }
    assert potential == {(q, u) for q, u in entries.items() if q not in never}


def test_complex_price_over_bundle_cap(tmp_path, capsys):
    # 65 of the 81 lattice points of [0,8]^2: one past the 64-bundle cap.
    bundles = [(i, j) for i in range(9) for j in range(9)][:65]
    payload = {
        "goods": 2,
        "entries": [{"bundle": list(q), "value": str(i)} for i, q in enumerate(bundles)],
    }
    infile = write(tmp_path, "v.json", payload)
    assert cli.main(["complex", "--in", infile, "--which", "price"]) == cli.EXIT_CAP
    err = capsys.readouterr().err
    assert "price complex" in err and "64" in err


def test_complex_demand_over_bundle_cap(tmp_path, capsys):
    # The demand complex shares the hull's cap and refuses under its own
    # name, before anything is lifted.
    bundles = [(i, j) for i in range(9) for j in range(9)][:65]
    payload = {
        "goods": 2,
        "entries": [{"bundle": list(q), "value": str(i)} for i, q in enumerate(bundles)],
    }
    infile = write(tmp_path, "v.json", payload)
    assert cli.main(["complex", "--in", infile, "--which", "demand"]) == cli.EXIT_CAP
    assert "demand complex: 65 bundles exceed the cap of 64" in capsys.readouterr().err


def test_complex_svg_lines_lie_in_the_viewbox(tmp_path):
    # The collinear valuation's price complex is two full lines, x = 50 and
    # x = 100; the viewport must contain them as well as every 0-cell.
    collinear = {
        "goods": 2,
        "entries": [
            {"bundle": [0, 0], "value": "0"},
            {"bundle": [1, 0], "value": "100"},
            {"bundle": [2, 0], "value": "150"},
        ],
    }
    for payload, which in ((FIVE_BUNDLE, "price"), (FIVE_BUNDLE, "demand"), (collinear, "price")):
        infile = write(tmp_path, "v.json", payload)
        svg = tmp_path / "c.svg"
        args = ["complex", "--in", infile, "--which", which, "--out", str(tmp_path / "c.json")]
        assert cli.main([*args, "--svg", str(svg)]) == 0
        text = svg.read_text()
        width, height = map(float, re.search(r'viewBox="0 0 (\S+) (\S+)"', text).groups())
        lines = re.findall(r'<line x1="(\S+)" y1="(\S+)" x2="(\S+)" y2="(\S+)"', text)
        assert lines
        for x1, y1, x2, y2 in lines:
            for x, y in ((x1, y1), (x2, y2)):
                assert 0 <= float(x) <= width and 0 <= float(y) <= height


def test_cyclemono_golden(tmp_path):
    from tropical_demand import demand
    from tropical_demand.valuation import Valuation

    v = Valuation(
        goods=2,
        entries={
            tuple(e["bundle"]): F(e["value"]) for e in FIVE_BUNDLE["entries"]
        },
    )
    pairs = []
    for p in [(0, 0), (8, 16), (9, 15), (30, 30), (3, 7)]:
        q = sorted(demand(v, (F(p[0]), F(p[1]))).bundles)[0]
        pairs.append({"p": [str(p[0]), str(p[1])], "q": [str(q[0]), str(q[1])]})
    infile = write(tmp_path, "s.json", {"pairs": pairs})
    out = tmp_path / "verdict.json"
    assert cli.main(["cyclemono", "--in", infile, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    validate(doc, "cyclemono_report.schema.json")
    assert doc["cyclically_monotone"] is True and doc["witness_cycle"] is None


def test_cyclemono_increasing_data(tmp_path):
    payload = {"pairs": [{"p": ["0"], "q": ["0"]}, {"p": ["1"], "q": ["1"]}]}
    infile = write(tmp_path, "s.json", payload)
    out = tmp_path / "verdict.json"
    assert cli.main(["cyclemono", "--in", infile, "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert doc["cyclically_monotone"] is False
    assert sorted(doc["witness_cycle"]) == [0, 1]


def test_cyclemono_single_sample(tmp_path):
    infile = write(tmp_path, "s.json", {"pairs": [{"p": ["1"], "q": ["2"]}]})
    assert cli.main(["cyclemono", "--in", infile]) == 0


def test_cyclemono_accepts_bare_pair_list(tmp_path):
    payload = [{"p": ["0"], "q": ["0"]}, {"p": ["1"], "q": ["1"]}]
    validate(payload, "correspondence_sample.schema.json")
    infile = write(tmp_path, "s.json", payload)
    assert cli.main(["cyclemono", "--in", infile]) == 1


# Violating samples whose witnesses are longer than two pairs, with the
# witness order each direction reports.  The three integer pairs violate no
# 2-cycle inequality, only the 3-cycle ones; the seven rational pairs have
# denominators 2, 3 and 97.
CYCLEMONO_GOLDENS = [
    (
        [(("5", "2"), ("3", "1")), (("8", "0"), ("3", "3")), (("5", "6"), ("0", "1"))],
        {"demand": [0, 2, 1], "inverse": [0, 1, 2]},
    ),
    (
        [
            (("19/3", "154/97"), ("197/97", "0")),
            (("9/2", "0"), ("1", "2")),
            (("5/3", "55/97"), ("286/97", "167/97")),
            (("8", "729/97"), ("0", "3")),
            (("556/97", "8/97"), ("1", "3")),
            (("402/97", "9"), ("0", "1")),
            (("2", "9"), ("99/97", "4/3")),
        ],
        {"demand": [0, 6, 5, 3], "inverse": [1, 4, 3, 5]},
    ),
]


def test_cyclemono_witness_goldens(tmp_path):
    for pairs, witnesses in CYCLEMONO_GOLDENS:
        payload = {"pairs": [{"p": list(p), "q": list(q)} for p, q in pairs]}
        infile = write(tmp_path, "s.json", payload)
        for direction, witness in witnesses.items():
            out = tmp_path / f"{direction}.json"
            args = ["cyclemono", "--in", infile, "--out", str(out), "--direction", direction]
            assert cli.main(args) == 1
            assert json.loads(out.read_text()) == {
                "cyclically_monotone": False,
                "direction": direction,
                "witness_cycle": witness,
            }


def test_cyclemono_over_pair_cap(tmp_path, capsys):
    from tropical_demand.potential import MAX_SAMPLE_PAIRS

    n = MAX_SAMPLE_PAIRS + 1
    payload = {"pairs": [{"p": [str(i)], "q": [str(i)]} for i in range(n)]}
    infile = write(tmp_path, "s.json", payload)
    assert cli.main(["cyclemono", "--in", infile]) == cli.EXIT_CAP
    err = capsys.readouterr().err
    assert f"cyclic monotonicity: {n} pairs exceed the cap of {MAX_SAMPLE_PAIRS}" in err


THREE_GOODS = {
    "goods": 3,
    "entries": [{"bundle": [0, 0, 0], "value": "0"}, {"bundle": [1, 0, 0], "value": "5"}],
}
LONE_VERTEX = {
    "ambient_dim": 2,
    "convention": "min",
    "domain": {"dim": 2, "halfspaces": []},
    "cells": [{"id": 0, "dim": 0, "points": [["0", "0"]], "rays": [], "incident": []}],
}


@functools.cache
def _five_bundle_price_complex() -> str:
    return json.dumps(serialize.subdivision_to_dict(price_complex(serialize.valuation_from_dict(FIVE_BUNDLE))))


def _edited_price_complex(edit):
    """The five-bundle price complex, with ``edit`` applied to it by id."""

    def build() -> dict:
        doc = json.loads(_five_bundle_price_complex())
        cells = {cell["id"]: cell for cell in doc["cells"]}
        edit(cells)
        return doc

    return build


def _swap_labels(cells):
    cells[12]["label"], cells[13]["label"] = cells[13]["label"], cells[12]["label"]


_UNKNOWN_REGION = _edited_price_complex(lambda cells: cells[4].update(from_region=999))


def _with_values(*values) -> dict:
    """The five-bundle valuation with its first entries' values replaced."""
    entries = [{**entry, "value": value} for entry, value in zip(FIVE_BUNDLE["entries"], values)]
    return {**FIVE_BUNDLE, "entries": entries + FIVE_BUNDLE["entries"][len(values):]}


# Reachable errors of each command that no other test pins: its arguments,
# its input (None: no file; a callable: built per call), its exit code and
# its whole stderr line.  ``cli.main`` alone maps each error to its code.
CLI_ERRORS = {
    "complex-demand-3-goods": (
        ["complex", "--which", "demand"], THREE_GOODS, 4, "demand complexes are built in 2-D only"
    ),
    "missing-input": (
        ["dualize"], None, 3, "cannot read {path}: [Errno 2] No such file or directory: '{path}'"
    ),
    "integrate-lone-vertex": (["integrate"], LONE_VERTEX, 3, "subdivision has no regions"),
    "balance-unknown-facet-region": (
        ["balance"], _UNKNOWN_REGION, 3, "edge 4: facet regions do not exist"
    ),
    "integrate-unknown-facet-region": (
        ["integrate"], _UNKNOWN_REGION, 3, "edge 4: facet regions do not exist"
    ),
    "cyclemono-mixed-dimensions": (
        ["cyclemono"],
        {"pairs": [{"p": ["1", "2"], "q": ["1", "0"]}, {"p": ["1", "2", "3"], "q": ["1", "0", "0"]}]},
        3,
        "inconsistent sample dimensions",
    ),
    # Prices and bundles of different lengths are refused, one pair included.
    **{
        f"cyclemono-one-pair-length-mismatch-{direction}": (
            ["cyclemono", "--direction", direction],
            {"pairs": [{"p": ["1", "2"], "q": ["1", "0", "0"]}]},
            3,
            f"dimension mismatch: {line}",
        )
        for direction, line in (("demand", "3 vs 2"), ("inverse", "2 vs 3"))
    },
    "dualize-no-goods": (
        ["dualize"], {"goods": 0, "entries": [{"bundle": [], "value": "0"}]}, 3, "need at least one good"
    ),
    "dualize-no-entries": (["dualize"], {"goods": 2, "entries": []}, 3, "valuation has no bundles"),
    "dualize-3-coordinate-bundle": (
        ["dualize"],
        {"goods": 2, "entries": [{"bundle": [0, 0], "value": "0"}, {"bundle": [1, 0, 0], "value": "1"}]},
        3,
        "bundle (1, 0, 0) has wrong length",
    ),
    "equilibrium-3-good-consumer": (
        ["equilibrium"],
        {**ECONOMY, "consumers": [ECONOMY["consumers"][0], THREE_GOODS]},
        3,
        "consumer dimension mismatch",
    ),
    "equilibrium-negative-endowment": (
        ["equilibrium"], {**ECONOMY, "endowment": [-1, 1]}, 3,
        "endowment must be a nonnegative lattice vector",
    ),
    "equilibrium-short-endowment": (
        ["equilibrium"], {**ECONOMY, "endowment": [1]}, 3,
        "endowment must be a nonnegative lattice vector",
    ),
    "integrate-swapped-labels": (
        ["integrate"],
        _edited_price_complex(_swap_labels),
        1,
        "non-conservative: label difference across edge 5 is not normal to it (cycle 16 -> 13 -> 16)",
    ),
    # The reader parses each distinct value string once per document: a
    # bool is never looked up as the int it equals, and a failed parse is
    # never remembered.
    "dualize-int-then-bool-value": (
        ["dualize"], _with_values(1, True), 3, "valuation entry value: not a rational: True"
    ),
    "dualize-zero-denominator-twice": (
        ["dualize"], _with_values("1/0", "1/0"), 3,
        "valuation entry value: zero denominator in '1/0'",
    ),
    # A value string is read as the schemas' pattern -?[0-9]+(/[1-9][0-9]*)?
    # and nothing more.
    **{
        f"dualize-value-{name}": (
            ["dualize"], _with_values(text), 3, f"valuation entry value: not a rational: {text!r}"
        )
        for name, text in (
            ("underscore", "1_000"),
            ("plus-sign", "+5"),
            ("spaces", " 7 "),
            ("space-after-slash", "1/ 2"),
            ("negative-denominator", "1/-2"),
            ("zero-led-denominator", "1/05"),
            ("arabic-indic-digit", "\u0663"),
        )
    },
}


@pytest.mark.parametrize("case", sorted(CLI_ERRORS))
def test_cli_errors_exit_with_their_code_and_line(tmp_path, capsys, case):
    argv, doc, code, line = CLI_ERRORS[case]
    if callable(doc):
        doc = doc()
    infile = str(tmp_path / "missing.json") if doc is None else write(tmp_path, "in.json", doc)
    assert cli.main([*argv, "--in", infile]) == code
    assert capsys.readouterr() == ("", f"error: {line.format(path=infile)}\n")


TWO_PAIRS = {"pairs": [{"p": ["1", "2"], "q": ["3", "1"]}, {"p": ["2", "1/2"], "q": ["1", "3"]}]}


@functools.cache
def _fuzz_bases() -> dict:
    """A valid input per command line: the command's arguments and its document."""
    price = json.loads(_five_bundle_price_complex())
    return {
        "dualize": (["dualize"], FIVE_BUNDLE),
        "complex-price": (["complex", "--which", "price"], FIVE_BUNDLE),
        "complex-demand": (["complex", "--which", "demand"], FIVE_BUNDLE),
        "balance": (["balance"], price),
        "integrate": (["integrate"], price),
        "equilibrium": (["equilibrium"], ECONOMY),
        "cyclemono": (["cyclemono", "--direction", "inverse"], TWO_PAIRS),
    }


def _json_paths(doc, prefix=()):
    """The path of every value in a JSON document, the root's first."""
    yield prefix
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _json_paths(value, (*prefix, key))


_DELETE = object()
# Wrong types, empty containers, numbers at the reader's digit limit, deep
# but decodable nesting, and values that are valid elsewhere in a document.
_FUZZ_VALUES = st.one_of(
    st.sampled_from([
        None, True, False, "", "x", "1/0", 1.5, -1, 0, 1, 2, 3, 999, {}, [], [[]], [0], [0, 0, 0],
        ["0", "0"], int("9" * 4300), "9" * 4300, "-1/" + "7" * 4299, json.loads("[" * 200 + "]" * 200),
        _DELETE,
    ]),
    st.integers(-5, 20),
)


def _mutated(doc, path, value):
    """A copy of ``doc`` with the value at ``path`` replaced, or deleted."""
    if not path:
        return None if value is _DELETE else value
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    parent = functools.reduce(lambda node, key: node[key], parents, doc)
    if value is _DELETE:
        del parent[last]
    else:
        parent[last] = value
    return doc


@st.composite
def fuzzed_calls(draw):
    argv, doc = _fuzz_bases()[draw(st.sampled_from(sorted(_fuzz_bases())))]
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_json_paths(doc))))
        doc = _mutated(doc, path, draw(_FUZZ_VALUES))
    return argv, doc


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fuzzed_calls())
def test_every_mutated_input_exits_with_a_documented_code(call):
    # A traceback would exit 1, the code of a false verdict: every input
    # must end in one of the documented codes instead, and every code from
    # 2 up with one error line.
    argv, doc = call
    with tempfile.TemporaryDirectory() as tmp:
        infile = pathlib.Path(tmp) / "in.json"
        infile.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([*argv, "--in", str(infile)])
    assert code in range(6)
    if code >= 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def test_main_builds_the_parser_once_and_keeps_no_state(tmp_path, monkeypatch):
    # Two different subcommands back to back, then an option given once and
    # omitted the next time: each call sees only its own arguments.
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    monkeypatch.setattr(cli, "_parser", functools.cache(cli._parser.__wrapped__))
    valuation = write(tmp_path, "v.json", FIVE_BUNDLE)
    economy = write(tmp_path, "e.json", ECONOMY)
    svg = tmp_path / "c.svg"
    assert cli.main(["complex", "--in", valuation, "--which", "price", "--svg", str(svg),
                     "--out", str(tmp_path / "c.json")]) == 0
    assert svg.stat().st_size > 0
    svg.unlink()
    # A handler rebound after the parser was built is the one that runs.
    handled = []
    dualize = cli.cmd_dualize
    monkeypatch.setattr(cli, "cmd_dualize", lambda args: handled.append(1) or dualize(args))
    assert cli.main(["dualize", "--in", valuation, "--out", str(tmp_path / "d.json")]) == 0
    cap = equilibrium.MAX_ALLOCATIONS
    monkeypatch.setattr(equilibrium, "MAX_ALLOCATIONS", 3)
    assert cli.main(["equilibrium", "--in", economy]) == cli.EXIT_CAP
    monkeypatch.setattr(equilibrium, "MAX_ALLOCATIONS", cap)
    assert cli.main(["equilibrium", "--in", economy, "--out", str(tmp_path / "r.json")]) == 1
    assert cli.main(["complex", "--in", valuation, "--which", "price",
                     "--out", str(tmp_path / "c2.json")]) == 0
    assert built == [1] and handled == [1]
    assert json.loads((tmp_path / "r.json").read_text())["gap"] == "5"
    assert json.loads((tmp_path / "d.json").read_text())["pieces"]
    assert (tmp_path / "c.json").read_bytes() == (tmp_path / "c2.json").read_bytes()
    assert not svg.exists()


def test_byte_determinism(tmp_path):
    infile = write(tmp_path, "v.json", FIVE_BUNDLE)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    sa, sb = tmp_path / "a.svg", tmp_path / "b.svg"
    cli.main(["complex", "--in", infile, "--which", "price", "--out", str(a), "--svg", str(sa)])
    cli.main(["complex", "--in", infile, "--which", "price", "--out", str(b), "--svg", str(sb)])
    assert a.read_bytes() == b.read_bytes()
    assert sa.read_bytes() == sb.read_bytes()


def test_valuation_json_roundtrip():
    # the writer canonicalizes entry order; a second pass is a fixpoint
    v = serialize.valuation_from_dict(FIVE_BUNDLE)
    out = serialize.valuation_to_dict(v)
    assert sorted(out["entries"], key=str) == sorted(FIVE_BUNDLE["entries"], key=str)
    assert serialize.valuation_to_dict(serialize.valuation_from_dict(out)) == out
    e = serialize.economy_from_dict(ECONOMY)
    out_e = serialize.economy_to_dict(e)
    assert serialize.economy_to_dict(serialize.economy_from_dict(out_e)) == out_e


def test_subdivision_json_roundtrip(tmp_path):
    infile = write(tmp_path, "v.json", FIVE_BUNDLE)
    out = tmp_path / "pc.json"
    cli.main(["complex", "--in", infile, "--which", "price", "--out", str(out)])
    doc = json.loads(out.read_text())
    s = serialize.subdivision_from_dict(doc)
    assert serialize.subdivision_to_dict(s) == doc
