import functools
import json
import pathlib
import re
from fractions import Fraction

import jsonschema

from tropical_demand import cli, serialize
from tropical_demand.cli import build_parser

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
    "ownership": [[1, 1], [0, 0]],
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


def test_bundled_data_files_match_goldens():
    data = json.loads((ROOT / "data" / "five_bundle_valuation.json").read_text())
    assert data == FIVE_BUNDLE
    econ = json.loads((ROOT / "data" / "no_equilibrium_economy.json").read_text())
    assert econ == ECONOMY


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


def test_dualize_builds_at_most_one_hull_and_reads_never_demanded_off_it(tmp_path, monkeypatch):
    from tropical_demand import valuation

    calls = []
    hull = valuation.upper_concave_hull

    def counting_hull(points):
        calls.append(len(points))
        return hull(points)

    monkeypatch.setattr(valuation, "upper_concave_hull", counting_hull)
    cases = [
        # Full-dimensional 2-good bundles: the dual comes off the price
        # complex, and no hull is lifted.
        (2, {(0, 0): 0, (2, 0): 16, (1, 1): 1, (0, 2): 28, (2, 2): 34}, [[1, 1]], []),
        # Collinear 2-good bundles and 3 goods lift the hull once.
        (2, {(0, 0): 0, (1, 1): 1, (2, 2): 10, (3, 3): 12}, [[1, 1]], [4]),
        (3, {(0, 0, 0): 0, (2, 0, 0): 9, (0, 2, 0): 9, (2, 2, 2): 30, (1, 1, 1): 1}, [[1, 1, 1]], [5]),
    ]
    for goods, entries, never_demanded, hulls in cases:
        calls.clear()
        payload = {
            "goods": goods,
            "entries": [{"bundle": list(q), "value": str(u)} for q, u in entries.items()],
        }
        infile = write(tmp_path, "v.json", payload)
        out = tmp_path / "dual.json"
        assert cli.main(["dualize", "--in", infile, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["never_demanded"] == never_demanded
        assert calls == hulls


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


def test_complex_demand_golden(tmp_path):
    infile = write(tmp_path, "v.json", FIVE_BUNDLE)
    out = tmp_path / "dc.json"
    assert cli.main(["complex", "--in", infile, "--which", "demand", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    dims = [c["dim"] for c in doc["cells"]]
    assert dims.count(2) == 4 and dims.count(0) == 5


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


def test_equilibrium_single_consumer_exists(tmp_path):
    economy = {"goods": 2, "endowment": [2, 2], "consumers": [FIVE_BUNDLE]}
    infile = write(tmp_path, "e.json", economy)
    out = tmp_path / "report.json"
    assert cli.main(["equilibrium", "--in", infile, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["exists"] is True and doc["gap"] == "0"
    assert doc["certificate"]["status"] == "found"


def test_equilibrium_oversized(tmp_path, capsys):
    infile = write(tmp_path, "e.json", ECONOMY)
    assert cli.main(["equilibrium", "--in", infile, "--cap", "3"]) == cli.EXIT_CAP


def test_equilibrium_oversized_names_stage_and_cap(tmp_path, capsys):
    infile = write(tmp_path, "e.json", ECONOMY)
    assert cli.main(["equilibrium", "--in", infile, "--cap", "3"]) == cli.EXIT_CAP
    err = capsys.readouterr().err
    assert "allocation enumeration: 16 allocations exceed the cap of 3" in err


def test_equilibrium_cap_below_one_is_validation_error(tmp_path, capsys):
    infile = write(tmp_path, "e.json", ECONOMY)
    for cap in ("0", "-1"):
        assert cli.main(["equilibrium", "--in", infile, "--cap", cap]) == cli.EXIT_VALIDATION
        assert f"cap must be at least 1, got {cap}" in capsys.readouterr().err


def test_dualize_over_bundle_cap(tmp_path, capsys):
    bundles = [(i, j) for i in range(9) for j in range(9)][:65]
    payload = {
        "goods": 2,
        "entries": [{"bundle": list(q), "value": str(i)} for i, q in enumerate(bundles)],
    }
    infile = write(tmp_path, "v.json", payload)
    assert cli.main(["dualize", "--in", infile]) == cli.EXIT_CAP
    assert "upper concave hull: 65 bundles exceed the cap of 64" in capsys.readouterr().err


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
    # The demand complex is the dual of the price complex, so the price
    # complex's cap refuses it.
    bundles = [(i, j) for i in range(9) for j in range(9)][:65]
    payload = {
        "goods": 2,
        "entries": [{"bundle": list(q), "value": str(i)} for i, q in enumerate(bundles)],
    }
    infile = write(tmp_path, "v.json", payload)
    assert cli.main(["complex", "--in", infile, "--which", "demand"]) == cli.EXIT_CAP
    assert "price complex: 65 bundles exceed the cap of 64" in capsys.readouterr().err


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
    assert cli.main(["equilibrium", "--in", economy, "--cap", "3"]) == cli.EXIT_CAP
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
