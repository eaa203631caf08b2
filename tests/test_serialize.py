import contextlib
import gc
import io
import json
import pathlib
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tropical_demand import cli, duality_test, serialize

ROOT = pathlib.Path(__file__).resolve().parents[1]

_DUMPS = serialize.dumps


def _oracle(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# Quotes, backslashes, control characters, non-ASCII and a lone surrogate,
# each of which the format writes as an escape.
_TEXT = st.one_of(
    st.sampled_from(['"', "\\", "\x00", "\n", "\t", "\x1f", "\x7f", "é", "☃", "\U0001F600", "\ud800"]),
    st.text(st.characters(min_codepoint=0, max_codepoint=0x10FFFF, blacklist_categories=())),
)
_INTS = st.one_of(st.integers(), st.sampled_from([10**3999, -(10**3999), 0, -1]))
_SCALARS = st.one_of(st.none(), st.booleans(), _INTS, _TEXT)
_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(_TEXT, children, max_size=5),
        # The arrays the writer joins in one call, and their near misses:
        # bools next to ints, a str next to ints, nested leaf arrays.
        st.lists(st.one_of(st.booleans(), _INTS), max_size=5),
        st.lists(_TEXT, max_size=5),
        st.lists(st.one_of(_INTS, _TEXT), max_size=5),
        st.lists(st.lists(_TEXT, max_size=3), max_size=3),
    ),
    max_leaves=30,
)


@settings(max_examples=500, deadline=None)
@given(_VALUES)
def test_dumps_matches_the_stdlib(value):
    assert serialize.dumps(value) == _oracle(value)


def test_dumps_refuses_what_the_writers_never_produce():
    for value in (1.5, {1: "x"}, {"a": [float("nan")]}, {"a"}):
        with pytest.raises(TypeError):
            serialize.dumps(value)


_RATIONALS = st.builds(
    lambda n, d: f"{n}/{d}" if d != 1 else str(n), st.integers(-60, 60), st.sampled_from([1, 1, 2, 3, 7])
)
_BUNDLES = st.tuples(st.integers(0, 3), st.integers(0, 3))


@st.composite
def _valuations(draw) -> dict:
    bundles = {(0, 0), *draw(st.lists(_BUNDLES, min_size=1, max_size=8))}
    entries = [{"bundle": list(q), "value": draw(_RATIONALS)} for q in sorted(bundles)]
    return {"goods": 2, "entries": entries}


@st.composite
def _command_inputs(draw) -> dict:
    valuation = draw(_valuations())
    economy = {
        "goods": 2,
        "endowment": list(draw(_BUNDLES)),
        "consumers": [valuation, *draw(st.lists(_valuations(), max_size=1))],
    }
    pairs = draw(st.lists(st.tuples(_BUNDLES, _BUNDLES), min_size=1, max_size=6))
    sample = {
        "pairs": [{"p": [str(c) for c in p], "q": [str(c) for c in q]} for p, q in pairs]
    }
    return {"valuation": valuation, "economy": economy, "sample": sample}


def _emitted(inputs: dict) -> list:
    """Every object the six commands hand to ``dumps`` on these documents,
    read by name in place of a file; balance and integrate read the price
    complex the complex command wrote."""
    seen, docs = [], dict(inputs)
    with mock.patch.object(
        serialize, "dumps", side_effect=lambda obj: seen.append(obj) or _DUMPS(obj)
    ), mock.patch.object(cli, "_read_json", side_effect=docs.__getitem__), contextlib.redirect_stdout(
        io.StringIO()
    ), contextlib.redirect_stderr(io.StringIO()):
        for argv in (
            ["dualize", "--in", "valuation"],
            ["complex", "--which", "demand", "--in", "valuation"],
            ["complex", "--which", "price", "--in", "valuation"],
            ["balance", "--in", "price"],
            ["integrate", "--in", "price"],
            ["equilibrium", "--in", "economy"],
            ["cyclemono", "--in", "sample"],
            ["cyclemono", "--direction", "inverse", "--in", "sample"],
        ):
            code = cli.main(argv)
            if argv[:3] == ["complex", "--which", "price"] and code == 0:
                docs["price"] = seen[-1]
    return seen


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_command_inputs())
def test_every_document_the_commands_emit_matches_the_stdlib(inputs):
    emitted = _emitted(inputs)
    # The price complex, its balance report, its potential and both
    # verdicts on the sample always come out; the other commands may stop
    # on an input they refuse.
    assert len(emitted) >= 5
    for obj in emitted:
        assert _DUMPS(obj) == _oracle(obj)


def test_dumps_leaves_no_reference_cycle():
    # The stdlib encoder with an indent leaves a cycle of 33 objects per
    # call, which only the cyclic collector frees.
    economy = json.loads((ROOT / "data" / "no_equilibrium_economy.json").read_text())
    report = serialize.equilibrium_report_to_dict(duality_test(serialize.economy_from_dict(economy)))
    gc.collect()
    gc.disable()
    try:
        serialize.dumps(report)
        assert gc.collect() == 0
    finally:
        gc.enable()
