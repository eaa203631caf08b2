"""JSON wire formats.

Rationals travel as strings ("num/den", or "num" when the denominator is
1); bundles and primitive normals as integer arrays.  Every writer sorts
its content, and ``dumps`` alone owns the text format: two-space indent,
keys sorted, quotes, backslashes and control characters escaped, every
non-ASCII character as a ``\\u`` escape, and a trailing newline, byte for
byte what ``json.dumps(obj, indent=2, sort_keys=True) + "\\n"`` writes, so
identical inputs produce byte-identical output.  Valuations, economies,
functions and subdivisions round-trip through their own parsers (a domain
through its function's); correspondence samples are input-only and
reports output-only.  The schemas in docs/schemas/ describe the formats.

Each public reader parses each distinct rational string of its document
once: the ``str -> Fraction`` memo lives in one top-level ``*_from_dict``
call and is handed down to the private readers, so no state outlives the
call and the readers stay safe to call from several threads.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .complexes import (
    BalanceReport,
    Cell,
    FacetData,
    LabeledSubdivision,
    finite_endpoints,
)
from .equilibrium import Economy, EquilibriumReport
from .errors import DegenerateInput, ValidationError, quoted
from .exactmath import IVec, Vec, format_rational, is_int, rational, scaled_ints
from .polyhedra import AffinePiece, HPolyhedron, HalfSpace
from .potential import CorrespondenceSample
from .valuation import PolyhedralFunction, Valuation


def dumps(obj: Any) -> str:
    """``obj`` as the package's JSON text, ``json.dumps(obj, indent=2,
    sort_keys=True) + "\\n"`` byte for byte, for documents of dicts with
    str keys, lists, tuples, strs, ints, bools and None: the types the
    writers produce, since every rational travels as a string.  A dict,
    list or tuple subclass, a float or any other type raises TypeError."""
    out: list[str] = []
    _write(obj, "\n", out)
    out.append("\n")
    return "".join(out)


_quote = json.encoder.encode_basestring_ascii


def _write(value, newline: str, out: list[str]) -> None:
    """Append the text of ``value`` to ``out``; ``newline`` is a newline
    and the indent of the line ``value`` starts on.  A nonempty array of
    only strs or only ints is joined in one call, and a str or int member
    of an object is written with its key; the stdlib encoder with an
    indent walks every element through its generators instead."""
    kind = type(value)
    if kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        first = type(value[0])
        if first is str and all(type(x) is str for x in value):
            out.append(f"[{inner}{(',' + inner).join(map(_quote, value))}{newline}]")
        elif first is int and all(type(x) is int for x in value):
            out.append(f"[{inner}{(',' + inner).join(map(int.__repr__, value))}{newline}]")
        else:
            separator = "[" + inner
            for item in value:
                out.append(separator)
                _write(item, inner, out)
                separator = "," + inner
            out.append(newline + "]")
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key in sorted(value):
            item = value[key]
            item_kind = type(item)
            if item_kind is str:
                out.append(f"{separator}{_quote(key)}: {_quote(item)}")
            elif item_kind is int:
                out.append(f"{separator}{_quote(key)}: {int.__repr__(item)}")
            else:
                out.append(f"{separator}{_quote(key)}: ")
                _write(item, inner, out)
            separator = "," + inner
        out.append(newline + "}")
    elif isinstance(value, str):
        out.append(_quote(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _vec_out(v) -> list[str]:
    # format_rational reads only .numerator and .denominator, which an int
    # coordinate has too.
    return [format_rational(c) for c in v]


def _vec_in(data, context: str, memo: dict[str, Fraction], length: int | None = None) -> Vec:
    if not isinstance(data, list):
        raise ValidationError(f"{context}: expected an array")
    if length is not None and len(data) != length:
        raise ValidationError(f"{context}: expected {length} coordinates")
    return tuple([_rational_in(c, context, memo) for c in data])


def _rational_in(x, context: str, memo: dict[str, Fraction]) -> Fraction:
    """``rational(x)``, looked up in ``memo`` when ``x`` is a string.  Only
    strings are keys, since ``True == 1`` hashes equal, and a value that
    fails to parse is never stored."""
    if isinstance(x, str):
        value = memo.get(x)
        if value is not None:
            return value
    try:
        value = rational(x)
    except DegenerateInput as exc:
        raise ValidationError(f"{context}: {exc}") from exc
    if isinstance(x, str):
        memo[x] = value
    return value


def _ivec_in(data, context: str, length: int | None = None) -> IVec:
    if not isinstance(data, list) or not all(is_int(c) for c in data):
        raise ValidationError(f"{context}: expected an integer array")
    if length is not None and len(data) != length:
        raise ValidationError(f"{context}: expected {length} coordinates")
    return tuple(data)


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise ValidationError(message)


# ---------------------------------------------------------------------------
# valuations and economies
# ---------------------------------------------------------------------------


def valuation_to_dict(v: Valuation) -> dict:
    return {
        "goods": v.goods,
        "entries": [
            {"bundle": list(q), "value": format_rational(u)}
            for q, u in sorted(v.entries.items())
        ],
    }


def valuation_from_dict(data) -> Valuation:
    return _valuation(data, {})


def _valuation(data, memo: dict[str, Fraction]) -> Valuation:
    _expect(isinstance(data, dict), "valuation: expected an object")
    _expect(is_int(data.get("goods")), "valuation: 'goods' must be an integer")
    entries_raw = data.get("entries")
    _expect(isinstance(entries_raw, list), "valuation: 'entries' must be an array")
    entries: dict[IVec, Fraction] = {}
    for item in entries_raw:
        _expect(isinstance(item, dict), "valuation entry: expected an object")
        bundle = _ivec_in(item.get("bundle"), "valuation entry bundle")
        if bundle in entries:
            raise ValidationError(f"duplicate bundle {quoted(list(bundle))}")
        entries[bundle] = _rational_in(item.get("value"), "valuation entry value", memo)
    return Valuation(goods=data["goods"], entries=entries)


def economy_to_dict(e: Economy) -> dict:
    return {
        "goods": e.goods,
        "endowment": list(e.endowment),
        "consumers": [valuation_to_dict(v) for v in e.consumers],
    }


def economy_from_dict(data) -> Economy:
    _expect(isinstance(data, dict), "economy: expected an object")
    _expect(is_int(data.get("goods")), "economy: 'goods' must be an integer")
    endowment = _ivec_in(data.get("endowment"), "economy endowment")
    consumers_raw = data.get("consumers")
    _expect(isinstance(consumers_raw, list) and consumers_raw, "economy: 'consumers' must be a nonempty array")
    memo: dict[str, Fraction] = {}
    consumers = tuple(_valuation(c, memo) for c in consumers_raw)
    return Economy(goods=data["goods"], consumers=consumers, endowment=endowment)


# ---------------------------------------------------------------------------
# polyhedral functions
# ---------------------------------------------------------------------------


def domain_to_dict(domain: HPolyhedron) -> dict:
    return {
        "dim": domain.dim,
        "halfspaces": [
            {"normal": _vec_out(h.normal), "offset": format_rational(h.offset)}
            for h in domain.halfspaces
        ],
    }


def _domain(data, memo: dict[str, Fraction]) -> HPolyhedron:
    _expect(isinstance(data, dict), "domain: expected an object")
    _expect(is_int(data.get("dim")), "domain: 'dim' must be an integer")
    raw = data.get("halfspaces")
    _expect(isinstance(raw, list), "domain: 'halfspaces' must be an array")
    halfspaces = []
    for item in raw:
        _expect(isinstance(item, dict), "halfspace: expected an object")
        normal = _vec_in(item.get("normal"), "halfspace normal", memo, data["dim"])
        offset = _rational_in(item.get("offset"), "halfspace offset", memo)
        halfspaces.append(HalfSpace(normal=normal, offset=offset))
    return HPolyhedron(dim=data["dim"], halfspaces=tuple(halfspaces))


def _int_row(h: HalfSpace) -> tuple[IVec, int, int]:
    """A half-space as the int row (normal, num, den) of normal . x <= num/den:
    the normal times the lcm L of its denominators, and the offset times L."""
    scale, (normal,) = scaled_ints([h.normal])
    return normal, h.offset.numerator * scale, h.offset.denominator


def function_to_dict(f: PolyhedralFunction, never_demanded: list[IVec] | None = None) -> dict:
    out = {
        "convention": f.convention,
        "pieces": [
            {"slope": _vec_out(p.slope), "intercept": format_rational(p.intercept)}
            for p in sorted(f.pieces, key=lambda p: (p.slope, p.intercept))
        ],
        "domain": domain_to_dict(f.domain),
    }
    if never_demanded is not None:
        out["never_demanded"] = [list(q) for q in sorted(never_demanded)]
    return out


def function_from_dict(data) -> PolyhedralFunction:
    _expect(isinstance(data, dict), "function: expected an object")
    convention = data.get("convention")
    _expect(convention in ("max", "min"), "function: convention must be 'max' or 'min'")
    raw = data.get("pieces")
    _expect(isinstance(raw, list) and raw, "function: 'pieces' must be a nonempty array")
    memo: dict[str, Fraction] = {}
    pieces = []
    for item in raw:
        _expect(isinstance(item, dict), "piece: expected an object")
        slope = _vec_in(item.get("slope"), "piece slope", memo)
        intercept = _rational_in(item.get("intercept"), "piece intercept", memo)
        pieces.append(AffinePiece(slope=slope, intercept=intercept))
    domain = _domain(data.get("domain"), memo)
    return PolyhedralFunction(convention=convention, pieces=tuple(pieces), domain=domain)


# ---------------------------------------------------------------------------
# subdivisions
# ---------------------------------------------------------------------------


def subdivision_to_dict(s: LabeledSubdivision) -> dict:
    cells = []
    for cell_id in sorted(s.cells):
        cell = s.cells[cell_id]
        entry: dict[str, Any] = {
            "id": cell_id,
            "dim": cell.dim,
            "points": [_vec_out(p) for p in cell.points],
            "rays": [list(r) for r in cell.rays],
            "incident": list(cell.incident),
        }
        if cell.dim == 2:
            entry["label"] = _vec_out(s.region_labels[cell_id])
        if cell_id in s.facet_data:
            fd = s.facet_data[cell_id]
            entry["weight"] = format_rational(fd.weight)
            entry["normal"] = list(fd.normal)
            entry["from_region"] = fd.from_region
            entry["to_region"] = fd.to_region
        cells.append(entry)
    return {
        "ambient_dim": 2,
        "convention": s.convention,
        "domain": domain_to_dict(s.domain),
        "cells": cells,
    }


# The (points, rays) counts of the vertices and edges that complexes
# assemble: a vertex is one point; an edge a segment, a ray or a line
# through an anchor point.
_CELL_SHAPES = {0: {(1, 0)}, 1: {(2, 0), (1, 1), (1, 2)}}


def subdivision_from_dict(data) -> LabeledSubdivision:
    _expect(isinstance(data, dict), "subdivision: expected an object")
    ambient_dim = data.get("ambient_dim")
    _expect(is_int(ambient_dim) and ambient_dim == 2, "subdivision: ambient_dim must be 2")
    convention = data.get("convention")
    _expect(convention in ("max", "min"), "subdivision: convention must be 'max' or 'min'")
    memo: dict[str, Fraction] = {}
    domain = _domain(data.get("domain"), memo)
    _expect(domain.dim == 2, "subdivision: the domain's 'dim' must be 2")
    raw = data.get("cells")
    _expect(isinstance(raw, list), "subdivision: 'cells' must be an array")
    rows = [_int_row(h) for h in domain.halfspaces]
    cells: dict[int, Cell] = {}
    region_labels: dict[int, Vec] = {}
    facet_data: dict[int, FacetData] = {}
    for item in raw:
        _expect(isinstance(item, dict), "cell: expected an object")
        cell_id = item.get("id")
        _expect(is_int(cell_id), "cell: 'id' must be an integer")
        name = quoted(cell_id)
        _expect(cell_id not in cells, f"cell: duplicate id {name}")
        dim = item.get("dim")
        _expect(is_int(dim) and dim in (0, 1, 2), "cell: 'dim' must be 0, 1, or 2")
        for key in ("points", "rays"):
            _expect(isinstance(item.get(key, []), list), f"cell: '{key}' must be an array")
        points = tuple(_vec_in(p, "cell point", memo, 2) for p in item.get("points", []))
        rays = tuple(_ivec_in(r, "cell ray", 2) for r in item.get("rays", []))
        _expect(all(any(r) for r in rays), f"cell {name}: a ray must not be zero")
        incident = _ivec_in(item.get("incident", []), "cell incident")
        if dim in _CELL_SHAPES and (len(points), len(rays)) not in _CELL_SHAPES[dim]:
            raise ValidationError(
                f"cell {name}: a {dim}-cell cannot have {len(points)} points and {len(rays)} rays"
            )
        if dim == 0:
            # n . (x/a, y/b) <= num/den, cross-multiplied: a, b, den > 0.
            ((x, y),) = points
            a, b = x.denominator, y.denominator
            for (n0, n1), num, den in rows:
                if (n0 * x.numerator * b + n1 * y.numerator * a) * den > num * a * b:
                    raise ValidationError(f"cell {name}: vertex lies outside the domain")
        cells[cell_id] = Cell(dim=dim, points=points, rays=rays, incident=incident)
        if dim == 2:
            _expect("label" in item, f"region cell {name} is missing its label")
            region_labels[cell_id] = _vec_in(item["label"], "region label", memo, 2)
        if "weight" in item or "normal" in item:
            _expect(dim == 1, f"cell {name}: facet data on a non-edge")
            weight = _rational_in(item.get("weight"), "facet weight", memo)
            normal = _ivec_in(item.get("normal"), "facet normal", 2)
            _expect(weight > 0, f"cell {name}: facet weight must be positive")
            _expect(any(normal), f"cell {name}: facet normal must not be zero")
            _expect(
                is_int(item.get("from_region")) and is_int(item.get("to_region")),
                f"cell {name}: facet data needs from_region and to_region",
            )
            facet_data[cell_id] = FacetData(
                weight=weight,
                normal=normal,
                from_region=item["from_region"],
                to_region=item["to_region"],
            )
    # Structural sanity: incidence and facet references must resolve.
    for cell_id, cell in cells.items():
        for ref in cell.incident:
            if ref not in cells or cells[ref].dim != cell.dim - 1:
                problem = "does not exist" if ref not in cells else "is not one dimension lower"
                raise ValidationError(
                    f"cell {quoted(cell_id)}: incident id {quoted(ref)} {problem}"
                )
        if cell.dim == 1:
            if sorted(cells[ref].points[0] for ref in cell.incident) != sorted(
                finite_endpoints(cell)
            ):
                raise ValidationError(
                    f"edge {quoted(cell_id)}: its incident vertices are not its endpoints"
                )
    for edge_id, fd in facet_data.items():
        if fd.from_region not in region_labels or fd.to_region not in region_labels:
            raise ValidationError(f"edge {quoted(edge_id)}: facet regions do not exist")
    return LabeledSubdivision(
        convention=convention,
        domain=domain,
        cells=cells,
        region_labels=region_labels,
        facet_data=facet_data,
    )


# ---------------------------------------------------------------------------
# reports and samples
# ---------------------------------------------------------------------------


def balance_report_to_dict(report: BalanceReport) -> dict:
    checked = []
    for vertex_id in sorted(report.per_vertex):
        vb = report.per_vertex[vertex_id]
        checked.append(
            {
                "vertex": vertex_id,
                "point": _vec_out(vb.point),
                "residual": _vec_out(vb.residual),
                "balanced": vb.balanced,
                "contributions": [
                    {"weight": format_rational(w), "normal": list(n)}
                    for w, n in vb.contributions
                ],
            }
        )
    return {
        "balanced": report.overall,
        "checked": checked,
        "skipped_boundary": list(report.skipped_boundary),
    }


def sample_from_dict(data) -> CorrespondenceSample:
    # Accepted either as a bare array of {"p": ..., "q": ...} pairs or
    # wrapped in {"pairs": [...]}.
    if isinstance(data, list):
        raw = data
    else:
        _expect(isinstance(data, dict), "sample: expected an object or array")
        raw = data.get("pairs")
    _expect(isinstance(raw, list) and raw, "sample: 'pairs' must be a nonempty array")
    memo: dict[str, Fraction] = {}
    pairs = []
    for item in raw:
        _expect(isinstance(item, dict), "sample pair: expected an object")
        p = _vec_in(item.get("p"), "pair p", memo)
        pairs.append((p, _vec_in(item.get("q"), "pair q", memo)))
    return CorrespondenceSample(pairs=tuple(pairs))


def equilibrium_report_to_dict(report: EquilibriumReport) -> dict:
    certificate = None
    if report.certificate is not None:
        c = report.certificate
        certificate = {
            "prices": _vec_out(c.prices),
            "bundles": [list(q) for q in c.allocation.bundles],
            "receipts": [
                {
                    "consumer": r.consumer,
                    "surplus": format_rational(r.surplus),
                    "best_surplus": format_rational(r.best_surplus),
                    "optimal": r.optimal,
                }
                for r in c.receipts
            ],
            "status": "found",
        }
    return {
        "min_value": format_rational(report.min_value),
        "argmin_prices": _vec_out(report.argmin_prices),
        "price_unique": report.price_unique,
        "max_value": format_rational(report.max_value),
        "argmax_allocations": [
            [list(q) for q in a.bundles] for a in report.argmax_allocations
        ],
        "gap": format_rational(report.gap),
        "exists": report.exists,
        "certificate": certificate,
        "demand_sets_at_argmin": [
            {
                "bundles": [list(q) for q in sorted(ds.bundles)],
                "surplus": format_rational(ds.value),
            }
            for ds in report.demand_sets_at_argmin
        ],
    }
