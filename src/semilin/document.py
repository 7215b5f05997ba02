"""The batch document format: named objects with exact "p/q" rationals.

One self-describing JSON shape serves input and output, so traces and
derived sets emitted by one run can be fed back into another.
Serialization is canonical: stable key order, lowest-terms rationals,
actual newline at the end.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Mapping

from .classifier import LinForm1D, Verdict
from .family import AffineFn, Band, Family, Graph
from .intervals import (BoundednessReport, Interval, IntervalUnion,
                        Isolation, Metrics, OneDimClass, normalize)
from .planar import (Cell, Decomposition, PlanarComplex, Point, Seg,
                     Subgroup2D, VERTICAL, VSeg, pc_normalize)
from .rat import fmt_ext, fmt_rat, is_finite, parse_ext, parse_rat
from .trace import Trace, TraceStep

VERSION = "1"


class DocumentError(Exception):
    """The document text does not parse into valid objects."""


@dataclass
class Document:
    objects: Dict[str, Any]
    version: str = VERSION


def _fail(msg: str) -> None:
    raise DocumentError(msg)


def _expect_keys(obj: Mapping, required, optional=frozenset(), what="object"):
    keys = set(obj)
    required = set(required)
    if not required <= keys:
        _fail(f"{what} missing fields {sorted(required - keys)}")
    extra = keys - required - set(optional)
    if extra:
        _fail(f"{what} has unknown fields {sorted(extra)}")


def _rat(text, what="rational"):
    try:
        return parse_rat(text)
    except (ValueError, TypeError) as exc:
        _fail(f"bad {what}: {exc}")


def _ext(text, what="endpoint"):
    if not isinstance(text, str):
        _fail(f"bad {what}: {text!r}")
    try:
        return parse_ext(text)
    except ValueError as exc:
        _fail(f"bad {what}: {exc}")


def _flag(value, what="flag"):
    if not isinstance(value, bool):
        _fail(f"{what} must be a boolean")
    return value


# ---------------------------------------------------------------- encoding

def encode_interval(p: Interval) -> dict:
    return {"lo": fmt_ext(p.lo), "hi": fmt_ext(p.hi),
            "lo_closed": p.lo_closed, "hi_closed": p.hi_closed}


def encode_slope(s) -> str:
    return "vertical" if s is VERTICAL else fmt_rat(s)


def _encode_cell(c: Cell) -> dict:
    if isinstance(c, Point):
        return {"kind": "point", "x": fmt_rat(c.x), "y": fmt_rat(c.y)}
    if isinstance(c, Seg):
        return {"kind": "seg", "slope": fmt_rat(c.slope),
                "intercept": fmt_rat(c.intercept),
                "domain": encode_interval(c.domain)}
    return {"kind": "vseg", "x": fmt_rat(c.x), "range": encode_interval(c.rng)}


def _encode_boundary(b) -> Any:
    if isinstance(b, AffineFn):
        return {"slope": fmt_rat(b.slope), "intercept": fmt_rat(b.intercept)}
    return fmt_ext(b)


def _encode_fiber_cell(c) -> dict:
    if isinstance(c, Graph):
        return {"kind": "graph", "domain": encode_interval(c.domain),
                "value": _encode_boundary(c.value)}
    return {"kind": "band", "domain": encode_interval(c.domain),
            "lower": _encode_boundary(c.lower),
            "upper": _encode_boundary(c.upper),
            "lower_closed": c.lower_closed, "upper_closed": c.upper_closed}


def _encode_step(s: TraceStep) -> dict:
    out: Dict[str, Any] = {"op": s.op, "src": s.src}
    if s.other is not None:
        out["other"] = s.other
    if s.amount is not None:
        out["amount"] = fmt_rat(s.amount)
    if s.factor is not None:
        out["factor"] = fmt_rat(s.factor)
    if s.slope is not None:
        out["slope"] = encode_slope(s.slope)
        out["offset"] = fmt_rat(s.offset)
    if s.axis is not None:
        out["axis"] = s.axis
    return out


def _encode_lin_form(form) -> dict:
    if isinstance(form, LinForm1D):
        return {"kind": "cofinite" if form.cofinite else "finite",
                "points": [fmt_rat(p) for p in form.points]}
    return {"kind": "lines_minus_points",
            "lines": [{"slope": encode_slope(l.slope),
                       "shift": fmt_rat(l.shift),
                       "removed": [fmt_rat(r) for r in l.removed]}
                      for l in form.lines],
            "points": [[fmt_rat(x), fmt_rat(y)] for x, y in form.points]}


def encode_value(value) -> Any:
    if isinstance(value, IntervalUnion):
        return {"type": "interval_union",
                "intervals": [encode_interval(p) for p in value.parts]}
    if isinstance(value, PlanarComplex):
        return {"type": "planar_complex",
                "cells": [_encode_cell(c) for c in value.cells]}
    if isinstance(value, Family):
        return {"type": "family",
                "cells": [_encode_fiber_cell(c) for c in value.cells]}
    if isinstance(value, Trace):
        return {"type": "trace", "generators": list(value.generators),
                "steps": [_encode_step(s) for s in value.steps],
                "output": value.output}
    if isinstance(value, BoundednessReport):
        return {"type": "boundedness_report", "class": value.kind.value,
                "witness": None if value.witness is None else fmt_rat(value.witness)}
    if isinstance(value, Metrics):
        return {"type": "metrics",
                "max_component_length": fmt_ext(value.max_component_length),
                "diameter": fmt_ext(value.diameter)}
    if isinstance(value, OneDimClass):
        return {"type": "one_dim_class", "kind": value.kind.value,
                "side": value.side}
    if isinstance(value, Isolation):
        return {"type": "isolation", "shift": fmt_rat(value.shift),
                "single": encode_interval(value.single)}
    if isinstance(value, Subgroup2D):
        return {"type": "subgroup", "kind": value.kind,
                "direction": None if value.direction is None
                else encode_slope(value.direction)}
    if isinstance(value, Decomposition):
        return {"type": "decomposition",
                "graphs": [{"slope": fmt_rat(s),
                            "offsets": [fmt_rat(d) for d in ds]}
                           for s, ds in value.graphs],
                "verticals": [fmt_rat(d) for d in value.verticals],
                "residue": encode_value(value.residue),
                "unresolved": [_encode_cell(c) for c in value.unresolved]}
    if isinstance(value, Verdict):
        out: Dict[str, Any] = {"type": "verdict", "level": value.level.name}
        if value.lin_forms is not None:
            out["lin_forms"] = {n: _encode_lin_form(f) for n, f in value.lin_forms}
        if value.baselines is not None:
            out["baselines"] = {n: encode_value(a) for n, a in value.baselines}
        if value.ray is not None:
            out["ray"] = {"generator": value.ray.generator,
                          "trace": encode_value(value.ray.trace),
                          "ray": encode_value(value.ray.ray)}
        return out
    raise TypeError(f"cannot encode {type(value).__name__}")


def record_flag(value: bool) -> dict:
    return {"type": "flag", "value": bool(value)}


def record_rats(values) -> dict:
    return {"type": "rats", "values": [fmt_rat(v) for v in values]}


def record_extended(value) -> dict:
    return {"type": "extended", "value": fmt_ext(value)}


def record_pairs(pairs) -> dict:
    return {"type": "pairs",
            "pairs": [[fmt_rat(a), fmt_rat(b)] for a, b in pairs]}


def record_error(tag: str, message: str) -> dict:
    return {"type": "error", "tag": tag, "message": message}


# ---------------------------------------------------------------- decoding

def decode_interval(obj, what="interval") -> Interval:
    if not isinstance(obj, dict):
        _fail(f"{what} must be an object")
    _expect_keys(obj, {"lo", "hi", "lo_closed", "hi_closed"}, what=what)
    try:
        return Interval(_ext(obj["lo"]), _ext(obj["hi"]),
                        _flag(obj["lo_closed"]), _flag(obj["hi_closed"]))
    except ValueError as exc:
        _fail(f"{what}: {exc}")


def _decode_interval_union(obj) -> IntervalUnion:
    _expect_keys(obj, {"type", "intervals"}, what="interval_union")
    if not isinstance(obj["intervals"], list):
        _fail("intervals must be a list")
    return normalize(decode_interval(o) for o in obj["intervals"])


def _decode_cell(obj) -> Cell:
    if not isinstance(obj, dict) or "kind" not in obj:
        _fail("cell must be an object with a kind")
    kind = obj["kind"]
    try:
        if kind == "point":
            _expect_keys(obj, {"kind", "x", "y"}, what="point cell")
            return Point(_rat(obj["x"]), _rat(obj["y"]))
        if kind == "seg":
            _expect_keys(obj, {"kind", "slope", "intercept", "domain"},
                         what="seg cell")
            return Seg(_rat(obj["slope"]), _rat(obj["intercept"]),
                       decode_interval(obj["domain"], "seg domain"))
        if kind == "vseg":
            _expect_keys(obj, {"kind", "x", "range"}, what="vseg cell")
            return VSeg(_rat(obj["x"]), decode_interval(obj["range"], "vseg range"))
    except ValueError as exc:
        _fail(f"bad cell: {exc}")
    _fail(f"unknown cell kind {kind!r}")


def _decode_planar(obj) -> PlanarComplex:
    _expect_keys(obj, {"type", "cells"}, what="planar_complex")
    if not isinstance(obj["cells"], list):
        _fail("cells must be a list")
    return pc_normalize([_decode_cell(o) for o in obj["cells"]])


def _decode_boundary(obj, what="boundary"):
    if isinstance(obj, str):
        value = _ext(obj, what)
        if is_finite(value):
            _fail(f"{what} string must be an infinity")
        return value
    if isinstance(obj, dict):
        _expect_keys(obj, {"slope", "intercept"}, what=what)
        return AffineFn(_rat(obj["slope"]), _rat(obj["intercept"]))
    _fail(f"bad {what}: {obj!r}")


def _decode_fiber_cell(obj):
    if not isinstance(obj, dict) or "kind" not in obj:
        _fail("family cell must be an object with a kind")
    kind = obj["kind"]
    try:
        if kind == "graph":
            _expect_keys(obj, {"kind", "domain", "value"}, what="graph cell")
            value = _decode_boundary(obj["value"], "graph value")
            return Graph(decode_interval(obj["domain"], "graph domain"), value)
        if kind == "band":
            _expect_keys(obj, {"kind", "domain", "lower", "upper",
                               "lower_closed", "upper_closed"}, what="band cell")
            return Band(decode_interval(obj["domain"], "band domain"),
                        _decode_boundary(obj["lower"], "band lower"),
                        _decode_boundary(obj["upper"], "band upper"),
                        _flag(obj["lower_closed"]), _flag(obj["upper_closed"]))
    except ValueError as exc:
        _fail(f"bad family cell: {exc}")
    _fail(f"unknown family cell kind {kind!r}")


def _decode_family(obj) -> Family:
    _expect_keys(obj, {"type", "cells"}, what="family")
    if not isinstance(obj["cells"], list):
        _fail("cells must be a list")
    return Family(tuple(_decode_fiber_cell(o) for o in obj["cells"]))


def _decode_ref(obj, what="reference"):
    if isinstance(obj, str) or (isinstance(obj, int)
                                and not isinstance(obj, bool)):
        return obj
    _fail(f"bad {what}: {obj!r}")


def _decode_step(obj) -> TraceStep:
    if not isinstance(obj, dict) or "op" not in obj or "src" not in obj:
        _fail("trace step must be an object with op and src")
    allowed = {"op", "src", "other", "amount", "factor", "slope", "offset", "axis"}
    _expect_keys(obj, {"op", "src"}, optional=allowed, what="trace step")
    kwargs: Dict[str, Any] = {}
    if "other" in obj:
        kwargs["other"] = _decode_ref(obj["other"])
    if "amount" in obj:
        kwargs["amount"] = _rat(obj["amount"], "amount")
    if "factor" in obj:
        kwargs["factor"] = _rat(obj["factor"], "factor")
    if "slope" in obj:
        slope = obj["slope"]
        kwargs["slope"] = VERTICAL if slope == "vertical" else _rat(slope, "slope")
    if "offset" in obj:
        kwargs["offset"] = _rat(obj["offset"], "offset")
    if "axis" in obj:
        if obj["axis"] not in (1, 2):
            _fail("axis must be 1 or 2")
        kwargs["axis"] = obj["axis"]
    try:
        return TraceStep(obj["op"], _decode_ref(obj["src"]), **kwargs)
    except (ValueError, TypeError) as exc:
        _fail(f"bad trace step: {exc}")


def _decode_trace(obj) -> Trace:
    _expect_keys(obj, {"type", "generators", "steps", "output"}, what="trace")
    gens = obj["generators"]
    if (not isinstance(gens, list)
            or not all(isinstance(g, str) for g in gens)):
        _fail("generators must be a list of names")
    if not isinstance(obj["steps"], list):
        _fail("steps must be a list")
    try:
        return Trace(tuple(gens),
                     tuple(_decode_step(o) for o in obj["steps"]),
                     _decode_ref(obj["output"], "output"))
    except ValueError as exc:
        _fail(f"bad trace: {exc}")


_RECORD_KEYS = {
    "flag": {"value"},
    "rats": {"values"},
    "extended": {"value"},
    "pairs": {"pairs"},
    "boundedness_report": {"class", "witness"},
    "metrics": {"max_component_length", "diameter"},
    "one_dim_class": {"kind", "side"},
    "isolation": {"shift", "single"},
    "subgroup": {"kind", "direction"},
    "decomposition": {"graphs", "verticals", "residue", "unresolved"},
    "verdict": {"level"},
    "error": {"tag", "message"},
}
_RECORD_OPTIONAL = {
    "verdict": {"lin_forms", "baselines", "ray"},
}

_DECODERS = {
    "interval_union": _decode_interval_union,
    "planar_complex": _decode_planar,
    "family": _decode_family,
    "trace": _decode_trace,
}


def decode_object(obj) -> Any:
    if not isinstance(obj, dict) or not isinstance(obj.get("type"), str):
        _fail("each object needs a string type field")
    tname = obj["type"]
    if tname in _DECODERS:
        return _DECODERS[tname](obj)
    if tname in _RECORD_KEYS:
        _expect_keys(obj, _RECORD_KEYS[tname] | {"type"},
                     optional=_RECORD_OPTIONAL.get(tname, frozenset()),
                     what=tname)
        return dict(obj)
    _fail(f"unknown object type {tname!r}")


def _no_duplicates(pairs):
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise DocumentError(f"duplicate name {key!r}")
        seen[key] = value
    return seen


def parse_document(text: str) -> Document:
    try:
        raw = json.loads(text, object_pairs_hook=_no_duplicates)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise DocumentError("document nested too deeply to parse") from None
    if not isinstance(raw, dict):
        raise DocumentError("document must be a JSON object")
    _expect_keys(raw, {"version", "objects"}, what="document")
    if raw["version"] != VERSION:
        raise DocumentError(f"unsupported version {raw['version']!r}")
    if not isinstance(raw["objects"], dict):
        raise DocumentError("objects must be a mapping")
    objects = {name: decode_object(obj) for name, obj in raw["objects"].items()}
    return Document(objects)


def serialize_document(doc: Document) -> str:
    payload = {
        "version": doc.version,
        "objects": {name: obj if isinstance(obj, dict) else encode_value(obj)
                    for name, obj in doc.objects.items()},
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
