"""The batch document format: named objects with exact "p/q" rationals.

One self-describing JSON shape serves input and output, so traces and
derived sets emitted by one run can be fed back into another.
Serialization is canonical: stable key order, lowest-terms rationals,
actual newline at the end.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Mapping, NamedTuple, Optional,
                    Tuple)

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


def _encode_decomposition(d: Decomposition) -> tuple:
    return ([{"slope": fmt_rat(s), "offsets": [fmt_rat(o) for o in ds]}
             for s, ds in d.graphs],
            [fmt_rat(v) for v in d.verticals], encode_value(d.residue),
            [_encode_cell(c) for c in d.unresolved])


def _encode_verdict(v: Verdict) -> tuple:
    return (v.level.name,
            None if v.lin_forms is None
            else {n: _encode_lin_form(f) for n, f in v.lin_forms},
            None if v.baselines is None
            else {n: encode_value(a) for n, a in v.baselines},
            None if v.ray is None
            else {"generator": v.ray.generator,
                  "trace": encode_value(v.ray.trace),
                  "ray": encode_value(v.ray.ray)})


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


def _list(obj, key: str) -> list:
    if not isinstance(obj[key], list):
        _fail(f"{key} must be a list")
    return obj[key]


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
        kwargs["axis"] = obj["axis"]
    try:
        return TraceStep(obj["op"], _decode_ref(obj["src"]), **kwargs)
    except (ValueError, TypeError) as exc:
        _fail(f"bad trace step: {exc}")


def _decode_trace(obj) -> Trace:
    gens = obj["generators"]
    if (not isinstance(gens, list)
            or not all(isinstance(g, str) for g in gens)):
        _fail("generators must be a list of names")
    steps = _list(obj, "steps")
    try:
        return Trace(tuple(gens), tuple(_decode_step(o) for o in steps),
                     _decode_ref(obj["output"], "output"))
    except ValueError as exc:
        _fail(f"bad trace: {exc}")


# ---------------------------------------------------------------- types

class _Type(NamedTuple):
    """One object type of the document format."""

    name: str
    cls: Optional[type]  # None for the records that record_* build
    keys: Tuple[str, ...]  # required, besides "type"
    optional: Tuple[str, ...]  # left out when None
    encode: Callable  # the fields, in the order of keys + optional
    decode: Optional[Callable] = None  # None: the record stays a dict


_TYPES = [
    _Type("interval_union", IntervalUnion, ("intervals",), (),
          lambda x: ([encode_interval(p) for p in x.parts],),
          lambda o: normalize(decode_interval(p)
                              for p in _list(o, "intervals"))),
    _Type("planar_complex", PlanarComplex, ("cells",), (),
          lambda x: ([_encode_cell(c) for c in x.cells],),
          lambda o: pc_normalize([_decode_cell(c)
                                  for c in _list(o, "cells")])),
    _Type("family", Family, ("cells",), (),
          lambda f: ([_encode_fiber_cell(c) for c in f.cells],),
          lambda o: Family(tuple(_decode_fiber_cell(c)
                                 for c in _list(o, "cells")))),
    _Type("trace", Trace, ("generators", "steps", "output"), (),
          lambda t: (list(t.generators), [_encode_step(s) for s in t.steps],
                     t.output),
          _decode_trace),
    _Type("boundedness_report", BoundednessReport, ("class", "witness"), (),
          lambda r: (r.kind.value,
                     None if r.witness is None else fmt_rat(r.witness))),
    _Type("metrics", Metrics, ("max_component_length", "diameter"), (),
          lambda m: (fmt_ext(m.max_component_length), fmt_ext(m.diameter))),
    _Type("one_dim_class", OneDimClass, ("kind", "side"), (),
          lambda c: (c.kind.value, c.side)),
    _Type("isolation", Isolation, ("shift", "single"), (),
          lambda i: (fmt_rat(i.shift), encode_interval(i.single))),
    _Type("subgroup", Subgroup2D, ("kind", "direction"), (),
          lambda g: (g.kind, None if g.direction is None
                     else encode_slope(g.direction))),
    _Type("decomposition", Decomposition,
          ("graphs", "verticals", "residue", "unresolved"), (),
          _encode_decomposition),
    _Type("verdict", Verdict, ("level",), ("lin_forms", "baselines", "ray"),
          _encode_verdict),
    _Type("flag", None, ("value",), (), lambda value: (bool(value),)),
    _Type("rats", None, ("values",), (),
          lambda values: ([fmt_rat(v) for v in values],)),
    _Type("extended", None, ("value",), (), lambda value: (fmt_ext(value),)),
    _Type("pairs", None, ("pairs",), (),
          lambda pairs: ([[fmt_rat(a), fmt_rat(b)] for a, b in pairs],)),
    _Type("error", None, ("tag", "message"), (),
          lambda tag, message: (tag, message)),
]
_BY_NAME = {t.name: t for t in _TYPES}


def _record(t: _Type, *args) -> dict:
    out = {"type": t.name}
    for key, value in zip(t.keys + t.optional, t.encode(*args)):
        if value is not None or key in t.keys:
            out[key] = value
    return out


def encode_value(value) -> dict:
    for t in _TYPES:
        if t.cls is not None and isinstance(value, t.cls):
            return _record(t, value)
    raise TypeError(f"cannot encode {type(value).__name__}")


def _recorder(name: str) -> Callable[..., dict]:
    t = _BY_NAME[name]
    return lambda *args: _record(t, *args)


# records of plain values: a boolean, rationals, an extended rational,
# pairs of rationals, and an error (tag, message)
record_flag, record_rats, record_extended, record_pairs, record_error = map(
    _recorder, ("flag", "rats", "extended", "pairs", "error"))


def decode_object(obj) -> Any:
    if not isinstance(obj, dict) or not isinstance(obj.get("type"), str):
        _fail("each object needs a string type field")
    t = _BY_NAME.get(obj["type"])
    if t is None:
        _fail(f"unknown object type {obj['type']!r}")
    _expect_keys(obj, {"type", *t.keys}, optional=t.optional, what=t.name)
    return dict(obj) if t.decode is None else t.decode(obj)


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
