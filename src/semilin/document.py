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
from .planar import (Decomposition, PlanarComplex, Point, Seg,
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


def _rat(text, what):
    try:
        return parse_rat(text)
    except (ValueError, TypeError) as exc:
        _fail(f"bad {what}: {exc}")


def _ext(text, what):
    try:
        return parse_ext(text)
    except ValueError as exc:
        _fail(f"bad {what}: {exc}")


def _flag(value, what):
    if not isinstance(value, bool):
        _fail(f"{what} must be a boolean")
    return value


def _same(value, what=None):
    return value


def _decode_ref(obj, what):
    if isinstance(obj, str) or (isinstance(obj, int)
                                and not isinstance(obj, bool)):
        return obj
    _fail(f"bad {what}: {obj!r}")


def _decode_boundary(obj, what):
    if isinstance(obj, str):
        value = _ext(obj, what)
        if is_finite(value):
            _fail(f"{what} string must be an infinity")
        return value
    return _decode(AffineFn, obj, what)


def _list(obj, key: str) -> list:
    if not isinstance(obj[key], list):
        _fail(f"{key} must be a list")
    return obj[key]


# ---------------------------------------------------------------- shapes

class _Codec(NamedTuple):
    """How one field is written to JSON and read back."""

    encode: Callable  # value -> JSON value
    decode: Callable  # (JSON value, what) -> value


class _Shape(NamedTuple):
    """The JSON object of one value class: its kind tag, if any, its
    fields as (JSON key, attribute, codec), and its keys."""

    kind: Optional[str]
    fields: tuple
    required: frozenset
    optional: frozenset  # of fields left out when None


def _shape(kind, fields: dict, optional: Optional[dict] = None) -> _Shape:
    """A shape from {JSON key: codec}, or {JSON key: (attribute, codec)}
    where the attribute has another name."""
    optional = optional or {}
    triples = tuple((key, *spec) if isinstance(spec[0], str)
                    else (key, key, spec)
                    for key, spec in {**fields, **optional}.items())
    tag = {"kind"} if kind else set()
    return _Shape(kind, triples, frozenset(fields) | tag, frozenset(optional))


def _encode(value) -> dict:
    shape = _SHAPES[type(value)]
    out = {} if shape.kind is None else {"kind": shape.kind}
    for key, attr, codec in shape.fields:
        field = getattr(value, attr)
        if field is not None:  # only optional fields are ever None
            out[key] = codec.encode(field)
    return out


def _decode(cls, obj, what: str):
    shape = _SHAPES[cls]
    if not isinstance(obj, dict):
        _fail(f"{what} must be an object")
    _expect_keys(obj, shape.required, shape.optional, what)
    fields = {attr: codec.decode(obj[key], f"{what} {key}")
              for key, attr, codec in shape.fields if key in obj}
    try:
        return cls(**fields)
    except (ValueError, TypeError) as exc:
        _fail(f"bad {what}: {exc}")


def _decode_kind(classes, obj, what: str):
    """Decode a value of whichever of classes its kind tag names."""
    for cls in classes:
        if isinstance(obj, dict) and obj.get("kind") == _SHAPES[cls].kind:
            return _decode(cls, obj, f"{obj['kind']} {what}")
    _fail(f"{what} must be an object with a known kind")


_PLAIN = _Codec(_same, _same)
_RAT = _Codec(fmt_rat, _rat)
_EXT = _Codec(fmt_ext, _ext)
_FLAG = _Codec(_same, _flag)
_SLOPE = _Codec(lambda s: "vertical" if s is VERTICAL else fmt_rat(s),
                lambda o, what: VERTICAL if o == "vertical" else _rat(o, what))
_REF = _Codec(_same, _decode_ref)
_INTERVAL = _Codec(_encode, lambda o, what: _decode(Interval, o, what))
_BOUNDARY = _Codec(lambda b: _encode(b) if isinstance(b, AffineFn) else fmt_ext(b),
                   _decode_boundary)

_SHAPES = {
    Interval: _shape(None, {"lo": _EXT, "hi": _EXT, "lo_closed": _FLAG,
                            "hi_closed": _FLAG}),
    AffineFn: _shape(None, {"slope": _RAT, "intercept": _RAT}),
    Point: _shape("point", {"x": _RAT, "y": _RAT}),
    Seg: _shape("seg", {"slope": _RAT, "intercept": _RAT, "domain": _INTERVAL}),
    VSeg: _shape("vseg", {"x": _RAT, "range": ("rng", _INTERVAL)}),
    Graph: _shape("graph", {"domain": _INTERVAL, "value": _BOUNDARY}),
    Band: _shape("band", {"domain": _INTERVAL, "lower": _BOUNDARY,
                          "upper": _BOUNDARY, "lower_closed": _FLAG,
                          "upper_closed": _FLAG}),
    # the constructor checks op and axis
    TraceStep: _shape(None, {"op": _PLAIN, "src": _REF},
                      {"other": _REF, "amount": _RAT, "factor": _RAT,
                       "slope": _SLOPE, "offset": _RAT, "axis": _PLAIN}),
}
_CELLS = (Point, Seg, VSeg)
_FIBER_CELLS = (Graph, Band)


def _encode_lin_form(form) -> dict:
    if isinstance(form, LinForm1D):
        return {"kind": "cofinite" if form.cofinite else "finite",
                "points": [fmt_rat(p) for p in form.points]}
    return {"kind": "lines_minus_points",
            "lines": [{"slope": _SLOPE.encode(l.slope),
                       "shift": fmt_rat(l.shift),
                       "removed": [fmt_rat(r) for r in l.removed]}
                      for l in form.lines],
            "points": [[fmt_rat(x), fmt_rat(y)] for x, y in form.points]}


def _encode_decomposition(d: Decomposition) -> tuple:
    return ([{"slope": fmt_rat(s), "offsets": [fmt_rat(o) for o in ds]}
             for s, ds in d.graphs],
            [fmt_rat(v) for v in d.verticals], encode_value(d.residue),
            [_encode(c) for c in d.unresolved])


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


def _decode_trace(obj) -> Trace:
    gens = obj["generators"]
    if (not isinstance(gens, list)
            or not all(isinstance(g, str) for g in gens)):
        _fail("generators must be a list of names")
    steps = _list(obj, "steps")
    try:
        return Trace(tuple(gens),
                     tuple(_decode(TraceStep, o, "trace step") for o in steps),
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
          lambda x: ([_encode(p) for p in x.parts],),
          lambda o: normalize(_decode(Interval, p, "interval")
                              for p in _list(o, "intervals"))),
    _Type("planar_complex", PlanarComplex, ("cells",), (),
          lambda x: ([_encode(c) for c in x.cells],),
          lambda o: pc_normalize([_decode_kind(_CELLS, c, "cell")
                                  for c in _list(o, "cells")])),
    _Type("family", Family, ("cells",), (),
          lambda f: ([_encode(c) for c in f.cells],),
          lambda o: Family(tuple(_decode_kind(_FIBER_CELLS, c, "family cell")
                                 for c in _list(o, "cells")))),
    _Type("trace", Trace, ("generators", "steps", "output"), (),
          lambda t: (list(t.generators), [_encode(s) for s in t.steps],
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
          lambda i: (fmt_rat(i.shift), _encode(i.single))),
    _Type("subgroup", Subgroup2D, ("kind", "direction"), (),
          lambda g: (g.kind, None if g.direction is None
                     else _SLOPE.encode(g.direction))),
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
    except ValueError as exc:  # also an integer past the digit limit
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
