"""The batch document format: named objects with exact "p/q" rationals.

One self-describing JSON shape serves input and output, so traces and
derived sets emitted by one run can be fed back into another.
Serialization is canonical: stable key order, lowest-terms rationals,
actual newline at the end.

One table, ``_SHAPES``, describes every JSON object the format writes or
reads: its tag (``"type"`` for document objects, ``"kind"`` for cells),
its fields with their codecs, and the constructor its decoded fields go
to.  One ``_encode`` and one ``_decode`` read it.  Four document objects
are read back as values: ``interval_union``, ``planar_complex``,
``family`` and ``trace``.  The others are output only; they are read
back as plain dicts once their keys check out.
"""

from __future__ import annotations

import json
from collections import namedtuple
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, NamedTuple, Optional, Tuple

from .classifier import LinForm1D, LinForm2D, LinLine, RayCert, Verdict
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


def _name(value, what):
    if not isinstance(value, str):
        _fail(f"{what} must be a string")
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
    return _decode((AffineFn,), obj, what)


# ---------------------------------------------------------------- shapes

class _Codec(NamedTuple):
    """How one field is written to JSON and read back."""

    encode: Callable  # value -> JSON value
    decode: Optional[Callable] = None  # (JSON value, what) -> value


class _Shape(NamedTuple):
    """The JSON object of one class: its tag as (key, name), if any, its
    fields as (JSON key, attribute, codec), its keys, and the constructor
    its decoded fields go to (None for an output-only object)."""

    tag: Optional[Tuple[str, str]]
    fields: tuple
    required: frozenset
    optional: frozenset  # of fields left out when None
    make: Optional[Callable]


def _shape(tag, fields: dict, optional: Optional[dict] = None,
           make: Optional[Callable] = None) -> _Shape:
    """A shape from {JSON key: codec}, or {JSON key: (attribute, codec)}
    where the attribute has another name."""
    optional = optional or {}
    triples = tuple((key, *spec) if isinstance(spec[0], str)
                    else (key, key, spec)
                    for key, spec in {**fields, **optional}.items())
    tag_key = {tag[0]} if tag else set()
    return _Shape(tag, triples, frozenset(fields) | tag_key,
                  frozenset(optional), make)


def _encode(value) -> dict:
    shape = _SHAPES[type(value)]
    out = {shape.tag[0]: shape.tag[1]} if shape.tag else {}
    for key, attr, codec in shape.fields:
        field = getattr(value, attr)
        if field is not None:
            out[key] = codec.encode(field)
        elif key not in shape.optional:
            out[key] = None
    return out


def _decode(classes: tuple, obj, what: str):
    """Decode obj as whichever of classes its tag names; an untagged
    class comes alone."""
    if not isinstance(obj, dict):
        _fail(f"{what} must be an object")
    for cls in classes:
        shape = _SHAPES[cls]
        if shape.tag is None or obj.get(shape.tag[0]) == shape.tag[1]:
            break
    else:
        key = shape.tag[0]
        _fail(f"{what} has unknown {key} {obj.get(key)!r}")
    if shape.tag:
        what = f"{shape.tag[1]} {what}"
    _expect_keys(obj, shape.required, shape.optional, what)
    if shape.make is None:
        return dict(obj)
    fields = {attr: codec.decode(obj[key], f"{what} {key}")
              for key, attr, codec in shape.fields if key in obj}
    try:
        return shape.make(**fields)
    except (ValueError, TypeError) as exc:
        _fail(f"bad {what}: {exc}")


def _value(*classes) -> _Codec:
    """A JSON object of whichever of classes its tag names."""
    return _Codec(_encode, lambda obj, what: _decode(classes, obj, what))


def _many(codec: _Codec, item: str = "") -> _Codec:
    """A JSON list of codec's values, read back as a tuple; item names one
    element in messages."""
    def decode(obj, what):
        if not isinstance(obj, list):
            _fail(f"{what} must be a list")
        return tuple(codec.decode(o, item or what) for o in obj)
    return _Codec(lambda values: [codec.encode(v) for v in values], decode)


_PLAIN = _Codec(_same, _same)
_RAT = _Codec(fmt_rat, _rat)
_EXT = _Codec(fmt_ext, _ext)
_FLAG = _Codec(bool, _flag)
_SLOPE = _Codec(lambda s: "vertical" if s is VERTICAL else fmt_rat(s),
                lambda o, what: VERTICAL if o == "vertical" else _rat(o, what))
_REF = _Codec(_same, _decode_ref)
_RATS = _many(_RAT)
_RAT_PAIRS = _many(_RATS)
_ENUM = _Codec(lambda e: e.value)
_OUT = _Codec(_encode)  # an output-only object
# (name, value) pairs, written as a mapping
_NAMED = _Codec(lambda pairs: {name: _encode(v) for name, v in pairs})
_COFINITE = _Codec(lambda cofinite: "cofinite" if cofinite else "finite")
_INTERVAL = _value(Interval)
_BOUNDARY = _Codec(lambda b: _encode(b) if isinstance(b, AffineFn) else fmt_ext(b),
                   _decode_boundary)

# records of plain values: a boolean, rationals, an extended rational,
# pairs of rationals, and an error (tag, message)
record_flag = namedtuple("record_flag", "value")
record_rats = namedtuple("record_rats", "values")
record_extended = namedtuple("record_extended", "value")
record_pairs = namedtuple("record_pairs", "pairs")
record_error = namedtuple("record_error", "tag message")

_SHAPES = {
    # document objects, read back as values
    IntervalUnion: _shape(
        ("type", "interval_union"),
        {"intervals": ("parts", _many(_INTERVAL, "interval"))},
        make=lambda parts: normalize(parts)),
    PlanarComplex: _shape(("type", "planar_complex"),
                          {"cells": _many(_value(Point, Seg, VSeg), "cell")},
                          make=lambda cells: pc_normalize(cells)),
    Family: _shape(("type", "family"),
                   {"cells": _many(_value(Graph, Band), "family cell")},
                   make=Family),
    Trace: _shape(("type", "trace"),
                  {"generators": _many(_Codec(_same, _name), "generator"),
                   "steps": _many(_value(TraceStep), "trace step"),
                   "output": _REF}, make=Trace),
    # document objects, output only
    BoundednessReport: _shape(("type", "boundedness_report"),
                              {"class": ("kind", _ENUM), "witness": _RAT}),
    Metrics: _shape(("type", "metrics"),
                    {"max_component_length": _EXT, "diameter": _EXT}),
    OneDimClass: _shape(("type", "one_dim_class"),
                        {"kind": _ENUM, "side": _PLAIN}),
    Isolation: _shape(("type", "isolation"),
                      {"shift": _RAT, "single": _INTERVAL}),
    Subgroup2D: _shape(("type", "subgroup"),
                       {"kind": _PLAIN, "direction": _SLOPE}),
    Decomposition: _shape(("type", "decomposition"), {
        "graphs": _Codec(lambda graphs: [
            {"slope": fmt_rat(s), "offsets": _RATS.encode(ds)}
            for s, ds in graphs]),
        "verticals": _RATS, "residue": _OUT, "unresolved": _many(_OUT)}),
    Verdict: _shape(("type", "verdict"),
                    {"level": _Codec(lambda level: level.name)},
                    {"lin_forms": _NAMED, "baselines": _NAMED,
                     "ray": _OUT}),
    record_flag: _shape(("type", "flag"), {"value": _FLAG}),
    record_rats: _shape(("type", "rats"), {"values": _RATS}),
    record_extended: _shape(("type", "extended"), {"value": _EXT}),
    record_pairs: _shape(("type", "pairs"), {"pairs": _RAT_PAIRS}),
    record_error: _shape(("type", "error"),
                         {"tag": _PLAIN, "message": _PLAIN}),
    # values only ever nested in a document object
    Interval: _shape(None, {"lo": _EXT, "hi": _EXT, "lo_closed": _FLAG,
                            "hi_closed": _FLAG}, make=Interval),
    AffineFn: _shape(None, {"slope": _RAT, "intercept": _RAT}, make=AffineFn),
    Point: _shape(("kind", "point"), {"x": _RAT, "y": _RAT}, make=Point),
    Seg: _shape(("kind", "seg"), {"slope": _RAT, "intercept": _RAT,
                                  "domain": _INTERVAL}, make=Seg),
    VSeg: _shape(("kind", "vseg"), {"x": _RAT, "range": ("rng", _INTERVAL)},
                 make=VSeg),
    Graph: _shape(("kind", "graph"), {"domain": _INTERVAL, "value": _BOUNDARY},
                  make=Graph),
    Band: _shape(("kind", "band"), {"domain": _INTERVAL, "lower": _BOUNDARY,
                                    "upper": _BOUNDARY, "lower_closed": _FLAG,
                                    "upper_closed": _FLAG}, make=Band),
    # the constructor checks op and axis
    TraceStep: _shape(None, {"op": _PLAIN, "src": _REF},
                      {"other": _REF, "amount": _RAT, "factor": _RAT,
                       "slope": _SLOPE, "offset": _RAT, "axis": _PLAIN},
                      make=TraceStep),
    LinForm1D: _shape(None, {"kind": ("cofinite", _COFINITE),
                             "points": _RATS}),
    LinForm2D: _shape(("kind", "lines_minus_points"),
                      {"lines": _many(_OUT), "points": _RAT_PAIRS}),
    LinLine: _shape(None, {"slope": _SLOPE, "shift": _RAT, "removed": _RATS}),
    RayCert: _shape(None, {"generator": _PLAIN, "trace": _OUT, "ray": _OUT}),
}
# the classes whose objects stand at the top of a document
_DOCUMENT = tuple(cls for cls, shape in _SHAPES.items()
                  if shape.tag and shape.tag[0] == "type")


def encode_value(value) -> dict:
    if type(value) not in _DOCUMENT:
        raise TypeError(f"cannot encode {type(value).__name__}")
    return _encode(value)


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
    return Document({name: _decode(_DOCUMENT, obj, repr(name))
                     for name, obj in raw["objects"].items()})


def serialize_document(doc: Document) -> str:
    payload = {
        "version": VERSION,
        "objects": {name: obj if isinstance(obj, dict) else encode_value(obj)
                    for name, obj in doc.objects.items()},
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
