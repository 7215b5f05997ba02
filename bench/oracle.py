"""Output oracles that share no code with semilin.

The arithmetic here is deliberately naive and independent of the library:
a 1-D set is rebuilt from its membership at every breakpoint and at one
sample inside every gap between breakpoints, so its canonical form falls
out of a single scan.  Planar and family values are only ever evaluated
pointwise.  The job checks in ``workloads.py`` build on these helpers and
raise :class:`OracleError` when an output document is wrong for its input.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from fractions import Fraction

INF = float("inf")


class OracleError(Exception):
    """An output document disagrees with what its input implies."""


def fail(msg):
    raise OracleError(msg)


# ------------------------------------------------------------ scalars

def fmt(e):
    if e == INF:
        return "inf"
    if e == -INF:
        return "-inf"
    return str(e)


def parse_ext(text):
    if text == "-inf":
        return -INF
    if text in ("inf", "+inf"):
        return INF
    if not isinstance(text, str):
        fail(f"not a rational string: {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        fail(f"bad rational {text!r}")


def finite(e):
    return isinstance(e, Fraction)


def _add(e, a):
    return e + a if finite(e) else e


def _mul(e, q):
    if finite(e):
        return e * q
    return e if q > 0 else -e


# ------------------------------------------------------------ 1-D sets
# An interval is a tuple (lo, hi, lo_closed, hi_closed).

def inside(p, x):
    lo, hi, lc, hc = p
    if x < lo or (x == lo and not lc):
        return False
    if x > hi or (x == hi and not hc):
        return False
    return True


def valid_interval(p):
    lo, hi, lc, hc = p
    if not (lo < hi or (lo == hi and lc and hc)):
        return False
    return (finite(lo) or not lc) and (finite(hi) or not hc)


class Line:
    """A canonical finite union of intervals: sorted, disjoint and no two
    parts mergeable."""

    __slots__ = ("parts", "_los")

    def __init__(self, parts):
        self.parts = tuple(parts)
        self._los = [p[0] for p in self.parts]

    def __contains__(self, x):
        i = bisect_right(self._los, x) - 1
        return i >= 0 and inside(self.parts[i], x)

    def __eq__(self, other):
        return isinstance(other, Line) and self.parts == other.parts

    def __repr__(self):
        return "Line(%s)" % " u ".join(
            ("[" if lc else "(") + f"{fmt(lo)},{fmt(hi)}" + ("]" if hc else ")")
            for lo, hi, lc, hc in self.parts)

    def breaks(self):
        return [e for p in self.parts for e in p[:2] if finite(e)]

    @property
    def bounded(self):
        return all(finite(p[0]) and finite(p[1]) for p in self.parts)


def canonical(parts):
    parts = tuple(parts)
    for p in parts:
        if not valid_interval(p):
            fail(f"invalid interval {p}")
    for a, b in zip(parts, parts[1:]):
        if not (a[1] < b[0] or (a[1] == b[0] and not a[3] and not b[2])):
            fail(f"parts {a} and {b} overlap, touch or are unsorted")
    return Line(parts)


def build(breaks, member):
    """The canonical set that ``member`` describes, given every point
    where membership may change."""
    bs = sorted(set(breaks))
    if not bs:
        return Line([(-INF, INF, False, False)] if member(Fraction(0)) else [])
    # atoms alternate: gap, point, gap, ..., point, gap
    samples = [bs[0] - 1]
    for a, b in zip(bs, bs[1:]):
        samples += [a, (a + b) / 2]
    samples += [bs[-1], bs[-1] + 1]
    flags = [member(t) for t in samples]
    parts = []
    start = None
    for i, on in enumerate(flags + [False]):
        if on and start is None:
            start = i
        elif not on and start is not None:
            parts.append((_atom_lo(bs, start), _atom_hi(bs, i - 1),
                          start % 2 == 1, (i - 1) % 2 == 1))
            start = None
    return Line(parts)


def _atom_lo(bs, i):
    # atom 2j is the gap before bs[j]; atom 2j+1 is the point bs[j]
    if i % 2 == 1:
        return bs[i // 2]
    return bs[i // 2 - 1] if i > 0 else -INF


def _atom_hi(bs, i):
    if i % 2 == 1:
        return bs[i // 2]
    return bs[i // 2] if i // 2 < len(bs) else INF


def normalize(parts):
    """The canonical union of any intervals: sort by left end, then merge
    each interval into the previous one when they overlap or touch at a
    closed end."""
    out = []
    for p in sorted(parts, key=lambda p: (p[0], not p[2])):
        if out:
            lo, hi, lc, hc = out[-1]
            if p[0] < hi or (p[0] == hi and (hc or p[2])):
                if (p[1], p[3]) > (hi, hc):
                    out[-1] = (lo, p[1], lc, p[3])
                continue
        out.append(p)
    return Line(out)


BOOL = {
    "union": lambda a, b: a or b,
    "intersect": lambda a, b: a and b,
    "difference": lambda a, b: a and not b,
    "symmdiff": lambda a, b: a != b,
}


def bool_op(kind, x, y=None):
    if kind == "complement":
        return build(x.breaks(), lambda t: t not in x)
    pred = BOOL[kind]
    return build(x.breaks() + y.breaks(), lambda t: pred(t in x, t in y))


def translate(x, a):
    return Line((_add(lo, a), _add(hi, a), lc, hc) for lo, hi, lc, hc in x.parts)


def scale(x, q):
    if q > 0:
        return Line((_mul(lo, q), _mul(hi, q), lc, hc)
                    for lo, hi, lc, hc in x.parts)
    return Line((_mul(hi, q), _mul(lo, q), hc, lc)
                for lo, hi, lc, hc in reversed(x.parts))


def is_ray(x):
    return (len(x.parts) == 1
            and (finite(x.parts[0][0]) != finite(x.parts[0][1])))


# ------------------------------------------------------------ planar cells
# ("point", x, y) | ("seg", slope, intercept, interval) | ("vseg", x, interval)

def cell_contains(c, x, y):
    if c[0] == "point":
        return c[1] == x and c[2] == y
    if c[0] == "seg":
        return y == c[1] * x + c[2] and inside(c[3], x)
    return x == c[1] and inside(c[2], y)


class Plane:
    """A list of cells indexed by carrier line, for membership queries."""

    def __init__(self, cells):
        self.points = set()
        self.lines = {}
        for c in cells:
            if c[0] == "point":
                self.points.add((c[1], c[2]))
            else:
                key = carrier(c)
                self.lines.setdefault(key, []).append(
                    c[3] if c[0] == "seg" else c[2])

    def owners(self, x, y):
        """The carrier of every cell containing (x, y), once per cell."""
        out = [None] if (x, y) in self.points else []
        for key, spans in self.lines.items():
            if on_carrier(key, x, y):
                t = y if key[0] == 1 else x
                out += [key for span in spans if inside(span, t)]
        return out

    def __contains__(self, p):
        return bool(self.owners(*p))


def carrier(c):
    """Sort key of the cell's line: non-vertical lines first."""
    if c[0] == "seg":
        return (0, c[1], c[2])
    if c[0] == "vseg":
        return (1, c[1], Fraction(0))
    return None


def on_carrier(key, x, y):
    if key[0] == 1:
        return x == key[1]
    return y == key[1] * x + key[2]


def carrier_point(key, t):
    if key[0] == 1:
        return key[1], t
    return t, key[1] * t + key[2]


def crossing(k1, k2):
    if k1[0] == 1 and k2[0] == 1:
        return None
    if k1[0] == 1:
        k1, k2 = k2, k1
    if k2[0] == 1:
        return k2[1], k1[1] * k2[1] + k1[2]
    if k1[1] == k2[1]:
        return None
    x = (k2[2] - k1[2]) / (k1[1] - k2[1])
    return x, k1[1] * x + k1[2]


def cell_samples(c):
    """Finite ends of a cell and one interior point of it."""
    if c[0] == "point":
        return [(c[1], c[2])]
    key = carrier(c)
    lo, hi = c[3][:2] if c[0] == "seg" else c[2][:2]
    ts = [e for e in (lo, hi) if finite(e)]
    if finite(lo) and finite(hi):
        ts.append((lo + hi) / 2)
    elif finite(lo):
        ts.append(lo + 1)
    elif finite(hi):
        ts.append(hi - 1)
    else:
        ts.append(Fraction(0))
    return [carrier_point(key, t) for t in ts]


def section(cells, slope, offset):
    """{t : (t, slope*t + offset) in cells}, or {t : (offset, t) in cells}
    for the vertical line x = offset."""
    parts = []
    for c in cells:
        if slope == "vertical":
            if c[0] == "point" and c[1] == offset:
                parts.append((c[2], c[2], True, True))
            elif c[0] == "seg" and inside(c[3], offset):
                v = c[1] * offset + c[2]
                parts.append((v, v, True, True))
            elif c[0] == "vseg" and c[1] == offset:
                parts.append(c[2])
        elif c[0] == "point":
            if c[2] == slope * c[1] + offset:
                parts.append((c[1], c[1], True, True))
        elif c[0] == "seg":
            if c[1] == slope:
                if c[2] == offset:
                    parts.append(c[3])
            else:
                t = (offset - c[2]) / (c[1] - slope)
                if inside(c[3], t):
                    parts.append((t, t, True, True))
        elif inside(c[2], slope * c[1] + offset):
            parts.append((c[1], c[1], True, True))
    return normalize(parts)


# ------------------------------------------------------------ families
# ("graph", domain, (slope, intercept))
# ("band", domain, lower, upper, lower_closed, upper_closed), where a
# boundary is (slope, intercept) or an infinity

def bval(b, t):
    return b[0] * t + b[1] if isinstance(b, tuple) else b


def fiber(cells, t):
    parts = []
    for c in cells:
        if not inside(c[1], t):
            continue
        if c[0] == "graph":
            v = bval(c[2], t)
            parts.append((v, v, True, True))
            continue
        lo, hi = bval(c[2], t), bval(c[3], t)
        if lo < hi:
            parts.append((lo, hi, c[4], c[5]))
        elif lo == hi and c[4] and c[5]:
            parts.append((lo, lo, True, True))
    return normalize(parts)


def band_bounded(c):
    return c[0] == "graph" or (isinstance(c[2], tuple) and isinstance(c[3], tuple))


# ------------------------------------------------------------ documents

def load(text):
    try:
        doc = json.loads(text)
    except ValueError:
        fail("output is not JSON")
    if not isinstance(doc, dict) or doc.get("version") != "1" \
            or not isinstance(doc.get("objects"), dict):
        fail("output is not a version-1 document")
    return doc["objects"]


def get(objects, name, typ):
    obj = objects.get(name)
    if not isinstance(obj, dict) or obj.get("type") != typ:
        fail(f"object {name!r} is not a {typ}")
    return obj


def read_interval(o):
    try:
        p = (parse_ext(o["lo"]), parse_ext(o["hi"]),
             o["lo_closed"], o["hi_closed"])
    except (KeyError, TypeError):
        fail(f"bad interval {o!r}")
    if not isinstance(p[2], bool) or not isinstance(p[3], bool):
        fail(f"bad closure flags in {o!r}")
    return p


def read_line(obj):
    if not isinstance(obj, dict) or obj.get("type") != "interval_union":
        fail("expected an interval_union")
    return canonical(read_interval(o) for o in obj["intervals"])


def read_cells(obj):
    if not isinstance(obj, dict) or obj.get("type") != "planar_complex":
        fail("expected a planar_complex")
    cells = []
    for c in obj["cells"]:
        kind = c.get("kind")
        if kind == "point":
            cells.append(("point", parse_ext(c["x"]), parse_ext(c["y"])))
        elif kind == "seg":
            cells.append(("seg", parse_ext(c["slope"]),
                          parse_ext(c["intercept"]), read_interval(c["domain"])))
        elif kind == "vseg":
            cells.append(("vseg", parse_ext(c["x"]), read_interval(c["range"])))
        else:
            fail(f"unknown cell kind {kind!r}")
    return cells


def encode_interval(p):
    return {"lo": fmt(p[0]), "hi": fmt(p[1]),
            "lo_closed": p[2], "hi_closed": p[3]}


def encode_line(x):
    return {"type": "interval_union",
            "intervals": [encode_interval(p) for p in x.parts]}


def encode_cell(c):
    if c[0] == "point":
        return {"kind": "point", "x": fmt(c[1]), "y": fmt(c[2])}
    if c[0] == "seg":
        return {"kind": "seg", "slope": fmt(c[1]), "intercept": fmt(c[2]),
                "domain": encode_interval(c[3])}
    return {"kind": "vseg", "x": fmt(c[1]), "range": encode_interval(c[2])}


def encode_cells(cells):
    return {"type": "planar_complex", "cells": [encode_cell(c) for c in cells]}


def _encode_boundary(b):
    if isinstance(b, tuple):
        return {"slope": fmt(b[0]), "intercept": fmt(b[1])}
    return fmt(b)


def encode_family(cells):
    out = []
    for c in cells:
        if c[0] == "graph":
            out.append({"kind": "graph", "domain": encode_interval(c[1]),
                        "value": _encode_boundary(c[2])})
        else:
            out.append({"kind": "band", "domain": encode_interval(c[1]),
                        "lower": _encode_boundary(c[2]),
                        "upper": _encode_boundary(c[3]),
                        "lower_closed": c[4], "upper_closed": c[5]})
    return {"type": "family", "cells": out}


def document(objects):
    return json.dumps({"version": "1", "objects": objects}, indent=1) + "\n"


# ------------------------------------------------------------ traces

def replay(trace, env):
    """Evaluate a trace document object over the 1-D and planar values in
    ``env`` (Line or cell list), with this module's arithmetic."""
    if not isinstance(trace, dict) or trace.get("type") != "trace":
        fail("expected a trace")
    gens = trace["generators"]
    if not isinstance(gens, list) or any(g not in env for g in gens):
        fail(f"trace generators {gens!r} are not in the input")
    values = []

    def ref(r):
        if isinstance(r, str):
            if r not in gens:
                fail(f"trace names unknown generator {r!r}")
            return env[r]
        if not isinstance(r, int) or not 0 <= r < len(values):
            fail(f"trace reference {r!r} points forward")
        return values[r]

    for step in trace["steps"]:
        op, src = step.get("op"), ref(step.get("src"))
        if op == "section":
            if isinstance(src, Line):
                fail("section of a 1-D set")
            slope = step["slope"]
            values.append(section(src, slope if slope == "vertical"
                                  else parse_ext(slope),
                                  parse_ext(step["offset"])))
            continue
        if not isinstance(src, Line):
            fail(f"trace op {op!r} on a planar value is not replayed here")
        if op == "translate":
            values.append(translate(src, parse_ext(step["amount"])))
        elif op == "scale":
            q = parse_ext(step["factor"])
            if q == 0:
                fail("scale by zero")
            values.append(scale(src, q))
        elif op == "complement":
            values.append(bool_op("complement", src))
        elif op in ("intersect", "union", "diff"):
            other = ref(step.get("other"))
            if not isinstance(other, Line):
                fail("mixed dimensions in a binary step")
            kind = "difference" if op == "diff" else op
            values.append(bool_op(kind, src, other))
        else:
            fail(f"trace op {op!r} is outside the 1-D alphabet")
    return ref(trace["output"])
