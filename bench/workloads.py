"""Seeded job generators: three kernel groups and the golden documents.

A job is one CLI command on one input document of its own.  Each
generator returns the jobs of one round: every ladder of its group at
every size.  The check attached to a job is its output oracle (see
``oracle.py``); it never calls semilin.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional

from oracle import (INF, Line, Plane, band_bounded, bool_op, build, bval,
                    canonical, carrier, carrier_point, cell_contains,
                    cell_samples, crossing, document, encode_cells,
                    encode_family, encode_line, fail, fiber, finite, get,
                    inside, is_ray, load, on_carrier, parse_ext, read_cells,
                    read_interval, read_line, replay, scale, translate)

# Ladder sizes per kernel group.  The top rungs keep every job under about a
# second at the seed commit; the quadratic and cubic ladders are there on
# purpose.
LADDERS = {
    "line": {
        "boolop.intersect": [25, 100, 200, 300, 400],
        "boolop.difference": [50, 150, 250, 350],
        "boolop.symmdiff": [75, 175, 275, 350],
        "boolop.union": [25, 100, 400],
        "boolop.complement": [25, 100, 400],
        "derive_ray": [5, 10, 20, 28, 34],
        "replay": [5, 10, 20, 28, 34],
        "classify": [5, 10, 15, 20],
        "derive_interval": [8, 32, 128],
        "isolate": [4, 8, 11, 13, 15],
    },
    "plane": {
        "pc_normalize": [10, 20, 26, 32, 36, 40],
        "pc_boolop.intersect": [10, 25, 40],
        "pc_boolop.difference": [15, 30, 45],
        "pc_decompose": [5, 10, 15],
        "classify.lin_star": [5, 10, 12, 14],
        "classify.semi": [4, 8, 12, 16],
    },
    "families": {
        "uniform_bound": [10, 16, 22, 28, 34],
        "endpoint_family.left": [12, 18, 24, 30],
        "endpoint_family.right": [14, 20, 26, 32],
        "bounded_params": [10, 30, 60],
        "match_endpoints": [10, 15, 20, 25, 30],
        "fiber": [10, 30, 45, 60],
    },
}


@dataclass
class Job:
    ladder: str
    size: int
    argv: List[str]
    doc: Optional[str]
    check: Callable[[int, str], None]
    # a job whose input is made from another job's output
    after: Optional["Job"] = None
    make_doc: Optional[Callable[[str], str]] = None
    paths: tuple = ()  # input and output file, set by the runner


def _rungs(group, ladder, smoke):
    sizes = LADDERS[group][ladder]
    return sizes[:1] if smoke else sizes


def _flip(rng):
    return rng.random() < 0.5


def _q(rng, lo, hi, dens=(1, 2, 3, 4)):
    d = rng.choice(dens)
    return Fraction(rng.randint(lo * d, hi * d), d)


def _expect_ok(code):
    if code != 0:
        fail(f"exit code {code}")


# ================================================================ line

def interleaved(rng, n):
    """Two unions of n parts each, part i of X overlapping part i of Y;
    X may start with a left ray and Y end with a right ray."""
    xs, ys = [], []
    if _flip(rng):
        xs.append((-INF, Fraction(-1), False, _flip(rng)))
    for i in range(n):
        base = 4 * i
        a = base + Fraction(rng.randint(0, 3), 4)
        if rng.random() < 0.1:
            xs.append((a, a, True, True))
        else:
            xs.append((a, base + 2 + Fraction(rng.randint(0, 3), 4),
                       _flip(rng), _flip(rng)))
        c = base + 1 + Fraction(rng.randint(0, 3), 4)
        if rng.random() < 0.1:
            ys.append((c, c, True, True))
        else:
            ys.append((c, base + 3 + Fraction(rng.randint(0, 3), 4),
                       _flip(rng), _flip(rng)))
    if _flip(rng):
        ys.append((Fraction(4 * n + 1), INF, _flip(rng), False))
    return canonical(xs), canonical(ys)


def ray_islands(rng, n):
    """A ray plus n bounded islands on its open side (mirrored half the
    time), so the set is unbounded on both sides."""
    end = _q(rng, -5, 5)
    parts = [(-INF, end, False, _flip(rng))]
    pos = end
    for _ in range(n):
        lo = pos + Fraction(rng.randint(2, 8), 4)
        if rng.random() < 0.15:
            parts.append((lo, lo, True, True))
            pos = lo
        else:
            pos = lo + Fraction(rng.randint(1, 12), 4)
            parts.append((lo, pos, _flip(rng), _flip(rng)))
    x = canonical(parts)
    return scale(x, -1) if _flip(rng) else x


def bounded_runs(rng, k):
    """k non-degenerate bounded parts; the complement half the time, which
    is co-bounded."""
    parts = []
    pos = _q(rng, -10, 10)
    for _ in range(k):
        lo = pos + Fraction(rng.randint(1, 8), 4)
        pos = lo + Fraction(rng.randint(1, 12), 4)
        parts.append((lo, pos, _flip(rng), _flip(rng)))
    x = canonical(parts)
    return bool_op("complement", x) if _flip(rng) else x


def isolatable(rng, k):
    """k densely packed parts of distinct lengths whose last part is a
    translate of the first, so an isolating shift exists and the search
    meets it only near the end of its candidate list."""
    lengths = [Fraction(v, 8) for v in rng.sample(range(12, 40), k - 1)]
    first = lengths[0]
    lc, hc = _flip(rng), _flip(rng)
    parts = []
    pos = _q(rng, -10, 10)
    start = pos
    for length in lengths:
        lo = pos
        pos = lo + length
        closed = (lc, hc) if lo == start else (_flip(rng), _flip(rng))
        parts.append((lo, pos, closed[0], closed[1]))
        pos += Fraction(rng.randint(1, 4), 8)
    parts.append((pos, pos + first, lc, hc))
    return canonical(parts)


def _boolop_job(kind, n, x, y):
    objects = {"X": encode_line(x)}
    argv = ["boolop", "--kind", kind, "--x", "X"]
    if kind != "complement":
        objects["Y"] = encode_line(y)
        argv += ["--y", "Y"]
    expected = bool_op(kind, x, y)

    def check(code, out):
        _expect_ok(code)
        got = read_line(get(load(out), "result", "interval_union"))
        if got != expected:
            fail(f"{kind}: {got} != {expected}")

    return Job(f"boolop.{kind}", n, argv, document(objects), check)


def _check_ray_cert(ray, replayed):
    if not is_ray(ray):
        fail(f"{ray} is not a ray")
    if replayed != ray:
        fail(f"trace replays to {replayed}, not to {ray}")


def _derive_ray_jobs(n, y):
    # one replay of the returned trace serves both checks, whichever of
    # the two jobs is verified first
    made = {}

    def replayed(trace):
        if "replayed" not in made:
            made["replayed"] = replay(trace, {"Y": y})
        return made["replayed"]

    def check_ray(code, out):
        _expect_ok(code)
        objects = load(out)
        trace = get(objects, "trace", "trace")
        if trace != made["trace"]:
            fail("trace differs from the one the replay job was given")
        _check_ray_cert(read_line(get(objects, "ray", "interval_union")),
                        replayed(trace))

    derive = Job("derive_ray", n, ["derive-ray", "--x", "Y"],
                 document({"Y": encode_line(y)}), check_ray)

    def make_doc(out):
        made["trace"] = get(load(out), "trace", "trace")
        return document({"Y": encode_line(y), "tr": made["trace"]})

    def check_replay(code, out):
        _expect_ok(code)
        got = read_line(get(load(out), "result", "interval_union"))
        _check_ray_cert(got, replayed(made["trace"]))

    return [derive, Job("replay", n, ["replay", "--trace", "tr"], None,
                        check_replay, after=derive, make_doc=make_doc)]


def _verdict(out, level):
    v = get(load(out), "result", "verdict")
    if v.get("level") != level:
        fail(f"level {v.get('level')!r}, generator says {level}")
    return v


def _check_semi(v, name, env):
    cert = v.get("ray")
    if not isinstance(cert, dict) or cert.get("generator") != name:
        fail("SEMI verdict without a ray certificate for the generator")
    if "lin_forms" in v or "baselines" in v:
        fail("SEMI verdict carries lower-level certificates")
    _check_ray_cert(read_line(cert["ray"]), replay(cert["trace"], env))


def _classify_1d_job(n, g):
    def check(code, out):
        _expect_ok(code)
        _check_semi(_verdict(out, "SEMI"), "G", {"G": g})

    return Job("classify", n, ["classify", "--all"],
               document({"G": encode_line(g)}), check)


def _derive_interval_job(k, y):
    def check(code, out):
        _expect_ok(code)
        objects = load(out)
        got = read_line(get(objects, "interval", "interval_union"))
        if len(got.parts) != 1 or not got.bounded \
                or got.parts[0][0] == got.parts[0][1]:
            fail(f"{got} is not one bounded non-degenerate interval")
        if replay(get(objects, "trace", "trace"), {"Y": y}) != got:
            fail("trace does not replay to the interval")

    return Job("derive_interval", k, ["derive-interval", "--x", "Y"],
               document({"Y": encode_line(y)}), check)


def _isolate_job(k, x):
    def check(code, out):
        _expect_ok(code)
        iso = get(load(out), "result", "isolation")
        shift, single = parse_ext(iso["shift"]), read_interval(iso["single"])
        if single not in x.parts:
            fail(f"{single} is not a component")
        if bool_op("intersect", translate(x, shift), x) != Line([single]):
            fail(f"shift {shift} does not isolate {single}")

    return Job("isolate", k, ["isolate", "--x", "X"],
               document({"X": encode_line(x)}), check)


def line_round(rng, smoke=False):
    jobs = []
    for kind in ("intersect", "difference", "symmdiff", "union", "complement"):
        for n in _rungs("line", f"boolop.{kind}", smoke):
            jobs.append(_boolop_job(kind, n, *interleaved(rng, n)))
    # replay runs the trace of the derive-ray job of the same size
    for n in _rungs("line", "derive_ray", smoke):
        jobs += _derive_ray_jobs(n, ray_islands(rng, n))
    for n in _rungs("line", "classify", smoke):
        jobs.append(_classify_1d_job(n, ray_islands(rng, n)))
    for k in _rungs("line", "derive_interval", smoke):
        jobs.append(_derive_interval_job(k, bounded_runs(rng, k)))
    for k in _rungs("line", "isolate", smoke):
        jobs.append(_isolate_job(k, isolatable(rng, k)))
    return jobs


# ================================================================ plane

_SLOPE_POOL = sorted({Fraction(p, q) for p in range(-24, 25)
                      for q in (1, 2, 3, 4, 5)})


def general_lines(rng, k):
    """k non-vertical carrier keys, no two parallel and no three through
    one point."""
    keys, points = [], set()
    for slope in rng.sample(_SLOPE_POOL, k):
        while True:
            key = (0, slope, _q(rng, -10, 10, (1, 2, 3, 4, 5)))
            new = {crossing(key, other) for other in keys}
            if len(new) == len(keys) and not new & points:
                break
        keys.append(key)
        points |= new
    return keys


def _full_line_pieces(rng, key):
    # the full line given as overlapping pieces, so runs must be merged
    a = _q(rng, -8, 8)
    b = a + _q(rng, 1, 6)
    return [("seg", key[1], key[2], (-INF, a, False, True)),
            ("seg", key[1], key[2], (a - 1, b, _flip(rng), False)),
            ("seg", key[1], key[2], (b - Fraction(1, 2), INF, True, False))]


def _pc_normalize_job(rng, k):
    keys = general_lines(rng, k)
    cells = [c for key in keys for c in _full_line_pieces(rng, key)]
    rng.shuffle(cells)
    pairs = [tuple(rng.sample(keys, 2)) for _ in range(12)]
    params = [Fraction(rng.randint(-10**6, 10**6), 7919) for _ in keys]

    def check(code, out):
        _expect_ok(code)
        got = read_cells(get(load(out), "result", "planar_complex"))
        if len(got) != k + k * (k - 1) // 2:
            fail(f"{len(got)} cells for {k} lines in general position")
        if {carrier(c) for c in got} != set(keys):
            fail("output carriers differ from the input lines")
        plane = Plane(got)
        for a, b in pairs:
            p = crossing(a, b)
            owners = plane.owners(*p)
            if owners != [min(a, b)]:
                fail(f"crossing {p} is held by {owners}")
        for key, t in zip(keys, params):
            p = carrier_point(key, t)
            if any(on_carrier(other, *p) for other in keys if other != key):
                continue
            owners = plane.owners(*p)
            if owners != [key]:
                fail(f"line point {p} is held by {owners}")

    return Job("pc_normalize", k, ["pc-normalize", "--x", "X"],
               document({"X": encode_cells(cells)}), check)


_SMALL_SLOPES = [Fraction(v) for v in (-2, -1, 0, 1, 2)] + [Fraction(1, 2)]


def random_cells(rng, m):
    """m cells on a few shared carriers, so operands overlap along lines."""
    cells = []
    for _ in range(m):
        r = rng.random()
        if r < 0.15:
            cells.append(("point", _q(rng, -6, 6, (1, 2)),
                          _q(rng, -6, 6, (1, 2))))
            continue
        lo = _q(rng, -8, 6, (1, 2))
        hi = lo + _q(rng, 1, 6, (1, 2))
        dom = (lo, hi, _flip(rng), _flip(rng))
        if rng.random() < 0.15:
            dom = (-INF, hi, False, dom[3]) if _flip(rng) \
                else (lo, INF, dom[2], False)
        if r < 0.3:
            cells.append(("vseg", Fraction(rng.randint(-6, 6), 2), dom))
        else:
            cells.append(("seg", rng.choice(_SMALL_SLOPES),
                          Fraction(rng.randint(-3, 3)), dom))
    return cells


def _pc_boolop_job(rng, kind, m):
    x, y = random_cells(rng, m), random_cells(rng, m)
    keys_x = [carrier(c) for c in x if carrier(c)]
    keys_y = [carrier(c) for c in y if carrier(c)]
    probes = []
    for _ in range(40):
        p = crossing(rng.choice(keys_x), rng.choice(keys_y))
        if p is not None:
            probes.append(p)
    want = (lambda a, b: a and b) if kind == "intersect" else \
        (lambda a, b: a and not b)

    def check(code, out):
        _expect_ok(code)
        got = read_cells(get(load(out), "result", "planar_complex"))
        px, py, pgot = Plane(x), Plane(y), Plane(got)
        points = list(probes)
        for c in x + y + got:
            points += cell_samples(c)
        for p in points:
            expect = want(p in px, p in py)
            if (p in pgot) != expect:
                fail(f"{kind}: membership of {p} should be {expect}")

    return Job(f"pc_boolop.{kind}", m,
               ["pc-boolop", "--kind", kind, "--x", "X", "--y", "Y"],
               document({"X": encode_cells(x), "Y": encode_cells(y)}), check)


def gapped_lines(rng, k):
    """k lines in general position, each missing a gap, plus k bounded
    vertical segments: a LIN_STAR generator."""
    keys = general_lines(rng, k)
    cells = []
    for key in keys:
        g1 = _q(rng, -8, 8)
        g2 = g1 + _q(rng, 1, 4)
        cells.append(("seg", key[1], key[2], (-INF, g1, False, _flip(rng))))
        cells.append(("seg", key[1], key[2], (g2, INF, _flip(rng), False)))
    for _ in range(k):
        lo = _q(rng, -8, 8)
        cells.append(("vseg", _q(rng, -8, 8),
                      (lo, lo + _q(rng, 1, 6), _flip(rng), _flip(rng))))
    rng.shuffle(cells)
    return keys, cells


def _bounded_cell(c):
    if c[0] == "point":
        return True
    lo, hi = (c[3] if c[0] == "seg" else c[2])[:2]
    return finite(lo) and finite(hi)


def _points_of(c):
    return [p for p in cell_samples(c) if cell_contains(c, *p)]


def _pc_decompose_job(rng, k):
    keys, cells = gapped_lines(rng, k)
    graphs = {}
    for key in keys:
        graphs.setdefault(key[1], []).append(key[2])
    expected = {s: sorted(ds) for s, ds in graphs.items()}

    def check(code, out):
        _expect_ok(code)
        dec = get(load(out), "result", "decomposition")
        got = {parse_ext(g["slope"]): [parse_ext(d) for d in g["offsets"]]
               for g in dec["graphs"]}
        if got != expected or dec["verticals"] or dec["unresolved"]:
            fail("decomposition lines differ from the generator's")
        residue = read_cells(dec["residue"])
        given, kept = Plane(cells), Plane(residue)
        for c in residue:
            if not _bounded_cell(c):
                fail(f"residue cell {c} is unbounded")
            for p in _points_of(c):
                if p not in given:
                    fail(f"residue point {p} is not in the input")
        for c in cells:
            for p in _points_of(c):
                if not (any(on_carrier(key, *p) for key in keys)
                        or p in kept):
                    fail(f"input point {p} is neither on a line nor in the residue")

    return Job("pc_decompose", k, ["pc-decompose", "--x", "M"],
               document({"M": encode_cells(cells)}), check)


def _classify_lin_star_job(rng, k):
    keys, cells = gapped_lines(rng, k)
    params = [Fraction(rng.randint(-10**6, 10**6), 7919) for _ in keys]

    def check(code, out):
        _expect_ok(code)
        v = _verdict(out, "LIN_STAR")
        if "ray" in v or "lin_forms" in v:
            fail("LIN_STAR verdict carries other certificates")
        base = read_cells(get(v.get("baselines", {}), "M", "planar_complex"))
        if {carrier(c) for c in base} != set(keys):
            fail("baseline lines differ from the generator's")
        plane = Plane(base)
        for key, t in zip(keys, params):
            if carrier_point(key, t) not in plane:
                fail("baseline misses a point of its line")

    return Job("classify.lin_star", k, ["classify", "--all"],
               document({"M": encode_cells(cells)}), check)


def halflines(rng, k):
    """k items, each a half-line or a V-shape, on pairwise distinct lines:
    a SEMI generator."""
    slopes = iter(rng.sample(_SLOPE_POOL, 2 * k))
    cells = []
    for _ in range(k):
        x0, y0 = _q(rng, -8, 8), _q(rng, -8, 8)
        s = next(slopes)
        if _flip(rng):
            dom = (x0, INF, _flip(rng), False) if _flip(rng) \
                else (-INF, x0, False, _flip(rng))
            cells.append(("seg", s, y0 - s * x0, dom))
        else:
            s2 = next(slopes)
            cells.append(("seg", s, y0 - s * x0, (-INF, x0, False, True)))
            cells.append(("seg", s2, y0 - s2 * x0, (x0, INF, False, False)))
    rng.shuffle(cells)
    return cells


def _classify_semi_job(rng, k):
    cells = halflines(rng, k)

    def check(code, out):
        _expect_ok(code)
        _check_semi(_verdict(out, "SEMI"), "H", {"H": cells})

    return Job("classify.semi", k, ["classify", "--all"],
               document({"H": encode_cells(cells)}), check)


def plane_round(rng, smoke=False):
    jobs = []
    for k in _rungs("plane", "pc_normalize", smoke):
        jobs.append(_pc_normalize_job(rng, k))
    for kind in ("intersect", "difference"):
        for m in _rungs("plane", f"pc_boolop.{kind}", smoke):
            jobs.append(_pc_boolop_job(rng, kind, m))
    for k in _rungs("plane", "pc_decompose", smoke):
        jobs.append(_pc_decompose_job(rng, k))
    for k in _rungs("plane", "classify.lin_star", smoke):
        jobs.append(_classify_lin_star_job(rng, k))
    for k in _rungs("plane", "classify.semi", smoke):
        jobs.append(_classify_semi_job(rng, k))
    return jobs


# ================================================================ families

def _domain(rng, lo=0, hi=100):
    return (Fraction(lo), Fraction(hi), _flip(rng), _flip(rng))


def _through(y0, y1):
    # the affine boundary with value y0 at t = 0 and y1 at t = 100
    return ((y1 - y0) / 100, y0)


def family(rng, m, unbounded=0):
    """m bands over [0, 100] whose boundaries cross a seed-independent
    number of times, plus m // 8 graphs and up to two ``unbounded`` bands.

    Band i sits near height 10i at t = 0 and near 10(i + 1) at t = 100,
    except the top band, which ends at the bottom: its four boundary
    crossings with each of the other m - 1 bands make the critical points,
    the same number for every seed.  Graphs move the same way between the
    bands.  The unbounded bands lie below everything, over [0, 10] and
    [90, 100].
    """
    def height(slot):
        return Fraction(10 * slot) + Fraction(rng.randint(0, 8), 8)

    cells = []
    for i in range(m):
        y0, y1 = height(i), height((i + 1) % m)
        w0, w1 = Fraction(rng.randint(4, 16), 4), Fraction(rng.randint(4, 16), 4)
        cells.append(("band", _domain(rng), _through(y0, y1),
                      _through(y0 + w0, y1 + w1), _flip(rng), _flip(rng)))
    for g in range(m // 8):
        slot = 8 * g
        cells.append(("graph", _domain(rng),
                      _through(height(slot) + 5, height((slot + 1) % m) + 5)))
    for i in range(unbounded):
        cells.append(("band", _domain(rng, 90 * i, 90 * i + 10),
                      (Fraction(0), Fraction(-100)), INF, _flip(rng), False))
    rng.shuffle(cells)
    return cells


def _samples(rng, cells, count=24):
    ts = {e for c in cells for e in c[1][:2]}
    ts |= {Fraction(rng.randint(0, 100 * 97), 97) for _ in range(count)}
    return sorted(ts)


def _bounded_at(cells, t):
    return all(band_bounded(c) for c in cells if inside(c[1], t))


def _uniform_bound_job(rng, m):
    cells = family(rng, m, unbounded=2)
    ts = [t for t in _samples(rng, cells) if _bounded_at(cells, t)]
    # no component is longer than the spread of all finite boundaries
    finite_cells = [c for c in cells if band_bounded(c)]
    top = max(bval(c[3] if c[0] == "band" else c[2], t)
              for c in finite_cells for t in c[1][:2])
    bottom = min(bval(c[2], t) for c in finite_cells for t in c[1][:2])

    def check(code, out):
        _expect_ok(code)
        k = parse_ext(get(load(out), "result", "extended")["value"])
        longest = max((p[1] - p[0] for t in ts for p in fiber(cells, t).parts),
                      default=Fraction(0))
        if not longest <= k <= top - bottom:
            fail(f"bound {k} outside [{longest}, {top - bottom}]")

    return Job("uniform_bound", m, ["uniform-bound", "--family", "F"],
               document({"F": encode_family(cells)}), check)


def _endpoint_family_job(rng, side, m):
    cells = family(rng, m)
    ts = _samples(rng, cells)

    def check(code, out):
        _expect_ok(code)
        graphs = get(load(out), "result", "family")["cells"]
        fns = []
        for g in graphs:
            if g.get("kind") != "graph":
                fail("endpoint family has a band")
            fns.append((read_interval(g["domain"]),
                        parse_ext(g["value"]["slope"]),
                        parse_ext(g["value"]["intercept"])))
        for t in ts:
            want = sorted(p[0] if side == "left" else p[1]
                          for p in fiber(cells, t).parts)
            got = sorted(a * t + b for dom, a, b in fns if inside(dom, t))
            if got != want:
                fail(f"{side} endpoints at t={t}: {got} != {want}")

    return Job(f"endpoint_family.{side}", m,
               ["endpoint-family", "--family", "F", "--side", side],
               document({"F": encode_family(cells)}), check)


def _bounded_params_job(rng, m):
    cells = family(rng, m, unbounded=2)
    ends = [e for c in cells for e in c[1][:2]]

    def member(t):
        active = [c for c in cells if inside(c[1], t)]
        return bool(active) and all(band_bounded(c) for c in active)

    expected = build(ends, member)

    def check(code, out):
        _expect_ok(code)
        got = read_line(get(load(out), "result", "interval_union"))
        if got != expected:
            fail(f"bounded parameters {got} != {expected}")

    return Job("bounded_params", m, ["bounded-params", "--family", "F"],
               document({"F": encode_family(cells)}), check)


def _fiber_param(rng, cells, bounded):
    # a parameter whose fiber is nonempty, and where no two components
    # share an endpoint (match-endpoints rejects that case by contract)
    while True:
        t = Fraction(rng.randint(0, 100 * 89), 89)
        fib = fiber(cells, t)
        if not fib.parts or (bounded and not fib.bounded):
            continue
        if all(a[1] != b[0] for a, b in zip(fib.parts, fib.parts[1:])):
            return t, fib


def _match_endpoints_job(rng, m):
    cells = family(rng, m)
    t, fib = _fiber_param(rng, cells, bounded=True)
    expected = [[str(p[0]), str(p[1])] for p in fib.parts]

    def check(code, out):
        _expect_ok(code)
        got = get(load(out), "result", "pairs")["pairs"]
        if got != expected:
            fail(f"pairs {got} != components {expected}")

    return Job("match_endpoints", m,
               ["match-endpoints", "--family", "F", "--t", str(t)],
               document({"F": encode_family(cells)}), check)


def _fiber_job(rng, m):
    cells = family(rng, m, unbounded=2)
    t, expected = _fiber_param(rng, cells, bounded=False)

    def check(code, out):
        _expect_ok(code)
        got = read_line(get(load(out), "result", "interval_union"))
        if got != expected:
            fail(f"fiber {got} != {expected}")

    return Job("fiber", m, ["fiber", "--family", "F", "--t", str(t)],
               document({"F": encode_family(cells)}), check)


def families_round(rng, smoke=False):
    jobs = []
    for m in _rungs("families", "uniform_bound", smoke):
        jobs.append(_uniform_bound_job(rng, m))
    for side in ("left", "right"):
        for m in _rungs("families", f"endpoint_family.{side}", smoke):
            jobs.append(_endpoint_family_job(rng, side, m))
    for m in _rungs("families", "bounded_params", smoke):
        jobs.append(_bounded_params_job(rng, m))
    for m in _rungs("families", "match_endpoints", smoke):
        jobs.append(_match_endpoints_job(rng, m))
    for m in _rungs("families", "fiber", smoke):
        jobs.append(_fiber_job(rng, m))
    return jobs


# ================================================================ small-docs

# (case, input document, argv); the output is tests/golden/<case>.out.json
GOLDEN_CASES = [
    ("ray_island", "ray_island", ["derive-ray", "--x", "Y"]),
    ("reflect_island", "ray_island", ["affine", "--x", "Y", "--q", "-1", "--a", "0"]),
    ("classify_ray", "ray_island", ["classify", "--all"]),
    ("endpoints_punctured", "punctured_line", ["endpoints", "--x", "X", "--side", "right"]),
    ("bound_drifting", "drifting_pair", ["uniform-bound", "--family", "F"]),
    ("fiber_drifting", "drifting_pair", ["fiber", "--family", "F", "--t", "5"]),
    ("params_punctured", "punctured_family", ["bounded-params", "--family", "F"]),
    ("bound_widening", "widening_family", ["uniform-bound", "--family", "F"]),
    ("normalize_overlap", "normalize_overlap", ["normalize", "--x", "X"]),
    ("isolate_wide", "isolate_wide", ["isolate", "--x", "X"]),
    ("interval_contraction", "contraction", ["derive-interval", "--x", "Y"]),
    ("witness", "witness", ["boundedness", "--x", "X"]),
    ("classify_vset", "vset", ["classify", "--all"]),
    ("decompose_vset", "vset", ["pc-decompose", "--x", "V"]),
    ("section_vset", "vset", ["pc-section", "--x", "V", "--slope", "1", "--offset", "0"]),
    ("classify_line_box", "line_box", ["classify", "--all"]),
    ("stab_line_box", "line_box", ["pc-stab", "--x", "M"]),
    ("decompose_line_box", "line_box", ["pc-decompose", "--x", "M"]),
    ("replay_ray", "replay_ray", ["replay", "--trace", "tr"]),
    ("matching", "matching", ["match-endpoints", "--family", "F", "--t", "5"]),
    ("endpoint_family", "matching", ["endpoint-family", "--family", "F", "--side", "left"]),
]

# contract errors: exit code 2 with this error tag
ERROR_CASES = [
    ("ray_on_bounded", "witness", ["derive-ray", "--x", "X"], "PreconditionError"),
    ("unknown_name", "witness", ["normalize", "--x", "missing"], "SemilinError"),
]


def _relayout(rng, text, serial):
    # same objects in the same order, laid out differently per job; the
    # trailing whitespace spells ``serial`` in binary (space 0, tab 1), so
    # no two jobs of a run read the same bytes
    indent = rng.choice([None, 0, 1, 2, 3, 4])
    seps = rng.choice([(",", ": "), (", ", ": "), (",", ":")])
    tail = format(serial, "b").replace("0", " ").replace("1", "\t")
    return (json.dumps(json.loads(text), indent=indent, separators=seps)
            + tail + "\n")


def small_docs_round(rng, golden_dir, index):
    """The golden cases and contract errors of round ``index``."""
    jobs = []
    serial = index * (len(GOLDEN_CASES) + len(ERROR_CASES))
    for case, source, argv in GOLDEN_CASES:
        with open(os.path.join(golden_dir, f"{case}.out.json"), "rb") as fh:
            expected = fh.read().decode("utf-8")
        with open(os.path.join(golden_dir, f"{source}.in.json")) as fh:
            serial += 1
            doc = _relayout(rng, fh.read(), serial)

        def check(code, out, expected=expected):
            _expect_ok(code)
            if out != expected:
                fail("output differs from the golden file")

        jobs.append(Job(case, 1, argv, doc, check))
    for case, source, argv, tag in ERROR_CASES:
        with open(os.path.join(golden_dir, f"{source}.in.json")) as fh:
            serial += 1
            doc = _relayout(rng, fh.read(), serial)

        def check(code, out, tag=tag):
            if code != 2:
                fail(f"exit code {code}, want 2")
            if get(load(out), "error", "error").get("tag") != tag:
                fail(f"error tag is not {tag}")

        jobs.append(Job(case, 1, argv, doc, check))
    return jobs

