"""Shared helpers: a compact set notation for readable expectations and
seeded random generators for the property suites."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from semilin.intervals import Interval, IntervalUnion, affine_op, normalize
from semilin.family import AffineFn, Band, Family, Graph
from semilin.planar import (PlanarComplex, Point, Seg, VSeg, VERTICAL,
                            pc_normalize)
from semilin.rat import NEG_INF, POS_INF, parse_ext

_PIECE = re.compile(r"([\[(])([^,]+),([^)\]]+)([)\]])|\{([^}]+)\}")


def iu(text: str) -> IntervalUnion:
    """Parse '(0,1) [2,3) {7} (-inf,0)' into an IntervalUnion."""
    text = text.strip()
    if text in ("", "empty"):
        return IntervalUnion()
    parts = []
    pos = 0
    for m in _PIECE.finditer(text):
        if text[pos:m.start()].strip(" u|"):
            raise ValueError(f"bad set notation {text!r}")
        pos = m.end()
        if m.group(5) is not None:
            parts.append(Interval.point(Fraction(m.group(5))))
        else:
            parts.append(Interval(parse_ext(m.group(2).strip()),
                                  parse_ext(m.group(3).strip()),
                                  m.group(1) == "[", m.group(4) == "]"))
    if text[pos:].strip(" u|"):
        raise ValueError(f"bad set notation {text!r}")
    return normalize(parts)


def rat(rng: random.Random, span: int = 24) -> Fraction:
    return Fraction(rng.randint(-4 * span, 4 * span),
                    rng.choice([1, 1, 2, 3, 4]))


def random_union(rng: random.Random, max_parts: int = 4,
                 allow_rays: bool = True, allow_points: bool = True) -> IntervalUnion:
    parts = []
    for _ in range(rng.randint(0, max_parts)):
        kind = rng.random()
        if allow_points and kind < 0.2:
            parts.append(Interval.point(rat(rng)))
        elif allow_rays and kind < 0.3:
            if rng.random() < 0.5:
                parts.append(Interval(NEG_INF, rat(rng), False,
                                      rng.random() < 0.5))
            else:
                parts.append(Interval(rat(rng), POS_INF, rng.random() < 0.5,
                                      False))
        else:
            a, b = sorted((rat(rng), rat(rng)))
            if a == b:
                parts.append(Interval.point(a))
            else:
                parts.append(Interval(a, b, rng.random() < 0.5,
                                      rng.random() < 0.5))
    return normalize(parts)


def random_bounded_union(rng: random.Random, max_parts: int = 4) -> IntervalUnion:
    return random_union(rng, max_parts, allow_rays=False)


def random_bounded_infinite(rng: random.Random) -> IntervalUnion:
    while True:
        x = random_bounded_union(rng, 4)
        if any(not p.is_point for p in x.parts):
            return x


def random_both_unbounded(rng: random.Random) -> IntervalUnion:
    from semilin.intervals import OneDimKind, classify_one_dim
    while True:
        parts = list(random_bounded_union(rng, 3).parts)
        if rng.random() < 0.5:
            parts.append(Interval(NEG_INF, rat(rng), False, rng.random() < 0.5))
        else:
            parts.append(Interval(rat(rng), POS_INF, rng.random() < 0.5, False))
        x = normalize(parts)
        if classify_one_dim(x).kind is OneDimKind.BOTH_UNBOUNDED:
            return x


_SLOPES = [Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(0),
           Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)]


def random_domain(rng: random.Random, bounded: bool) -> Interval:
    if bounded:
        a, b = sorted((rat(rng), rat(rng)))
        while a == b:
            a, b = sorted((rat(rng), rat(rng)))
        return Interval(a, b, rng.random() < 0.5, rng.random() < 0.5)
    roll = rng.random()
    if roll < 0.3:
        return Interval(NEG_INF, rat(rng), False, rng.random() < 0.5)
    if roll < 0.6:
        return Interval(rat(rng), POS_INF, rng.random() < 0.5, False)
    return Interval(NEG_INF, POS_INF)


def random_cell(rng: random.Random, bounded: bool = False):
    roll = rng.random()
    if roll < 0.2:
        return Point(rat(rng), rat(rng))
    if roll < 0.6:
        return Seg(rng.choice(_SLOPES), rat(rng), random_domain(rng, bounded))
    return VSeg(rat(rng), random_domain(rng, bounded))


def random_complex(rng: random.Random, max_cells: int = 4,
                   bounded: bool = False) -> PlanarComplex:
    return pc_normalize(random_cell(rng, bounded)
                        for _ in range(rng.randint(0, max_cells)))


def random_affine_fn(rng: random.Random) -> AffineFn:
    return AffineFn(rng.choice(_SLOPES), rat(rng))


def random_band(rng: random.Random) -> Band:
    """A band whose width is bounded on its domain."""
    domain = random_domain(rng, bounded=rng.random() < 0.6)
    lower = random_affine_fn(rng)
    if domain.is_bounded:
        wl = abs(rat(rng)) + Fraction(1, 4)
        wr = abs(rat(rng)) + Fraction(1, 4)
        span = domain.hi - domain.lo
        wslope = (wr - wl) / span
        width = AffineFn(wslope, wl - wslope * domain.lo)
    else:
        width = AffineFn(0, abs(rat(rng)) + Fraction(1, 4))
    upper = AffineFn(lower.slope + width.slope,
                     lower.intercept + width.intercept)
    return Band(domain, lower, upper, rng.random() < 0.5, rng.random() < 0.5)


def random_bounded_family(rng: random.Random, max_cells: int = 3) -> Family:
    cells = []
    for _ in range(rng.randint(1, max_cells)):
        if rng.random() < 0.3:
            cells.append(Graph(random_domain(rng, bounded=rng.random() < 0.6),
                               random_affine_fn(rng)))
        else:
            cells.append(random_band(rng))
    return Family(tuple(cells))


def random_family(rng: random.Random, max_cells: int = 3) -> Family:
    """Like random_bounded_family but with occasional unbounded bands."""
    from semilin.rat import NEG_INF, POS_INF
    cells = list(random_bounded_family(rng, max_cells).cells)
    for _ in range(rng.randint(0, 2)):
        dom = random_domain(rng, bounded=rng.random() < 0.6)
        if rng.random() < 0.5:
            cells.append(Band(dom, NEG_INF, random_affine_fn(rng)))
        else:
            cells.append(Band(dom, random_affine_fn(rng), POS_INF))
    rng.shuffle(cells)
    return Family(tuple(cells))


# few functions and few domain ends, so crossings, domain ends and equal
# boundaries coincide often
_TIE_FNS = tuple(AffineFn(s, c) for s in (Fraction(-1), Fraction(0),
                                          Fraction(1, 2), Fraction(1))
                 for c in (Fraction(-1), Fraction(0), Fraction(1)))
_TIE_ENDS = (Fraction(-1), Fraction(0), Fraction(1), Fraction(2))


@st.composite
def tie_heavy_domains(draw) -> Interval:
    """Points, bounded intervals, rays and the line on a few shared ends."""
    end, closed = st.sampled_from(_TIE_ENDS), st.booleans()
    kind = draw(st.sampled_from(("point", "bounded", "left ray", "right ray",
                                 "line")))
    if kind == "point":
        return Interval.point(draw(end))
    if kind == "left ray":
        return Interval(NEG_INF, draw(end), False, draw(closed))
    if kind == "right ray":
        return Interval(draw(end), POS_INF, draw(closed), False)
    if kind == "line":
        return Interval(NEG_INF, POS_INF)
    a, b = sorted(draw(st.lists(end, min_size=2, max_size=2, unique=True)))
    return Interval(a, b, draw(closed), draw(closed))


@st.composite
def tie_heavy_families(draw, max_cells: int = 6) -> Family:
    """Bands, graphs and unbounded bands whose boundaries come from a small
    pool of affine functions, over tie_heavy_domains."""
    fn = st.sampled_from(_TIE_FNS)
    cells = []
    for _ in range(draw(st.integers(1, max_cells))):
        domain = draw(tie_heavy_domains())
        # bands twice as often as graphs or unbounded bands
        kind = draw(st.sampled_from(("band", "band", "graph", "ray")))
        if kind == "graph":
            cells.append(Graph(domain, draw(fn)))
        elif kind == "ray":
            f = draw(fn)
            cells.append(Band(domain, NEG_INF, f) if draw(st.booleans())
                         else Band(domain, f, POS_INF))
        else:
            lo, hi = draw(fn), draw(fn)
            flags = draw(st.booleans()), draw(st.booleans())
            for a, b in ((lo, hi), (hi, lo)):
                try:
                    cells.append(Band(domain, a, b, *flags))
                    break
                except ValueError:  # the pair crosses inside the domain
                    continue
            else:
                cells.append(Graph(domain, lo))
    return Family(tuple(cells))


def sup_width(band: Band) -> Fraction:
    d = band.domain
    ws = band.upper.slope - band.lower.slope
    wc = band.upper.intercept - band.lower.intercept
    if d.is_bounded:
        return max(ws * d.lo + wc, ws * d.hi + wc)
    return wc  # unbounded domains carry constant width by construction


def classifier_corpus():
    """Fixed generator sets with their expected lattice levels."""
    from semilin.classifier import Level
    from semilin.intervals import complement, normalize
    from semilin.planar import Carrier, pc_bool_op

    def line(slope, shift):
        return pc_normalize([Carrier(slope, shift).full_line_cell()])

    square = pc_normalize([
        Seg(0, 0, Interval(0, 1, True, True)),
        Seg(0, 1, Interval(0, 1, True, True)),
        VSeg(0, Interval(0, 1, True, True)),
        VSeg(1, Interval(0, 1, True, True)),
    ])
    vset = pc_normalize([
        Seg(1, 0, Interval(Fraction(0), POS_INF, True, False)),
        Seg(-1, 0, Interval(NEG_INF, Fraction(0), False, True)),
    ])
    pts = lambda vals: normalize([Interval.point(v) for v in vals])
    return [
        ("single point", {"a": pts([0])}, Level.LIN),
        ("finite sets", {"a": pts([0]), "b": pts([1, 2])}, Level.LIN),
        ("cofinite line", {"c": complement(pts([-3, 3]))}, Level.LIN),
        ("full planar lines", {"f": pc_bool_op("union", line(1, 0), line(VERTICAL, 3))}, Level.LIN),
        ("lines minus points plus point",
         {"g": pc_bool_op("union",
                          pc_bool_op("difference", line(2, 0),
                                     pc_normalize([Point(1, 2)])),
                          pc_normalize([Point(9, 9)]))}, Level.LIN),
        ("unit interval", {"x": iu("(0,1)")}, Level.LIN_STAR),
        ("cobounded not cofinite", {"b": complement(iu("(0,1)"))}, Level.LIN_STAR),
        ("square boundary", {"s": square}, Level.LIN_STAR),
        ("line plus box", {"m": pc_bool_op("union", line(2, 0), square)}, Level.LIN_STAR),
        ("interval and point", {"x": iu("(0,1)"), "p": pts([5])}, Level.LIN_STAR),
        ("positive ray", {"r": iu("(0,inf)")}, Level.SEMI),
        ("ray with island", {"y": iu("(-inf,0) (1,2)")}, Level.SEMI),
        ("v shape", {"v": vset}, Level.SEMI),
        ("vertical half line",
         {"h": pc_normalize([VSeg(0, Interval(Fraction(0), POS_INF, True, False))])},
         Level.SEMI),
        ("interval forces nothing, ray forces order",
         {"x": iu("(0,1)"), "r": iu("(0,inf)")}, Level.SEMI),
    ]


def pc_scale(x: PlanarComplex, q: Fraction) -> PlanarComplex:
    """Image under the scalar map (u, v) -> (q*u, q*v); test helper."""
    def image(part: Interval) -> Interval:
        return affine_op(IntervalUnion((part,)), q, 0).parts[0]

    cells = []
    for c in x.cells:
        if isinstance(c, Point):
            cells.append(Point(q * c.x, q * c.y))
        elif isinstance(c, Seg):
            cells.append(Seg(c.slope, q * c.intercept, image(c.domain)))
        else:
            cells.append(VSeg(q * c.x, image(c.rng)))
    return pc_normalize(cells)


settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture
def rng():
    return random.Random(20240811)
