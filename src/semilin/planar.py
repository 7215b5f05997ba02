"""Exact algebra of dimension <= 1 semilinear subsets of the plane.

Values are finite unions of points, non-vertical segments (graphs of an
affine map over an interval) and vertical segments.  The normal form
keeps cells pairwise disjoint: collinear runs are merged, and a point
where carrier lines cross belongs to the least carrier at which it
attaches to a run (falling back to the least carrier line), which makes
the form, hence equality, depend on the point set alone.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple, Union

from . import intervals as iv
from .errors import PreconditionError, SemilinError
from .intervals import FULL_LINE, Interval, IntervalUnion
from .rat import Rat, as_rat, fmt_rat


class _Vertical:
    """Singleton slope tag for vertical lines."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "VERTICAL"


VERTICAL = _Vertical()
Slope = Union[Fraction, _Vertical]


def as_slope(value) -> Slope:
    if value is VERTICAL:
        return VERTICAL
    if isinstance(value, str) and value == "vertical":
        return VERTICAL
    return as_rat(value)


@dataclass(frozen=True)
class Point:
    x: Rat
    y: Rat

    def __post_init__(self):
        object.__setattr__(self, "x", as_rat(self.x))
        object.__setattr__(self, "y", as_rat(self.y))

    def __str__(self):
        return f"({fmt_rat(self.x)},{fmt_rat(self.y)})"


@dataclass(frozen=True)
class Seg:
    """Graph of x -> slope*x + intercept over a non-degenerate domain."""

    slope: Rat
    intercept: Rat
    domain: Interval

    def __post_init__(self):
        object.__setattr__(self, "slope", as_rat(self.slope))
        object.__setattr__(self, "intercept", as_rat(self.intercept))
        if self.domain.is_point:
            raise ValueError("degenerate segment; use Point")

    def __str__(self):
        return f"seg(y={fmt_rat(self.slope)}x+{fmt_rat(self.intercept)} | x in {self.domain})"


@dataclass(frozen=True)
class VSeg:
    """Vertical segment {x} x rng with a non-degenerate range."""

    x: Rat
    rng: Interval

    def __post_init__(self):
        object.__setattr__(self, "x", as_rat(self.x))
        if self.rng.is_point:
            raise ValueError("degenerate vertical segment; use Point")

    def __str__(self):
        return f"vseg(x={fmt_rat(self.x)} | y in {self.rng})"


Cell = Union[Point, Seg, VSeg]


def _iv_key(p: Interval):
    return (p.lo, not p.lo_closed, p.hi, p.hi_closed)


def _cell_key(c: Cell):
    if isinstance(c, Point):
        return (0, c.x, c.y, 0, False, 0, False)
    if isinstance(c, Seg):
        return (1, c.slope, c.intercept) + _iv_key(c.domain)
    return (2, c.x, Fraction(0)) + _iv_key(c.rng)


@dataclass(frozen=True)
class Carrier:
    """The line a segment cell lives on: slope plus intercept/abscissa."""

    slope: Slope
    shift: Rat

    def __post_init__(self):
        object.__setattr__(self, "slope", as_slope(self.slope))
        object.__setattr__(self, "shift", as_rat(self.shift))

    @property
    def is_vertical(self) -> bool:
        return self.slope is VERTICAL

    def sort_key(self):
        if self.is_vertical:
            return (1, self.shift, Fraction(0))
        return (0, self.slope, self.shift)

    def line_contains(self, p: Point) -> bool:
        if self.is_vertical:
            return p.x == self.shift
        return p.y == self.slope * p.x + self.shift

    def param_of(self, p: Point) -> Rat:
        return p.y if self.is_vertical else p.x

    def point_at(self, t: Rat) -> Point:
        if self.is_vertical:
            return Point(self.shift, t)
        return Point(t, self.slope * t + self.shift)

    def direction(self) -> Tuple[Rat, Rat]:
        if self.is_vertical:
            return (Fraction(0), Fraction(1))
        return (Fraction(1), self.slope)

    def coords(self) -> Tuple[Tuple[Rat, Rat], Tuple[Rat, Rat]]:
        """The parametrization t -> (q1*t + a1, q2*t + a2) of the line,
        as ((q1, a1), (q2, a2))."""
        zero, one = Fraction(0), Fraction(1)
        if self.is_vertical:
            return ((zero, self.shift), (one, zero))
        return ((one, zero), (self.slope, self.shift))

    def cells(self, u: IntervalUnion) -> List[Cell]:
        out: List[Cell] = []
        for part in u.parts:
            if part.is_point:
                out.append(self.point_at(part.lo))
            elif self.is_vertical:
                out.append(VSeg(self.shift, part))
            else:
                out.append(Seg(self.slope, self.shift, part))
        return out

    def full_line_cell(self) -> Cell:
        if self.is_vertical:
            return VSeg(self.shift, FULL_LINE)
        return Seg(self.slope, self.shift, FULL_LINE)


def carrier_of(cell: Cell) -> Carrier:
    if isinstance(cell, Seg):
        return Carrier(cell.slope, cell.intercept)
    if isinstance(cell, VSeg):
        return Carrier(VERTICAL, cell.x)
    raise ValueError("points have no carrier line")


def _cross(a: Carrier, b: Carrier) -> Optional[Point]:
    if a.is_vertical and b.is_vertical:
        return None
    if a.is_vertical:
        a, b = b, a
    if b.is_vertical:
        x = b.shift
        return Point(x, a.slope * x + a.shift)
    if a.slope == b.slope:
        return None
    x = (b.shift - a.shift) / (a.slope - b.slope)
    return Point(x, a.slope * x + a.shift)


class _View(NamedTuple):
    carriers: Dict[Carrier, IntervalUnion]
    points: List[Point]


@dataclass(frozen=True)
class PlanarComplex:
    """A canonical finite union of disjoint cells in the plane."""

    cells: Tuple[Cell, ...] = ()

    @property
    def is_empty(self) -> bool:
        return not self.cells

    @cached_property
    def _view(self) -> _View:
        # read-only: every planar operation reads the cells through it
        return _group(self.cells)

    def contains(self, p) -> bool:
        p = _as_point(p)
        view = self._view
        return p in view.points or any(
            k.line_contains(p) and u.contains(k.param_of(p))
            for k, u in view.carriers.items())

    def __or__(self, other):
        return pc_bool_op("union", self, other)

    def __and__(self, other):
        return pc_bool_op("intersect", self, other)

    def __sub__(self, other):
        return pc_bool_op("difference", self, other)

    def __xor__(self, other):
        return pc_bool_op("symmdiff", self, other)

    def __str__(self):
        if not self.cells:
            return "{}"
        return " | ".join(str(c) for c in self.cells)


PC_EMPTY = PlanarComplex()


def _as_point(p) -> Point:
    if isinstance(p, Point):
        return p
    x, y = p
    return Point(as_rat(x), as_rat(y))


def _group(cells: Iterable[Cell]) -> _View:
    """The points, and each carrier's parameters, normalized once."""
    carriers: Dict[Carrier, List[Interval]] = {}
    pts: List[Point] = []
    for c in cells:
        if isinstance(c, Point):
            pts.append(c)
        elif isinstance(c, Seg):
            carriers.setdefault(Carrier(c.slope, c.intercept), []).append(c.domain)
        elif isinstance(c, VSeg):
            carriers.setdefault(Carrier(VERTICAL, c.x), []).append(c.rng)
        else:
            raise ValueError(f"not a cell: {c!r}")
    return _View({k: iv.normalize(v) for k, v in carriers.items()}, pts)


def pc_normalize(cells: Iterable[Cell]) -> PlanarComplex:
    """Build the canonical form: collinear runs merged, points absorbed
    into carrier lines where possible, crossings split with deterministic
    ownership."""
    unions, pts = _group(cells)
    keys = sorted(unions, key=Carrier.sort_key)
    # every carrier line through each crossing, in keys order: the least
    # carrier through a crossing meets all the others in its own row
    through: Dict[Point, List[Carrier]] = {}
    for i, a in enumerate(keys):
        for b in keys[i + 1:]:
            p = _cross(a, b)
            if p is not None:
                ks = through.setdefault(p, [a])
                if ks[0] is a:
                    ks.append(b)
    loose = set(pts)
    for p in loose:
        if p not in through:
            # off the crossings at most one carrier line passes through p
            through[p] = [k for k in keys if k.line_contains(p)]

    # a covered point belongs to the least carrier where it attaches to a
    # run, else the least carrier line through it; this makes the normal
    # form a function of the point set alone.  A decision reads a union
    # only at its own point's parameter and through the closure of its
    # runs, which changes at other parameters leave alone, so the changes
    # are applied in one batch per carrier.
    adds: Dict[Carrier, List[Rat]] = {}
    drops: Dict[Carrier, List[Rat]] = {}
    standalone: List[Point] = []
    for p, ks in through.items():
        if not ks:
            standalone.append(p)
            continue
        ts = [k.param_of(p) for k in ks]
        if p not in loose and not any(unions[k].contains(t)
                                      for k, t in zip(ks, ts)):
            continue
        owner = next((k for k, t in zip(ks, ts) if _attached(unions[k], t)),
                     ks[0])
        for k, t in zip(ks, ts):
            if k is owner:
                adds.setdefault(k, []).append(t)
            elif unions[k].contains(t):
                drops.setdefault(k, []).append(t)
    for k, ts in adds.items():
        unions[k] = iv.union(unions[k], iv.points(ts))
    for k, ts in drops.items():
        unions[k] = iv.difference(unions[k], iv.points(ts))

    out: List[Cell] = standalone
    for k in keys:
        out.extend(k.cells(unions[k]))
    return PlanarComplex(tuple(sorted(out, key=_cell_key)))


def _attached(u: IntervalUnion, t) -> bool:
    # t lies in the closure of a non-degenerate run of u.  As in
    # IntervalUnion.contains, only the last part starting at or before t
    # decides it: in canonical form a run ending at t is either that part
    # or followed by a run starting at t
    i = bisect_right(u.parts, t, key=lambda p: p.lo)
    return i > 0 and t <= u.parts[i - 1].hi and not u.parts[i - 1].is_point


def pc_bool_op(kind: str, x: PlanarComplex, y: PlanarComplex) -> PlanarComplex:
    """Boolean set operation inside the dimension <= 1 universe.

    Complement is not offered: it would leave the universe.
    """
    if kind == "union":
        return pc_normalize(x.cells + y.cells)
    if kind == "symmdiff":
        return pc_bool_op("union", pc_bool_op("difference", x, y),
                          pc_bool_op("difference", y, x))
    if kind not in ("intersect", "difference"):
        raise ValueError(f"unknown planar boolean operation {kind!r}")
    vx = x._view
    cells: List[Cell] = []
    for carrier, u in vx.carriers.items():
        w = pc_section(y, carrier.slope, carrier.shift)
        v = iv.intersect(u, w) if kind == "intersect" else iv.difference(u, w)
        cells.extend(carrier.cells(v))
    for p in vx.points:
        if y.contains(p) == (kind == "intersect"):
            cells.append(p)
    return pc_normalize(cells)


def pc_affine(x: PlanarComplex, translate=(0, 0), swap: bool = False) -> PlanarComplex:
    """Image under an optional coordinate swap followed by a translation."""
    tx, ty = as_rat(translate[0]), as_rat(translate[1])
    view = x._view
    cells: List[Cell] = []
    for p in view.points:
        px, py = (p.y, p.x) if swap else (p.x, p.y)
        cells.append(Point(px + tx, py + ty))
    for k, u in view.carriers.items():
        (q1, a1), (q2, a2) = k.coords()
        if swap:
            (q1, a1), (q2, a2) = (q2, a2), (q1, a1)
        a1, a2 = a1 + tx, a2 + ty
        # re-parametrize the image line by its own parameter
        if q1 == 0:
            image, q, a = Carrier(VERTICAL, a1), q2, a2
        else:
            slope = q2 / q1
            image, q, a = Carrier(slope, a2 - slope * a1), q1, a1
        cells.extend(image.cells(iv.affine_op(u, q, a)))
    return pc_normalize(cells)


def pc_project(x: PlanarComplex, axis: int) -> IntervalUnion:
    """Exact coordinate projection (axis 1 = first coordinate)."""
    if axis not in (1, 2):
        raise ValueError("axis must be 1 or 2")
    view = x._view
    parts = [Interval.point(p.x if axis == 1 else p.y) for p in view.points]
    for k, u in view.carriers.items():
        q, a = k.coords()[axis - 1]
        parts.extend(iv.affine_op(u, q, a).parts if q else [Interval.point(a)])
    return iv.normalize(parts)


def pc_boundedness(x: PlanarComplex) -> bool:
    """True iff both coordinate projections are bounded."""
    return pc_project(x, 1).is_bounded and pc_project(x, 2).is_bounded


def pc_topo(x: PlanarComplex, kind: str) -> PlanarComplex:
    """Closure or frontier; they coincide since the interior of a
    dimension <= 1 set in the plane is empty."""
    if kind not in ("closure", "frontier"):
        raise ValueError(f"unknown planar topological operator {kind!r}")
    view = x._view
    cells: List[Cell] = list(view.points)
    for k, u in view.carriers.items():
        cells.extend(k.cells(iv.topo_op(u, "closure")))
    return pc_normalize(cells)


def pc_section(x: PlanarComplex, slope: Slope, offset) -> IntervalUnion:
    """Pull back along the line of the given slope and offset.

    For finite slope: {t : (t, slope*t + offset) in x}; for VERTICAL,
    offset is the abscissa and the section is {t : (offset, t) in x}.
    """
    line = Carrier(slope, offset)
    view = x._view
    ts = [line.param_of(p) for p in view.points if line.line_contains(p)]
    for k, u in view.carriers.items():
        p = _cross(line, k)  # None on a parallel line and on the line itself
        if p is not None and u.contains(k.param_of(p)):
            ts.append(line.param_of(p))
    own = view.carriers.get(line, iv.EMPTY)
    return iv.union(own, iv.points(ts)) if ts else own


def _arms_at(view: _View, p: Point) -> frozenset:
    """One-sided directions along which the set continues from p."""
    dirs = set()
    for carrier, u in view.carriers.items():
        if not carrier.line_contains(p):
            continue
        t = carrier.param_of(p)
        dx, dy = carrier.direction()
        if any(part.lo <= t < part.hi for part in u.parts):
            dirs.add((dx, dy))
        if any(part.lo < t <= part.hi for part in u.parts):
            dirs.add((-dx, -dy))
    return frozenset(dirs)


def _junctions(x: PlanarComplex) -> List[Point]:
    view = x._view
    seen = {(p.x, p.y) for p in view.points}
    for k, u in view.carriers.items():
        for e in iv.endpoints(u, "left") + iv.endpoints(u, "right"):
            q = k.point_at(e)
            seen.add((q.x, q.y))
    return [Point(a, b) for a, b in sorted(seen)]


def affine_part(x: PlanarComplex) -> PlanarComplex:
    """Points of x around which x is closed under u - v + w.

    Cell interiors qualify; junction points qualify only when the local
    star is a single straight line; isolated points qualify vacuously.
    """
    view = x._view
    bad: List[Cell] = []
    for q in _junctions(x):
        if not x.contains(q):
            continue
        arms = _arms_at(view, q)
        if not arms:
            continue
        if len(arms) == 2:
            (d1, d2) = sorted(arms)
            if d1 == (-d2[0], -d2[1]):
                continue
        bad.append(q)
    if not bad:
        return x
    return pc_bool_op("difference", x, pc_normalize(bad))


def germ_equal(x: PlanarComplex, p, q) -> bool:
    """Whether x has the same translation-germ at two of its points."""
    p, q = _as_point(p), _as_point(q)
    if not x.contains(p) or not x.contains(q):
        raise PreconditionError("germ comparison needs points of the set")
    return _arms_at(x._view, p) == _arms_at(x._view, q)


@dataclass(frozen=True)
class Subgroup2D:
    """Stab_bd value: the trivial group, a line through 0, or the plane."""

    kind: str  # "zero" | "line" | "plane"
    direction: Optional[Slope] = None

    def __post_init__(self):
        if self.kind not in ("zero", "line", "plane"):
            raise ValueError(f"bad subgroup kind {self.kind!r}")
        if (self.kind == "line") != (self.direction is not None):
            raise ValueError("direction exactly for lines")


def stab_bd(x: PlanarComplex) -> Subgroup2D:
    """Shifts whose symmetric difference with x is bounded.

    Bounded sets are stabilized by the whole plane; otherwise the answer
    is read off the directions of the unbounded carrier lines.
    """
    if pc_boundedness(x):
        return Subgroup2D("plane")
    dirs = {c.slope for c, u in x._view.carriers.items()
            if not u.is_bounded}
    if len(dirs) == 1:
        return Subgroup2D("line", dirs.pop())
    return Subgroup2D("zero")


@dataclass(frozen=True)
class Decomposition:
    """Structure of a dim <= 1 set as co-bounded line parts plus a
    bounded residue; carriers failing the co-boundedness test are
    surfaced in `unresolved`."""

    graphs: Tuple[Tuple[Rat, Tuple[Rat, ...]], ...]
    verticals: Tuple[Rat, ...]
    residue: PlanarComplex
    unresolved: Tuple[Cell, ...]


def decompose(x: PlanarComplex) -> Decomposition:
    """Split x into co-bounded line parts plus a bounded residue.

    When `unresolved` is empty the three conditions (full carrier lines
    minus x bounded, residue bounded, exact partition) are re-checked
    before returning.
    """
    view = x._view
    residue_cells: List[Cell] = list(view.points)
    unresolved: List[Cell] = []
    claimed: List[Cell] = []
    by_slope: Dict[Rat, List[Rat]] = {}
    verts: List[Rat] = []
    for carrier in sorted(view.carriers, key=Carrier.sort_key):
        u = view.carriers[carrier]
        if u.is_bounded:
            residue_cells.extend(carrier.cells(u))
            continue
        comp = iv.complement(u)
        if comp.is_bounded:
            if carrier.is_vertical:
                verts.append(carrier.shift)
            else:
                by_slope.setdefault(carrier.slope, []).append(carrier.shift)
            if comp.is_empty:
                claimed.extend(carrier.cells(u))
            else:
                box = iv.IntervalUnion(
                    (Interval(comp.inf, comp.sup, True, True),))
                residue_cells.extend(carrier.cells(iv.intersect(u, box)))
                claimed.extend(carrier.cells(iv.difference(u, box)))
        else:
            residue_cells.extend(carrier.cells(IntervalUnion(
                tuple(p for p in u.parts if p.is_bounded))))
            unresolved.extend(carrier.cells(IntervalUnion(
                tuple(p for p in u.parts if not p.is_bounded))))
    residue = pc_normalize(residue_cells)
    dec = Decomposition(
        tuple((s, tuple(sorted(ds))) for s, ds in sorted(by_slope.items())),
        tuple(sorted(verts)),
        residue,
        tuple(sorted(unresolved, key=_cell_key)),
    )
    if not dec.unresolved:
        _verify_decomposition(x, dec, claimed)
    return dec


def _verify_decomposition(x, dec, claimed):
    for slope, shifts in dec.graphs:
        for d in shifts:
            if not iv.complement(pc_section(x, slope, d)).is_bounded:
                raise SemilinError("decomposition check failed: graph line")
    for d in dec.verticals:
        if not iv.complement(pc_section(x, VERTICAL, d)).is_bounded:
            raise SemilinError("decomposition check failed: vertical line")
    if not pc_boundedness(dec.residue):
        raise SemilinError("decomposition check failed: residue unbounded")
    if pc_normalize(dec.residue.cells + tuple(claimed)) != x:
        raise SemilinError("decomposition check failed: not a partition")
