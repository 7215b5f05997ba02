"""Earlier forms of the planar kernel, kept as references for
differential tests.  The module shares no private helper with
``semilin.planar``.

- ``pc_normalize`` grows each carrier's union one part at a time with
  ``union``, rescans every carrier at each crossing, and applies each
  loose point and each crossing update with a sweep of its own, where
  ``planar.pc_normalize`` finds the carriers through each crossing in one
  pass over carrier pairs and applies each carrier's changes in one batch.
- ``line_params`` reads another complex's coverage of a carrier line from
  its carriers, grown one part at a time, their crossings with the line
  and its points.
- ``pc_bool_op`` is the boolean operation built on ``line_params``.
- ``full_line_minus_is_bounded`` and ``symmdiff_is_bounded`` are the
  certificate checks as planar operations, where the checks in
  ``planar._verify_decomposition`` and ``classifier.sb_certificate`` read
  1-D sections.
- ``contains``, ``pc_section``, ``pc_project``, ``pc_topo`` and
  ``pc_affine`` work one cell at a time and branch on its kind, where
  ``planar`` reads each carrier's parameter set and the points from one
  grouping of the cells.
"""

from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

from semilin import intervals as iv
from semilin.intervals import EMPTY, Interval, IntervalUnion
from semilin.planar import (VERTICAL, Carrier, Cell, PlanarComplex, Point, Seg,
                            Slope, VSeg, as_slope, carrier_of)
from semilin.rat import Rat, as_rat


def _cell_key(c: Cell):
    if isinstance(c, Point):
        return (0, c.x, c.y, 0, False, 0, False)
    if isinstance(c, Seg):
        part = c.domain
        head = (1, c.slope, c.intercept)
    else:
        part = c.rng
        head = (2, c.x, Fraction(0))
    return head + (part.lo, not part.lo_closed, part.hi, part.hi_closed)


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


def _attached(u: IntervalUnion, t) -> bool:
    # t lies in the closure of a non-degenerate run of u
    return any(p.lo <= t <= p.hi and not p.is_point for p in u.parts)


def _grow(cells: Iterable[Cell]) -> Tuple[Dict[Carrier, IntervalUnion], List[Point]]:
    # each carrier's union, grown one part at a time, and the points
    unions: Dict[Carrier, IntervalUnion] = {}
    loose: List[Point] = []
    for c in cells:
        if isinstance(c, Point):
            loose.append(c)
        elif isinstance(c, (Seg, VSeg)):
            k = carrier_of(c)
            part = c.domain if isinstance(c, Seg) else c.rng
            unions[k] = iv.union(unions.get(k, EMPTY), iv.IntervalUnion((part,)))
        else:
            raise ValueError(f"not a cell: {c!r}")
    return unions, loose


def pc_normalize(cells: Iterable[Cell]) -> PlanarComplex:
    unions, loose = _grow(cells)
    keys = sorted(unions, key=Carrier.sort_key)
    standalone: List[Point] = []
    for p in sorted(set(loose), key=lambda q: (q.x, q.y)):
        covered = False
        target: Optional[Carrier] = None
        for k in keys:
            if not k.line_contains(p):
                continue
            if unions[k].contains(k.param_of(p)):
                covered = True
                break
            if target is None:
                target = k
        if covered:
            continue
        if target is not None:
            unions[target] = iv.union(unions[target],
                                      iv.points([target.param_of(p)]))
        else:
            standalone.append(p)

    # a covered crossing point belongs to the least carrier where it
    # attaches to a run, else the least carrier line through it; this
    # makes the normal form a function of the point set alone
    crossings = {}
    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            p = _cross(keys[i], keys[j])
            if p is not None:
                crossings[(p.x, p.y)] = p
    for _, p in sorted(crossings.items()):
        through = [k for k in keys if k.line_contains(p)]
        if not any(unions[k].contains(k.param_of(p)) for k in through):
            continue
        attached = [k for k in through
                    if _attached(unions[k], k.param_of(p))]
        owner = (attached or through)[0]
        for k in through:
            t = k.param_of(p)
            if k == owner:
                unions[k] = iv.union(unions[k], iv.points([t]))
            elif unions[k].contains(t):
                unions[k] = iv.difference(unions[k], iv.points([t]))

    out: List[Cell] = list(standalone)
    for k in keys:
        out.extend(k.cells(unions[k]))
    return PlanarComplex(tuple(sorted(out, key=_cell_key)))


def line_params(carrier: Carrier, y: PlanarComplex) -> IntervalUnion:
    """Parameters on the carrier's line covered by y."""
    unions, pts = _grow(y.cells)
    u = unions.get(carrier, EMPTY)
    extra = []
    for other, u2 in unions.items():
        if other == carrier:
            continue
        p = _cross(carrier, other)
        if p is not None and u2.contains(other.param_of(p)):
            extra.append(carrier.param_of(p))
    for p in pts:
        if carrier.line_contains(p):
            extra.append(carrier.param_of(p))
    if not extra:
        return u
    return iv.union(u, iv.points(extra))


def pc_bool_op(kind: str, x: PlanarComplex, y: PlanarComplex) -> PlanarComplex:
    if kind == "union":
        return pc_normalize(x.cells + y.cells)
    if kind == "symmdiff":
        return pc_bool_op("union", pc_bool_op("difference", x, y),
                          pc_bool_op("difference", y, x))
    unions, pts = _grow(x.cells)
    cells: List[Cell] = []
    for carrier, u in unions.items():
        w = line_params(carrier, y)
        v = iv.intersect(u, w) if kind == "intersect" else iv.difference(u, w)
        cells.extend(carrier.cells(v))
    for p in pts:
        if contains(y, p) == (kind == "intersect"):
            cells.append(p)
    return pc_normalize(cells)


def contains(x: PlanarComplex, p: Point) -> bool:
    for c in x.cells:
        if isinstance(c, Point):
            if c == p:
                return True
        elif isinstance(c, Seg):
            if p.y == c.slope * p.x + c.intercept and c.domain.contains(p.x):
                return True
        else:
            if p.x == c.x and c.rng.contains(p.y):
                return True
    return False


def _affine_interval(p: Interval, q: Rat, a: Rat) -> Interval:
    if q > 0:
        return Interval(q * p.lo + a, q * p.hi + a, p.lo_closed, p.hi_closed)
    return Interval(q * p.hi + a, q * p.lo + a, p.hi_closed, p.lo_closed)


def _shift_interval(p: Interval, a: Rat) -> Interval:
    return Interval(p.lo + a, p.hi + a, p.lo_closed, p.hi_closed)


def _swap_cell(c: Cell) -> Cell:
    if isinstance(c, Point):
        return Point(c.y, c.x)
    if isinstance(c, VSeg):
        return Seg(Fraction(0), c.x, c.rng)
    if c.slope == 0:
        return VSeg(c.intercept, c.domain)
    return Seg(1 / c.slope, -c.intercept / c.slope,
               _affine_interval(c.domain, c.slope, c.intercept))


def _translate_cell(c: Cell, tx: Rat, ty: Rat) -> Cell:
    if isinstance(c, Point):
        return Point(c.x + tx, c.y + ty)
    if isinstance(c, Seg):
        return Seg(c.slope, c.intercept + ty - c.slope * tx,
                   _shift_interval(c.domain, tx))
    return VSeg(c.x + tx, _shift_interval(c.rng, ty))


def pc_affine(x: PlanarComplex, translate=(0, 0), swap: bool = False) -> PlanarComplex:
    tx, ty = as_rat(translate[0]), as_rat(translate[1])
    cells = []
    for c in x.cells:
        if swap:
            c = _swap_cell(c)
        cells.append(_translate_cell(c, tx, ty))
    return pc_normalize(cells)


def pc_project(x: PlanarComplex, axis: int) -> IntervalUnion:
    if axis not in (1, 2):
        raise ValueError("axis must be 1 or 2")
    parts: List[Interval] = []
    for c in x.cells:
        if isinstance(c, Point):
            parts.append(Interval.point(c.x if axis == 1 else c.y))
        elif isinstance(c, Seg):
            if axis == 1:
                parts.append(c.domain)
            elif c.slope == 0:
                parts.append(Interval.point(c.intercept))
            else:
                parts.append(_affine_interval(c.domain, c.slope, c.intercept))
        else:
            if axis == 1:
                parts.append(Interval.point(c.x))
            else:
                parts.append(c.rng)
    return iv.normalize(parts)


def pc_boundedness(x: PlanarComplex) -> bool:
    return pc_project(x, 1).is_bounded and pc_project(x, 2).is_bounded


def pc_topo(x: PlanarComplex, kind: str) -> PlanarComplex:
    if kind not in ("closure", "frontier"):
        raise ValueError(f"unknown planar topological operator {kind!r}")
    cells: List[Cell] = []
    for c in x.cells:
        if isinstance(c, Point):
            cells.append(c)
        elif isinstance(c, Seg):
            cells.append(Seg(c.slope, c.intercept, c.domain.closure()))
        else:
            cells.append(VSeg(c.x, c.rng.closure()))
    return pc_normalize(cells)


def pc_section(x: PlanarComplex, slope: Slope, offset) -> IntervalUnion:
    slope = as_slope(slope)
    offset = as_rat(offset)
    parts: List[Interval] = []
    for c in x.cells:
        if slope is VERTICAL:
            if isinstance(c, Point):
                if c.x == offset:
                    parts.append(Interval.point(c.y))
            elif isinstance(c, Seg):
                if c.domain.contains(offset):
                    parts.append(Interval.point(c.slope * offset + c.intercept))
            elif c.x == offset:
                parts.append(c.rng)
        else:
            if isinstance(c, Point):
                if c.y == slope * c.x + offset:
                    parts.append(Interval.point(c.x))
            elif isinstance(c, Seg):
                if c.slope == slope:
                    if c.intercept == offset:
                        parts.append(c.domain)
                else:
                    t = (offset - c.intercept) / (c.slope - slope)
                    if c.domain.contains(t):
                        parts.append(Interval.point(t))
            else:
                yval = slope * c.x + offset
                if c.rng.contains(yval):
                    parts.append(Interval.point(c.x))
    return iv.normalize(parts)


def full_line_minus_is_bounded(x: PlanarComplex, carrier: Carrier) -> bool:
    line = pc_normalize([carrier.full_line_cell()])
    return pc_boundedness(pc_bool_op("difference", line, x))


def symmdiff_is_bounded(x: PlanarComplex, y: PlanarComplex) -> bool:
    return pc_boundedness(pc_bool_op("symmdiff", x, y))
