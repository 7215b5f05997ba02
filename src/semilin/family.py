"""Definable families of one-dimensional fibers over a parameter axis.

A family is a finite list of cylindrical cells: bands between affine
boundaries and graphs of affine functions, over interval domains in the
parameter t.  Fiber structure is piecewise constant in t, so endpoint
families and the uniform component-length bound are computed exactly by
one sweep along t that stops at boundary crossings and domain endpoints.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Set, Tuple, Union

from . import intervals as iv
from .errors import PairingMismatch, PreconditionError, UnboundedFiber
from .intervals import Interval, IntervalUnion
from .rat import Ext, NEG_INF, POS_INF, Rat, as_rat, is_finite


@dataclass(frozen=True)
class AffineFn:
    """t -> slope*t + intercept."""

    slope: Rat
    intercept: Rat

    def __post_init__(self):
        object.__setattr__(self, "slope", as_rat(self.slope))
        object.__setattr__(self, "intercept", as_rat(self.intercept))

    def __call__(self, t: Rat) -> Rat:
        return self.slope * t + self.intercept

    def key(self):
        return (self.slope, self.intercept)


Boundary = Union[AffineFn, float]  # float only for the infinities


def _as_boundary(v) -> Boundary:
    if isinstance(v, AffineFn):
        return v
    if isinstance(v, float) and (v == NEG_INF or v == POS_INF):
        return v
    raise ValueError(f"not a boundary: {v!r}")


def _bval(b: Boundary, t: Rat) -> Ext:
    return b(t) if isinstance(b, AffineFn) else b


@dataclass(frozen=True)
class Band:
    """Fiber slice lower(t) < x < upper(t) with per-side closure flags."""

    domain: Interval
    lower: Boundary
    upper: Boundary
    lower_closed: bool = False
    upper_closed: bool = False

    def __post_init__(self):
        object.__setattr__(self, "lower", _as_boundary(self.lower))
        object.__setattr__(self, "upper", _as_boundary(self.upper))
        if self.lower == POS_INF or self.upper == NEG_INF:
            raise ValueError("band boundaries out of order")
        if self.lower_closed and not isinstance(self.lower, AffineFn):
            raise ValueError("closed side needs a finite boundary")
        if self.upper_closed and not isinstance(self.upper, AffineFn):
            raise ValueError("closed side needs a finite boundary")
        self._check_width()

    def _check_width(self):
        # lower < upper must hold on the open interior of the domain
        if not isinstance(self.lower, AffineFn) or not isinstance(self.upper, AffineFn):
            return
        d = self.domain
        if d.is_point:
            return
        ds = self.upper.slope - self.lower.slope
        dc = self.upper.intercept - self.lower.intercept
        if ds == 0:
            if dc <= 0:
                raise ValueError("band collapses on its domain")
            return
        root = -dc / ds
        if d.lo < root < d.hi:
            raise ValueError("band boundaries cross inside the domain")
        sample = _sample_interior(d.lo, d.hi)
        if ds * sample + dc <= 0:
            raise ValueError("band boundaries out of order on the domain")


@dataclass(frozen=True)
class Graph:
    """A single point value(t) in each fiber over the domain."""

    domain: Interval
    value: AffineFn

    def __post_init__(self):
        if not isinstance(self.value, AffineFn):
            raise ValueError("graph value must be an affine function")


FiberCell = Union[Band, Graph]


@dataclass(frozen=True)
class Family:
    """Finite list of cylindrical cells; fibers normalize on evaluation."""

    cells: Tuple[FiberCell, ...] = ()


def _sample_interior(lo: Ext, hi: Ext) -> Rat:
    lo_fin, hi_fin = is_finite(lo), is_finite(hi)
    if lo_fin and hi_fin:
        return (lo + hi) / 2
    if lo_fin:
        return lo + 1
    if hi_fin:
        return hi - 1
    return Fraction(0)


def param_domain(family: Family) -> IntervalUnion:
    """Union of the cells' parameter domains."""
    return iv.normalize(c.domain for c in family.cells)


def fiber(family: Family, t) -> IntervalUnion:
    """Evaluate the fiber at t, normalized."""
    t = as_rat(t)
    parts: List[Interval] = []
    for c in family.cells:
        if not c.domain.contains(t):
            continue
        if isinstance(c, Graph):
            parts.append(Interval.point(c.value(t)))
            continue
        lo, hi = _bval(c.lower, t), _bval(c.upper, t)
        if lo > hi:
            continue
        if lo == hi:
            if c.lower_closed and c.upper_closed:
                parts.append(Interval.point(lo))
            continue
        parts.append(Interval(lo, hi, c.lower_closed, c.upper_closed))
    return iv.normalize(parts)


def bounded_params(family: Family) -> IntervalUnion:
    """Parameters in the family's domain whose fiber is bounded.

    A fiber is unbounded exactly when some active band has an infinite
    boundary, so the answer is a difference of domain unions.
    """
    ray_domains = [c.domain for c in family.cells
                   if isinstance(c, Band)
                   and not (isinstance(c.lower, AffineFn)
                            and isinstance(c.upper, AffineFn))]
    return iv.difference(param_domain(family), iv.normalize(ray_domains))


def _criticals(family: Family) -> Dict[Rat, Set[int]]:
    """Each critical parameter with the cells it touches: those with a
    domain end there, or with a boundary that crosses another cell's
    boundary there, inside both domains."""
    touched: Dict[Rat, Set[int]] = {}
    entries: List[Tuple[AffineFn, Interval, int]] = []
    for i, c in enumerate(family.cells):
        for e in (c.domain.lo, c.domain.hi):
            if is_finite(e):
                touched.setdefault(e, set()).add(i)
        fns = (c.value,) if isinstance(c, Graph) else (c.lower, c.upper)
        entries.extend((f, c.domain, i) for f in fns if isinstance(f, AffineFn))
    for k, (f, df, i) in enumerate(entries):
        for g, dg, j in entries[k + 1:]:
            if f.slope == g.slope:
                continue
            t = (g.intercept - f.intercept) / (f.slope - g.slope)
            if df.contains(t) and dg.contains(t):
                touched.setdefault(t, set()).update((i, j))
    return touched


def _cut(part: Interval, criticals: List[Rat]) -> Iterator[Tuple[Ext, Ext]]:
    """The region part's pieces in t order, as (lo, hi): points (lo == hi)
    at its closed ends and inner critical points, open intervals between."""
    if part.lo_closed:
        yield part.lo, part.lo
    if part.is_point:
        return
    a = part.lo
    for t in criticals[bisect_right(criticals, a):bisect_left(criticals, part.hi)]:
        yield a, t
        yield t, t
        a = t
    yield a, part.hi
    if part.hi_closed:
        yield part.hi, part.hi


@dataclass(frozen=True)
class _SymComp:
    lo: AffineFn
    hi: AffineFn
    lo_closed: bool
    hi_closed: bool


def _joins(a_hi: Rat, a_hi_closed: bool, b_lo: Rat, b_lo_closed: bool) -> bool:
    # a component starting at b_lo, not left of a's start, meets a
    return b_lo < a_hi or (b_lo == a_hi and (a_hi_closed or b_lo_closed))


def _merge(cells: Tuple[FiberCell, ...], pool: Set[int], t: Rat) -> List[list]:
    """Merged fiber components at t of the pool's cells, sorted by x, as
    [comp, lo(t), hi(t), member cells]."""
    raw = []
    for i in pool:
        c = cells[i]
        if not c.domain.contains(t):
            continue
        if isinstance(c, Graph):
            v = c.value(t)
            raw.append((v, v, _SymComp(c.value, c.value, True, True), i))
            continue
        if not (isinstance(c.lower, AffineFn) and isinstance(c.upper, AffineFn)):
            raise UnboundedFiber(f"fiber at {t} is unbounded")
        lo, hi = c.lower(t), c.upper(t)
        if lo > hi or (lo == hi and not (c.lower_closed and c.upper_closed)):
            continue
        raw.append((lo, hi, _SymComp(c.lower, c.upper, c.lower_closed,
                                     c.upper_closed), i))
    raw.sort(key=lambda r: (r[0], not r[2].lo_closed) + r[2].lo.key())
    merged: List[list] = []
    for lo, hi, s, i in raw:
        if merged and _joins(merged[-1][2], merged[-1][0].hi_closed, lo, s.lo_closed):
            a = merged[-1]
            comp, top = a[0], (a[2], a[0].hi_closed)
            if (hi, s.hi_closed) > top:
                a[0], a[2] = _SymComp(comp.lo, s.hi, comp.lo_closed, s.hi_closed), hi
            elif (hi, s.hi_closed) == top:
                pick = min(comp.hi, s.hi, key=AffineFn.key)
                a[0] = _SymComp(comp.lo, pick, comp.lo_closed, comp.hi_closed)
            a[3].append(i)
        else:
            merged.append([s, lo, hi, [i]])
    return merged


@dataclass(eq=False)
class _Run:
    """A merged component and its member cells, alive since the piece
    that starts at (lo, lo_closed)."""

    comp: _SymComp
    cells: List[int]
    lo: Ext
    lo_closed: bool


def _settle(cells, runs: List[_Run], owner: Dict[int, _Run], pool: Set[int], t):
    """Re-merge at t the pool's cells with the runs that hold one or that a
    re-merged component meets, taking those runs out of `runs`.  Returns
    them by component, the new components and their insertion points."""
    taken: Dict[_SymComp, _Run] = {}
    grab = dict.fromkeys(owner[i] for i in pool if i in owner)
    lo_at = lambda r: r.comp.lo(t)
    while True:
        for run in grab:
            runs.remove(run)
            pool.update(run.cells)
        taken.update((run.comp, run) for run in grab)
        merged, grab, slots = _merge(cells, pool, t), {}, []
        for comp, lo, hi, _ in merged:
            p = q = bisect_left(runs, lo, key=lo_at)
            left = runs[p - 1].comp if p else None
            if left and _joins(left.hi(t), left.hi_closed, lo, comp.lo_closed):
                grab[runs[p - 1]] = None
            while q < len(runs) and _joins(hi, comp.hi_closed, lo_at(runs[q]),
                                           runs[q].comp.lo_closed):
                grab[runs[q]] = None
                q += 1
            slots.append(p)
        if not grab:
            for i in pool:
                owner.pop(i, None)
            return taken, merged, slots


def _refine(family: Family, region: IntervalUnion) -> Iterator[Tuple[Interval, _SymComp]]:
    """Sweep the region in t order and yield (hull, comp) once per maximal
    run of refinement pieces over which the merged fiber component comp
    persists.

    Between consecutive critical points no boundary crosses another and
    no cell starts or ends, so the boundaries keep their order and only a
    component holding a cell touched at a critical point can change there
    (kinetic sorting: Basch, Guibas and Hershberger, J. Algorithms 31(1),
    1999).  Those are re-merged with the touched cells, absorbing any other
    component they come to meet; the rest are kept as they are.
    """
    cells = family.cells
    touched = _criticals(family)
    criticals = sorted(touched)
    for part in region.parts:
        runs: List[_Run] = []        # live components, sorted by x
        owner: Dict[int, _Run] = {}  # member cell -> its live run
        last = None                  # upper end of the previous piece
        for lo, hi in _cut(part, criticals):
            t = lo if lo == hi else _sample_interior(lo, hi)
            pool = set(range(len(cells)) if last is None else touched.get(lo, ()))
            ended, merged, slots = _settle(cells, runs, owner, pool, t)
            for (comp, _, _, members), p in reversed(list(zip(merged, slots))):
                run = ended.pop(comp, None) or _Run(comp, members, lo, lo == hi)
                run.cells = members
                runs.insert(p, run)
                owner.update(dict.fromkeys(members, run))
            for run in ended.values():
                yield Interval(run.lo, last[0], run.lo_closed, last[1]), run.comp
            last = hi, lo == hi
        for run in runs:
            yield Interval(run.lo, last[0], run.lo_closed, last[1]), run.comp


def endpoint_family(family: Family, side: str) -> Family:
    """The family of left (resp. right) fiber endpoints, as graph cells.

    Requires every fiber on the domain to be bounded.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    domain = param_domain(family)
    if bounded_params(family) != domain:
        raise UnboundedFiber("endpoint family needs all fibers bounded")
    by_fn: Dict[AffineFn, List[Interval]] = {}
    for hull, comp in _refine(family, domain):
        fn = comp.lo if side == "left" else comp.hi
        by_fn.setdefault(fn, []).append(hull)
    cells = []
    for fn in sorted(by_fn, key=AffineFn.key):
        for part in iv.normalize(by_fn[fn]).parts:
            cells.append(Graph(part, fn))
    return Family(tuple(cells))


def _affine_sup(slope: Rat, intercept: Rat, piece: Interval) -> Ext:
    if piece.is_point:
        return slope * piece.lo + intercept
    vals: List[Ext] = []
    if is_finite(piece.lo):
        vals.append(slope * piece.lo + intercept)
    elif slope < 0:
        return POS_INF
    if is_finite(piece.hi):
        vals.append(slope * piece.hi + intercept)
    elif slope > 0:
        return POS_INF
    if slope == 0:
        vals.append(intercept)
    return max(vals)


def uniform_length_bound(family: Family) -> Ext:
    """Exact supremum of component lengths over the bounded fibers.

    The supremum is taken at refinement critical points and domain
    limits; it is infinite when the bounded fibers have components of
    unbounded length.
    """
    best: Ext = Fraction(0)
    for hull, comp in _refine(family, bounded_params(family)):
        sup = _affine_sup(comp.hi.slope - comp.lo.slope,
                          comp.hi.intercept - comp.lo.intercept, hull)
        if sup > best:
            best = sup
    return best


def match_endpoints(family: Family, t) -> List[Tuple[Rat, Rat]]:
    """Pair each left fiber endpoint a with min of the right endpoints in
    [a, a+K], K the uniform length bound; cross-checked against the true
    component list."""
    t = as_rat(t)
    fib = fiber(family, t)
    if not fib.is_bounded:
        raise PreconditionError("match_endpoints needs a bounded fiber")
    k = uniform_length_bound(family)
    if not is_finite(k):
        raise PreconditionError("no finite uniform length bound")
    rights = iv.endpoints(fib, "right")
    pairs: List[Tuple[Rat, Rat]] = []
    for a in iv.endpoints(fib, "left"):
        window = [b for b in rights if a <= b <= a + k]
        if not window:
            raise PairingMismatch(f"no right endpoint within {k} of {a}")
        pairs.append((a, min(window)))
    truth = [(p.lo, p.hi) for p in fib.parts]
    if pairs != truth:
        raise PairingMismatch(
            "formula pairing disagrees with the component list "
            "(adjacent open components share an endpoint)")
    return pairs
