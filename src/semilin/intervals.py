"""Canonical finite unions of intervals and points on the rational line.

The normal form keeps components pairwise disjoint, sorted and
non-mergeable, so set equality is structural equality on the part list.
All operations are exact and return normalized values.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, List, NamedTuple, Optional, Tuple

from .errors import NoIsolatingShift, PreconditionError
from .rat import Ext, NEG_INF, POS_INF, Rat, as_ext, as_rat, fmt_ext, is_finite


@dataclass(frozen=True)
class Interval:
    """A nonempty interval with extended endpoints.

    Closed ends must be finite, and a degenerate interval (lo == hi) is a
    point, closed on both sides.
    """

    lo: Ext
    hi: Ext
    lo_closed: bool = False
    hi_closed: bool = False

    def __post_init__(self):
        object.__setattr__(self, "lo", as_ext(self.lo))
        object.__setattr__(self, "hi", as_ext(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"malformed interval: lo {self.lo} > hi {self.hi}")
        if self.lo_closed and not is_finite(self.lo):
            raise ValueError("closed lower end must be finite")
        if self.hi_closed and not is_finite(self.hi):
            raise ValueError("closed upper end must be finite")
        if self.lo == self.hi and not (self.lo_closed and self.hi_closed):
            raise ValueError("degenerate interval must be a closed point")

    @classmethod
    def open(cls, lo, hi) -> "Interval":
        return cls(as_ext(lo), as_ext(hi))

    @classmethod
    def closed(cls, lo, hi) -> "Interval":
        return cls(as_rat(lo), as_rat(hi), True, True)

    @classmethod
    def point(cls, value) -> "Interval":
        q = as_rat(value)
        return cls(q, q, True, True)

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    @property
    def is_bounded(self) -> bool:
        return is_finite(self.lo) and is_finite(self.hi)

    @property
    def length(self) -> Ext:
        if not self.is_bounded:
            return POS_INF
        return self.hi - self.lo

    def contains(self, x) -> bool:
        x = as_rat(x)
        if x < self.lo or (x == self.lo and not self.lo_closed):
            return False
        if x > self.hi or (x == self.hi and not self.hi_closed):
            return False
        return True

    def closure(self) -> "Interval":
        return Interval(self.lo, self.hi,
                        is_finite(self.lo), is_finite(self.hi))

    def __str__(self) -> str:
        if self.is_point:
            return "{%s}" % fmt_ext(self.lo)
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        return f"{left}{fmt_ext(self.lo)},{fmt_ext(self.hi)}{right}"


FULL_LINE = Interval(NEG_INF, POS_INF)


@dataclass(frozen=True)
class IntervalUnion:
    """A finite union of disjoint, sorted, non-mergeable intervals."""

    parts: Tuple[Interval, ...] = ()

    @property
    def is_empty(self) -> bool:
        return not self.parts

    @property
    def is_full(self) -> bool:
        return self.parts == (FULL_LINE,)

    @property
    def is_bounded(self) -> bool:
        return all(p.is_bounded for p in self.parts)

    @property
    def inf(self) -> Ext:
        return self.parts[0].lo if self.parts else POS_INF

    @property
    def sup(self) -> Ext:
        return self.parts[-1].hi if self.parts else NEG_INF

    def contains(self, x) -> bool:
        # only the last part starting at or before x can hold it
        x = as_rat(x)
        i = bisect_right(self.parts, x, key=lambda p: p.lo)
        return i > 0 and self.parts[i - 1].contains(x)

    def __or__(self, other: "IntervalUnion") -> "IntervalUnion":
        return union(self, other)

    def __and__(self, other: "IntervalUnion") -> "IntervalUnion":
        return intersect(self, other)

    def __sub__(self, other: "IntervalUnion") -> "IntervalUnion":
        return difference(self, other)

    def __xor__(self, other: "IntervalUnion") -> "IntervalUnion":
        return symmdiff(self, other)

    def __invert__(self) -> "IntervalUnion":
        return complement(self)

    def __str__(self) -> str:
        if not self.parts:
            return "{}"
        return " u ".join(str(p) for p in self.parts)


EMPTY = IntervalUnion()
FULL = IntervalUnion((FULL_LINE,))


def normalize(raw: Iterable[Interval]) -> IntervalUnion:
    """Build the canonical form of a union of intervals.

    Idempotent and insensitive to the input order; overlapping or
    closure-touching intervals are merged.
    """
    return _sweep(raw, (), operator.or_)


def _sweep(xs: Iterable[Interval], ys: Iterable[Interval],
           keep: Callable[[bool, bool], bool]) -> IntervalUnion:
    """The points t with keep(t in xs, t in ys), in one merge sweep.

    Each end of a part, infinite ones included, is an event changing the
    count of parts that hold its value and the open gap after it.
    Canonical part lists give sorted events, so the sort merges two runs in
    linear time (raw input to normalize gets a full sort).  The maximal
    runs where keep() holds are emitted, so the result is canonical.
    keep(False, False) must be False.
    """
    events = []
    for k, parts in enumerate((xs, ys)):
        for p in parts:
            events.append((p.lo, k, p.lo_closed, 1, p))
            events.append((p.hi, k, p.hi_closed - 1, -1, p))
    events.sort(key=operator.itemgetter(0))
    # parts of xs and of ys holding the event value, and the gap after it
    here, gap = [0, 0], [0, 0]
    inside, lo, lo_closed, out = False, NEG_INF, False, []
    end = FULL_LINE  # the part that ended last; a run equal to it reuses it
    for i, (v, k, d_here, d_gap, p) in enumerate(events, 1):
        here[k] += d_here
        gap[k] += d_gap
        if d_gap < 0:
            end = p
        if i < len(events) and (events[i][0] is v or events[i][0] == v):
            continue
        # a run that opens or closes at v holds v exactly when keep() does
        at = keep(here[0] > 0, here[1] > 0)
        for now in (at, keep(gap[0] > 0, gap[1] > 0)):
            if now == inside:
                continue
            if not inside:
                lo, lo_closed = v, at
            elif (end.lo_closed == lo_closed and end.hi_closed == at
                  and (end.lo is lo or end.lo == lo)
                  and (end.hi is v or end.hi == v)):
                out.append(end)
            else:
                out.append(Interval(lo, v, lo_closed, at))
            inside = now
        here = gap[:]
    return IntervalUnion(tuple(out))


_AND_NOT = operator.gt  # on booleans, a > b is a and not b


def points(values: Iterable) -> IntervalUnion:
    return normalize(Interval.point(v) for v in values)


def union(x: IntervalUnion, y: IntervalUnion) -> IntervalUnion:
    return _sweep(x.parts, y.parts, operator.or_)


def intersect(x: IntervalUnion, y: IntervalUnion) -> IntervalUnion:
    return _sweep(x.parts, y.parts, operator.and_)


def difference(x: IntervalUnion, y: IntervalUnion) -> IntervalUnion:
    return _sweep(x.parts, y.parts, _AND_NOT)


def symmdiff(x: IntervalUnion, y: IntervalUnion) -> IntervalUnion:
    return _sweep(x.parts, y.parts, operator.xor)


def complement(x: IntervalUnion) -> IntervalUnion:
    return _sweep(FULL.parts, x.parts, _AND_NOT)


_BOOL_OPS = {
    "union": union,
    "intersect": intersect,
    "difference": difference,
    "symmdiff": symmdiff,
}


def bool_op(kind: str, x: IntervalUnion,
            y: Optional[IntervalUnion] = None) -> IntervalUnion:
    """Dispatch a boolean set operation by name."""
    if kind == "complement":
        if y is not None:
            raise ValueError("complement takes one operand")
        return complement(x)
    if kind not in _BOOL_OPS:
        raise ValueError(f"unknown boolean operation {kind!r}")
    if y is None:
        raise ValueError(f"{kind} takes two operands")
    return _BOOL_OPS[kind](x, y)


def affine_op(x: IntervalUnion, q, a) -> IntervalUnion:
    """Image of x under t -> q*t + a, for nonzero rational q."""
    q, a = as_rat(q), as_rat(a)
    if q == 0:
        raise ValueError("affine map must have nonzero scale")
    parts = []
    for p in x.parts:
        if q > 0:
            parts.append(Interval(q * p.lo + a, q * p.hi + a,
                                  p.lo_closed, p.hi_closed))
        else:
            parts.append(Interval(q * p.hi + a, q * p.lo + a,
                                  p.hi_closed, p.lo_closed))
    # an affine bijection keeps parts disjoint and non-mergeable, so the
    # image is canonical once a negative scale's reversal is undone
    return IntervalUnion(tuple(parts) if q > 0 else tuple(reversed(parts)))


def translate(x: IntervalUnion, a) -> IntervalUnion:
    return affine_op(x, 1, a)


def scale(x: IntervalUnion, q) -> IntervalUnion:
    return affine_op(x, q, 0)


def components(x: IntervalUnion) -> List[Interval]:
    """The connected components, degenerate points included."""
    return list(x.parts)


def endpoints(x: IntervalUnion, side: str) -> List[Rat]:
    """Finite left (resp. right) endpoints of the components.

    Infinite ends contribute nothing; a point contributes on both sides.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    out = []
    for p in x.parts:
        e = p.lo if side == "left" else p.hi
        if is_finite(e):
            out.append(e)
    return out


class SetClass(Enum):
    BOUNDED = "bounded"
    COBOUNDED = "cobounded"
    BOTH_UNBOUNDED = "both_unbounded"
    DEGENERATE = "degenerate_empty_or_full"


class BoundednessReport(NamedTuple):
    kind: SetClass
    witness: Optional[Rat]


def boundedness(x: IntervalUnion) -> BoundednessReport:
    """Classify by boundedness; bounded nonempty sets get a shift witness.

    The witness a satisfies (a + x) & x == {}; one more than the
    diameter always works.
    """
    if x.is_empty or x.is_full:
        return BoundednessReport(SetClass.DEGENERATE, None)
    if x.is_bounded:
        witness = x.sup - x.inf + 1
        return BoundednessReport(SetClass.BOUNDED, witness)
    if complement(x).is_bounded:
        return BoundednessReport(SetClass.COBOUNDED, None)
    return BoundednessReport(SetClass.BOTH_UNBOUNDED, None)


def topo_op(x: IntervalUnion, kind: str) -> IntervalUnion:
    """Closure, interior or frontier in the order topology."""
    if kind == "closure":
        return normalize(p.closure() for p in x.parts)
    if kind == "interior":
        parts = []
        for p in x.parts:
            if p.is_point:
                continue
            parts.append(Interval(p.lo, p.hi, False, False))
        return normalize(parts)
    if kind == "frontier":
        return difference(topo_op(x, "closure"), topo_op(x, "interior"))
    raise ValueError(f"unknown topological operator {kind!r}")


class Metrics(NamedTuple):
    max_component_length: Ext
    diameter: Ext


def metrics(x: IntervalUnion) -> Metrics:
    """Largest component length and overall diameter; (0, 0) for {}."""
    if x.is_empty:
        return Metrics(as_rat(0), as_rat(0))
    longest = max(p.length for p in x.parts)
    if not is_finite(x.inf) or not is_finite(x.sup):
        return Metrics(longest, POS_INF)
    return Metrics(longest, x.sup - x.inf)


class Isolation(NamedTuple):
    shift: Rat
    single: Interval


def _shift_candidates(x: IntervalUnion) -> List[Rat]:
    ends = sorted(set(endpoints(x, "left")) | set(endpoints(x, "right")))
    diffs = {a - b for a in ends for b in ends if a != b}
    return sorted(diffs, key=lambda d: (abs(d), d < 0))


def isolate_interval(x: IntervalUnion) -> Isolation:
    """Find an endpoint-difference shift d with (x + d) & x equal to one
    component of x.

    The search runs over all pairwise differences of finite endpoints,
    smallest magnitude first (positive preferred on ties), and verifies
    every candidate; raises NoIsolatingShift when none works.
    """
    if not x.is_bounded:
        raise PreconditionError("isolate_interval needs a bounded set")
    if len(x.parts) < 2:
        raise PreconditionError("isolate_interval needs >= 2 components")
    comps = set(x.parts)
    searched = _shift_candidates(x)
    for d in searched:
        hit = intersect(translate(x, d), x)
        if len(hit.parts) == 1 and hit.parts[0] in comps:
            return Isolation(d, hit.parts[0])
    raise NoIsolatingShift(
        f"no isolating shift among {len(searched)} endpoint differences")


class OneDimKind(Enum):
    FINITE_OR_COFINITE = "finite_or_cofinite"
    BOUNDED_OR_COBOUNDED_INFINITE = "bounded_or_cobounded_infinite"
    BOTH_UNBOUNDED = "both_unbounded"


@dataclass(frozen=True)
class OneDimClass:
    kind: OneDimKind
    side: Optional[str] = None  # "bounded" | "cobounded" where applicable


def classify_one_dim(y: IntervalUnion) -> OneDimClass:
    """Place a set in the trichotomy driving the synthesis procedures."""
    if all(p.is_point for p in y.parts):
        return OneDimClass(OneDimKind.FINITE_OR_COFINITE, "bounded")
    co = complement(y)
    if all(p.is_point for p in co.parts):
        return OneDimClass(OneDimKind.FINITE_OR_COFINITE, "cobounded")
    if y.is_bounded:
        return OneDimClass(OneDimKind.BOUNDED_OR_COBOUNDED_INFINITE, "bounded")
    if co.is_bounded:
        return OneDimClass(OneDimKind.BOUNDED_OR_COBOUNDED_INFINITE, "cobounded")
    return OneDimClass(OneDimKind.BOTH_UNBOUNDED)
