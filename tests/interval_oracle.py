"""The quadratic 1-D boolean operations that the merge sweep replaced.

Kept as a reference for differential tests: ``intersect`` tries every
pair of parts and re-normalizes, ``difference`` intersects with the
complement, ``symmdiff`` is two differences and a union, and ``union``
and ``normalize`` sort the parts and merge neighbours.  ``affine_op``
re-normalizes the image of each part, as it did before it returned the
image parts directly.
"""

from typing import Iterable, List, Optional

from semilin.intervals import Interval, IntervalUnion
from semilin.rat import Ext, NEG_INF, POS_INF, as_rat


def _mergeable(a: Interval, b: Interval) -> bool:
    # a sorted before b: they overlap, or touch with one side closed
    if b.lo < a.hi:
        return True
    return b.lo == a.hi and (a.hi_closed or b.lo_closed)


def _merge(a: Interval, b: Interval) -> Interval:
    if (b.hi, b.hi_closed) > (a.hi, a.hi_closed):
        hi, hi_closed = b.hi, b.hi_closed
    else:
        hi, hi_closed = a.hi, a.hi_closed
    return Interval(a.lo, hi, a.lo_closed, hi_closed)


def normalize(raw: Iterable[Interval]) -> IntervalUnion:
    items = sorted(raw, key=lambda p: (p.lo, not p.lo_closed))
    parts: List[Interval] = []
    for item in items:
        if parts and _mergeable(parts[-1], item):
            parts[-1] = _merge(parts[-1], item)
        else:
            parts.append(item)
    return IntervalUnion(tuple(parts))


def union(x: IntervalUnion, y: IntervalUnion) -> IntervalUnion:
    return normalize(x.parts + y.parts)


def complement(x: IntervalUnion) -> IntervalUnion:
    parts: List[Interval] = []
    lo: Ext = NEG_INF
    lo_closed = False
    for p in x.parts:
        if lo < p.lo or (lo == p.lo and lo_closed and not p.lo_closed):
            parts.append(Interval(lo, p.lo, lo_closed, not p.lo_closed))
        lo, lo_closed = p.hi, not p.hi_closed
    if lo < POS_INF:
        parts.append(Interval(lo, POS_INF, lo_closed, False))
    return IntervalUnion(tuple(parts))


def _intersect_parts(a: Interval, b: Interval) -> Optional[Interval]:
    if a.lo > b.lo:
        lo, lo_closed = a.lo, a.lo_closed
    elif b.lo > a.lo:
        lo, lo_closed = b.lo, b.lo_closed
    else:
        lo, lo_closed = a.lo, a.lo_closed and b.lo_closed
    if a.hi < b.hi:
        hi, hi_closed = a.hi, a.hi_closed
    elif b.hi < a.hi:
        hi, hi_closed = b.hi, b.hi_closed
    else:
        hi, hi_closed = a.hi, a.hi_closed and b.hi_closed
    if lo > hi:
        return None
    if lo == hi and not (lo_closed and hi_closed):
        return None
    return Interval(lo, hi, lo_closed, hi_closed)


def intersect(x: IntervalUnion, y: IntervalUnion) -> IntervalUnion:
    pieces = []
    for a in x.parts:
        for b in y.parts:
            if b.lo > a.hi:
                break
            r = _intersect_parts(a, b)
            if r is not None:
                pieces.append(r)
    return normalize(pieces)


def difference(x: IntervalUnion, y: IntervalUnion) -> IntervalUnion:
    return intersect(x, complement(y))


def symmdiff(x: IntervalUnion, y: IntervalUnion) -> IntervalUnion:
    return union(difference(x, y), difference(y, x))


def affine_op(x: IntervalUnion, q, a) -> IntervalUnion:
    q, a = as_rat(q), as_rat(a)
    parts = []
    for p in x.parts:
        if q > 0:
            parts.append(Interval(q * p.lo + a, q * p.hi + a,
                                  p.lo_closed, p.hi_closed))
        else:
            parts.append(Interval(q * p.hi + a, q * p.lo + a,
                                  p.hi_closed, p.lo_closed))
    return normalize(parts)
