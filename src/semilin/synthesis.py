"""Constructive definability on the line.

From a set unbounded on both sides, synthesize a ray; from a bounded or
co-bounded infinite set, synthesize a single interval.  Each derivation
returns a replayable trace whose steps stay inside the restricted
alphabet, so the result doubles as a definability certificate.
"""

from __future__ import annotations

import math
from typing import List, Tuple

from . import intervals as iv
from .errors import IterationCapExceeded, PreconditionError
from .intervals import (Interval, IntervalUnion, OneDimKind,
                        classify_one_dim, _shift_candidates)
from .rat import NEG_INF
from .trace import Ref, Trace, TraceStep


class _Builder:
    """Tracks the current value while emitting trace steps."""

    def __init__(self, name: str, value: IntervalUnion):
        self.name = name
        self.steps: List[TraceStep] = []
        self.ref: Ref = name
        self.value = value

    def _emit(self, step: TraceStep, value: IntervalUnion):
        self.steps.append(step)
        self.ref = len(self.steps) - 1
        self.value = value

    def translate(self, amount):
        self._emit(TraceStep("translate", self.ref, amount=amount),
                   iv.translate(self.value, amount))

    def scale(self, factor):
        self._emit(TraceStep("scale", self.ref, factor=factor),
                   iv.scale(self.value, factor))

    def complement(self):
        self._emit(TraceStep("complement", self.ref),
                   iv.complement(self.value))

    def intersect(self, ref: Ref, value: IntervalUnion):
        self._emit(TraceStep("intersect", self.ref, other=ref),
                   iv.intersect(self.value, value))

    def diff_from(self, ref: Ref, value: IntervalUnion):
        # value \ current, referencing the register holding `value`
        self._emit(TraceStep("diff", ref, other=self.ref),
                   iv.difference(value, self.value))

    def trace(self) -> Trace:
        output: Ref = len(self.steps) - 1 if self.steps else self.name
        return Trace((self.name,), tuple(self.steps), output)


def derive_ray(y: IntervalUnion, name: str = "Y") -> Tuple[IntervalUnion, Trace]:
    """Peel bounded components off a both-unbounded set until a single
    ray remains, mirroring the reflect-shift-intersect construction."""
    cls = classify_one_dim(y)
    if cls.kind is not OneDimKind.BOTH_UNBOUNDED:
        raise PreconditionError("derive_ray needs a set unbounded on both sides")
    b = _Builder(name, y)
    if len(y.parts) == 1:
        return y, b.trace()
    # reduce to the left-ray form, then put the ray's endpoint at 0
    if b.value.parts[0].lo != NEG_INF:
        b.scale(-1)
    ray_end = b.value.parts[0].hi
    if ray_end != 0:
        b.translate(-ray_end)
    guard = 2 * len(y.parts) + 2
    while len(b.value.parts) > 1:
        guard -= 1
        if guard < 0:
            raise IterationCapExceeded("ray peeling failed to make progress")
        cur_ref, cur_val = b.ref, b.value
        b.scale(-1)
        b.intersect(cur_ref, cur_val)
        n_ref, n_val = b.ref, b.value
        last = n_val.parts[-1]
        b.translate(last.lo + last.hi)
        b.intersect(n_ref, n_val)
        b.diff_from(cur_ref, cur_val)
    ray = b.value
    if len(ray.parts) != 1 or ray.parts[0].is_bounded:
        raise IterationCapExceeded("ray peeling did not end in a single ray")
    return ray, b.trace()


def _iteration_cap(z: IntervalUnion) -> int:
    gaps = [b.lo - a.hi for a, b in zip(z.parts, z.parts[1:]) if b.lo > a.hi]
    diameter = z.sup - z.inf
    ratio = math.ceil(diameter / min(gaps)) if gaps else 1
    return max(8, 4 * len(z.parts) * ratio)


def derive_interval(y: IntervalUnion, name: str = "Y") -> Tuple[Interval, Trace]:
    """Contract a bounded (or complemented co-bounded) infinite set down
    to one non-degenerate interval.

    Each round intersects the set with a translate of itself: by the
    right-endpoint difference when all components are non-degenerate,
    and by half the shortest positive component length when isolated
    points need clearing first.  A difference-set search is the fallback;
    exhausting both raises IterationCapExceeded.
    """
    cls = classify_one_dim(y)
    if cls.kind is not OneDimKind.BOUNDED_OR_COBOUNDED_INFINITE:
        raise PreconditionError(
            "derive_interval needs a bounded or co-bounded infinite set")
    b = _Builder(name, y)
    if cls.side == "cobounded":
        b.complement()
    z0_ref, z0 = b.ref, b.value
    for _ in range(_iteration_cap(z0)):
        parts = b.value.parts
        if len(parts) == 1 and not parts[0].is_point:
            return parts[0], b.trace()
        if len(parts) <= 1:
            break
        nondeg = [p for p in parts if not p.is_point]
        if nondeg and len(nondeg) < len(parts):
            shift = min(p.length for p in nondeg) / 2
        else:
            shift = parts[-1].hi - parts[0].hi
            if shift == 0:
                break
        prev_ref, prev_val = b.ref, b.value
        b.translate(shift)
        b.intersect(prev_ref, prev_val)
        if b.value == prev_val:
            break
    for d in _shift_candidates(z0):
        hit = iv.intersect(iv.translate(z0, d), z0)
        if len(hit.parts) == 1 and not hit.parts[0].is_point:
            b = _Builder(name, y)
            if cls.side == "cobounded":
                b.complement()
            b.translate(d)
            b.intersect(z0_ref, z0)
            return b.value.parts[0], b.trace()
    raise IterationCapExceeded(
        "contraction hit its cap and no endpoint difference isolates an interval")
