"""Replayable derivation traces over a restricted operation alphabet.

A trace is the artifact's definability certificate: every step is a map
definable from addition, scalar multiples and the generators, so a
successful replay witnesses constructibility in the corresponding
reduct.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Optional, Tuple, Union

from . import intervals as iv
from . import planar
from .errors import ReplayError
from .intervals import IntervalUnion
from .planar import PlanarComplex, Slope, as_slope
from .rat import Rat, as_rat

Ref = Union[str, int]
Value = Union[IntervalUnion, PlanarComplex]

OPS = frozenset({
    "translate", "scale", "intersect", "union", "diff",
    "complement", "swap", "section", "project",
})
_BINARY = frozenset({"intersect", "union", "diff"})


def _check_ref(ref) -> Ref:
    if isinstance(ref, str) or (isinstance(ref, int) and ref >= 0):
        return ref
    raise ValueError(f"bad reference {ref!r}")


@dataclass(frozen=True)
class TraceStep:
    """One operation: `src` names the operand (a generator or an earlier
    step), `other` the second operand for the binary ops."""

    op: str
    src: Ref
    other: Optional[Ref] = None
    amount: Optional[Rat] = None
    factor: Optional[Rat] = None
    slope: Optional[Slope] = None
    offset: Optional[Rat] = None
    axis: Optional[int] = None

    def __post_init__(self):
        if self.op not in OPS:
            raise ValueError(f"operation {self.op!r} not in the trace alphabet")
        _check_ref(self.src)
        if (self.other is not None) != (self.op in _BINARY):
            raise ValueError(f"{self.op} takes exactly {2 if self.op in _BINARY else 1} operand(s)")
        if self.other is not None:
            _check_ref(self.other)
        if (self.amount is not None) != (self.op == "translate"):
            raise ValueError("amount goes with translate")
        if self.amount is not None:
            object.__setattr__(self, "amount", as_rat(self.amount))
        if (self.factor is not None) != (self.op == "scale"):
            raise ValueError("factor goes with scale")
        if self.factor is not None:
            object.__setattr__(self, "factor", as_rat(self.factor))
            if self.factor == 0:
                raise ValueError("scale factor must be nonzero")
        if self.op == "section":
            if self.slope is None or self.offset is None:
                raise ValueError("section needs both slope and offset")
            object.__setattr__(self, "slope", as_slope(self.slope))
            object.__setattr__(self, "offset", as_rat(self.offset))
        elif self.slope is not None or self.offset is not None:
            raise ValueError("slope and offset go with section")
        if (self.axis is not None) != (self.op == "project"):
            raise ValueError("axis goes with project")
        # True == 1 and 1.0 == 1, so test the type before the value
        if self.axis is not None and (type(self.axis) is not int
                                      or self.axis not in (1, 2)):
            raise ValueError("axis must be 1 or 2")


@dataclass(frozen=True)
class Trace:
    """A straight-line derivation: named generators, steps whose
    references only point backward, and a designated output."""

    generators: Tuple[str, ...]
    steps: Tuple[TraceStep, ...]
    output: Ref

    def __post_init__(self):
        if not self.generators:
            raise ValueError("a trace needs at least one generator")
        if len(set(self.generators)) != len(self.generators):
            raise ValueError("generator names must be unique")

        def ok(ref, limit):
            if isinstance(ref, str):
                return ref in self.generators
            return 0 <= ref < limit

        for i, step in enumerate(self.steps):
            if not ok(step.src, i):
                raise ValueError(f"step {i} references forward or unknown {step.src!r}")
            if step.other is not None and not ok(step.other, i):
                raise ValueError(f"step {i} references forward or unknown {step.other!r}")
        if not ok(self.output, len(self.steps)):
            raise ValueError(f"output reference {self.output!r} is invalid")


def _apply(step: TraceStep, src: Value, other: Optional[Value]) -> Value:
    one_dim = isinstance(src, IntervalUnion)
    if step.op == "translate":
        if not one_dim:
            raise ReplayError("translate applies to one-dimensional sets")
        return iv.translate(src, step.amount)
    if step.op == "scale":
        if not one_dim:
            raise ReplayError("scale applies to one-dimensional sets")
        return iv.scale(src, step.factor)
    if step.op == "complement":
        if not one_dim:
            raise ReplayError("complement applies to one-dimensional sets")
        return iv.complement(src)
    if step.op in _BINARY:
        kind = {"diff": "difference"}.get(step.op, step.op)
        if isinstance(other, IntervalUnion) != one_dim:
            raise ReplayError(f"{step.op} operands have mismatched dimensions")
        if one_dim:
            return iv.bool_op(kind, src, other)
        return planar.pc_bool_op(kind, src, other)
    # the 2-D alphabet
    if one_dim:
        raise ReplayError(f"{step.op} applies to planar sets")
    if step.op == "swap":
        return planar.pc_affine(src, swap=True)
    if step.op == "section":
        return planar.pc_section(src, step.slope, step.offset)
    return planar.pc_project(src, step.axis)


def replay(trace: Trace, generators: Mapping[str, Value]) -> Value:
    """Deterministically evaluate a trace against generator values."""
    for name in trace.generators:
        if name not in generators:
            raise ReplayError(f"missing generator {name!r}")
    values: list = []

    def deref(ref: Ref) -> Value:
        return generators[ref] if isinstance(ref, str) else values[ref]

    for step in trace.steps:
        other = deref(step.other) if step.other is not None else None
        values.append(_apply(step, deref(step.src), other))
    return deref(trace.output)


def compose(head: Trace, tail: Trace) -> Trace:
    """Splice `tail` (single-generator) onto `head`, binding the tail's
    generator to the head's output."""
    if len(tail.generators) != 1:
        raise ValueError("tail must have exactly one generator")
    offset = len(head.steps)

    def rebind(ref: Ref) -> Ref:
        if isinstance(ref, str):
            return head.output
        return ref + offset

    steps = list(head.steps)
    for step in tail.steps:
        steps.append(replace(
            step, src=rebind(step.src),
            other=rebind(step.other) if step.other is not None else None))
    return Trace(head.generators, tuple(steps), rebind(tail.output))
