"""Placement of finite generator sets in the semilinear reduct lattice.

Three levels, each with a machine-checkable certificate: an affine-combo
normal form (boolean combination of points and full lines), a baseline
set whose symmetric difference with the generator is bounded, or a
replayable trace deriving a ray.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, Optional, Tuple, Union

from . import intervals as iv
from . import planar
from .errors import SemilinError
from .intervals import FULL_LINE, IntervalUnion
from .planar import (Carrier, Decomposition, PlanarComplex, Slope, VERTICAL,
                     carrier_of, decompose, pc_normalize, pc_section)
from .rat import Rat
from .synthesis import derive_ray
from .trace import Trace, TraceStep, compose, replay

Value = Union[IntervalUnion, PlanarComplex]


class Level(enum.IntEnum):
    LIN = 0
    LIN_STAR = 1
    SEMI = 2


@dataclass(frozen=True)
class LinForm1D:
    """A finite set of points, or the complement of one."""

    cofinite: bool
    points: Tuple[Rat, ...]

    def evaluate(self) -> IntervalUnion:
        base = iv.points(self.points)
        return iv.complement(base) if self.cofinite else base


@dataclass(frozen=True)
class LinLine:
    slope: Slope
    shift: Rat
    removed: Tuple[Rat, ...]  # parameters of deleted points


@dataclass(frozen=True)
class LinForm2D:
    """Full lines minus finitely many points, plus finitely many points."""

    lines: Tuple[LinLine, ...]
    points: Tuple[Tuple[Rat, Rat], ...]

    def evaluate(self) -> PlanarComplex:
        cells = [planar.Point(x, y) for x, y in self.points]
        for line in self.lines:
            carrier = Carrier(line.slope, line.shift)
            u = iv.difference(iv.IntervalUnion((FULL_LINE,)),
                              iv.points(line.removed))
            cells.extend(carrier.cells(u))
        return pc_normalize(cells)


LinForm = Union[LinForm1D, LinForm2D]


def is_affine_combo(x: Value) -> Optional[LinForm]:
    """Normal form as a boolean combination of points and full lines, if
    one exists."""
    if isinstance(x, IntervalUnion):
        if all(p.is_point for p in x.parts):
            return LinForm1D(False, tuple(p.lo for p in x.parts))
        co = iv.complement(x)
        if all(p.is_point for p in co.parts):
            return LinForm1D(True, tuple(p.lo for p in co.parts))
        return None
    view = x._view
    lines = []
    for carrier in sorted(view.carriers, key=Carrier.sort_key):
        co = iv.complement(view.carriers[carrier])
        if not all(p.is_point for p in co.parts):
            return None
        lines.append(LinLine(carrier.slope, carrier.shift,
                             tuple(p.lo for p in co.parts)))
    pts = tuple(sorted((p.x, p.y) for p in view.points))
    return LinForm2D(tuple(lines), pts)


def sb_certificate(x: Value) -> Optional[Value]:
    """A baseline A (a boolean combination of full affine lines) with
    x symdiff A bounded, or None when no such baseline exists."""
    return _baseline(x)[0]


def _baseline(x: Value) -> Tuple[Optional[Value], Optional[Decomposition]]:
    # sb_certificate, plus the decomposition of a planar x
    if isinstance(x, IntervalUnion):
        if x.is_bounded:
            baseline = iv.EMPTY
        elif iv.complement(x).is_bounded:
            baseline = iv.FULL
        else:
            return None, None
        dec = None
        bounded = iv.symmdiff(x, baseline).is_bounded
    else:
        dec = decompose(x)
        if dec.unresolved:
            return None, dec
        cells = []
        for slope, shifts in dec.graphs:
            for d in shifts:
                cells.append(Carrier(slope, d).full_line_cell())
        for d in dec.verticals:
            cells.append(Carrier(VERTICAL, d).full_line_cell())
        baseline = pc_normalize(cells)
        # off the carrier lines of both sets lie only finitely many points
        lines = x._view.carriers.keys() | baseline._view.carriers.keys()
        bounded = all(iv.symmdiff(pc_section(x, k.slope, k.shift),
                                  pc_section(baseline, k.slope, k.shift)).is_bounded
                      for k in lines)
    # the only check of this certificate; classify relies on it
    if not bounded:
        raise SemilinError("baseline verification failed")
    return baseline, dec


@dataclass(frozen=True)
class RayCert:
    """SEMI evidence: a trace from one generator to a ray."""

    generator: str
    trace: Trace
    ray: IntervalUnion


@dataclass(frozen=True)
class Verdict:
    level: Level
    lin_forms: Optional[Tuple[Tuple[str, LinForm], ...]] = None
    baselines: Optional[Tuple[Tuple[str, Value], ...]] = None
    ray: Optional[RayCert] = None


def _semi_certificate(name: str, value: Value,
                      dec: Optional[Decomposition]) -> RayCert:
    if isinstance(value, IntervalUnion):
        ray, trace = derive_ray(value, name=name)
    else:
        carrier = carrier_of(dec.unresolved[0])
        head = Trace((name,),
                     (TraceStep("section", name, slope=carrier.slope,
                                offset=carrier.shift),),
                     output=0)
        section = pc_section(value, carrier.slope, carrier.shift)
        ray, tail = derive_ray(section, name="section")
        trace = compose(head, tail)
    if replay(trace, {name: value}) != ray:
        raise SemilinError("ray certificate failed to replay")
    return RayCert(name, trace, ray)


def classify(generators: Mapping[str, Value]) -> Verdict:
    """Decide the lattice level generated by the given sets.

    LIN when every generator has an affine-combo form; otherwise
    LIN_STAR when every generator has a bounded-difference baseline;
    otherwise SEMI, certified by a replayed ray derivation from some
    failing generator.
    """
    items = list(generators.items())
    if not items:
        return Verdict(Level.LIN, lin_forms=())
    forms = [(name, is_affine_combo(v)) for name, v in items]
    if all(form is not None for _, form in forms):
        for (name, form), (_, value) in zip(forms, items):
            if form.evaluate() != value:
                raise SemilinError(f"normal form for {name!r} failed to re-evaluate")
        return Verdict(Level.LIN, lin_forms=tuple(forms))
    certs = [(name, *_baseline(v)) for name, v in items]
    if all(cert is not None for _, cert, _ in certs):
        return Verdict(Level.LIN_STAR,
                       baselines=tuple((name, cert) for name, cert, _ in certs))
    name, dec = next((n, d) for n, c, d in certs if c is None)
    return Verdict(Level.SEMI,
                   ray=_semi_certificate(name, generators[name], dec))
