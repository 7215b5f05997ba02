"""Family refinement as it was before the single sweep along t.

Kept as a reference for differential tests: it cuts the parameter axis
into pieces at every critical point and, for each piece, re-evaluates,
re-sorts and re-merges every cell at a sample parameter, where
``family._refine`` re-merges only the components an event touches.  The
module shares no private helper with ``semilin.family``.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List

from semilin import intervals as iv
from semilin.errors import UnboundedFiber
from semilin.family import AffineFn, Family, Graph, bounded_params, param_domain
from semilin.intervals import Interval, IntervalUnion
from semilin.rat import POS_INF, Ext, Rat, is_finite


def _sample_interior(lo: Ext, hi: Ext) -> Rat:
    lo_fin, hi_fin = is_finite(lo), is_finite(hi)
    if lo_fin and hi_fin:
        return (lo + hi) / 2
    if lo_fin:
        return lo + 1
    if hi_fin:
        return hi - 1
    return Fraction(0)


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


def criticals(family: Family) -> List[Rat]:
    out = set()
    entries = []
    for c in family.cells:
        for e in (c.domain.lo, c.domain.hi):
            if is_finite(e):
                out.add(e)
        if isinstance(c, Graph):
            entries.append((c.value, c.domain))
        else:
            if isinstance(c.lower, AffineFn):
                entries.append((c.lower, c.domain))
            if isinstance(c.upper, AffineFn):
                entries.append((c.upper, c.domain))
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            f, df = entries[i]
            g, dg = entries[j]
            if f.slope == g.slope:
                continue
            t = (g.intercept - f.intercept) / (f.slope - g.slope)
            if df.contains(t) and dg.contains(t):
                out.add(t)
    return sorted(out)


def pieces(region: IntervalUnion, crits: List[Rat]) -> List[Interval]:
    out: List[Interval] = []
    for comp in region.parts:
        if comp.is_point:
            out.append(comp)
            continue
        cuts = [t for t in crits if comp.lo < t < comp.hi]
        if comp.lo_closed:
            out.append(Interval.point(comp.lo))
        edges = [comp.lo] + cuts + [comp.hi]
        for a, b in zip(edges, edges[1:]):
            out.append(Interval(a, b))
        for t in cuts:
            out.append(Interval.point(t))
        if comp.hi_closed:
            out.append(Interval.point(comp.hi))
    return out


@dataclass(frozen=True)
class SymComp:
    lo: AffineFn
    hi: AffineFn
    lo_closed: bool
    hi_closed: bool


def symbolic_components(family: Family, t: Rat) -> List[SymComp]:
    """Merged fiber components at t, with their boundary functions."""
    raw: List[SymComp] = []
    for c in family.cells:
        if not c.domain.contains(t):
            continue
        if isinstance(c, Graph):
            raw.append(SymComp(c.value, c.value, True, True))
            continue
        if not (isinstance(c.lower, AffineFn) and isinstance(c.upper, AffineFn)):
            raise UnboundedFiber(f"fiber at {t} is unbounded")
        lo, hi = c.lower(t), c.upper(t)
        if lo > hi:
            continue
        if lo == hi and not (c.lower_closed and c.upper_closed):
            continue
        raw.append(SymComp(c.lower, c.upper, c.lower_closed, c.upper_closed))
    raw.sort(key=lambda s: (s.lo(t), not s.lo_closed) + s.lo.key())
    merged: List[SymComp] = []
    for item in raw:
        if merged:
            a = merged[-1]
            a_hi, b_lo = a.hi(t), item.lo(t)
            if b_lo < a_hi or (b_lo == a_hi and (a.hi_closed or item.lo_closed)):
                hi_a, hi_b = a.hi(t), item.hi(t)
                if (hi_b, item.hi_closed) > (hi_a, a.hi_closed):
                    pick, closed = item.hi, item.hi_closed
                elif (hi_b, item.hi_closed) < (hi_a, a.hi_closed):
                    pick, closed = a.hi, a.hi_closed
                else:
                    pick = min(a.hi, item.hi, key=AffineFn.key)
                    closed = a.hi_closed
                merged[-1] = SymComp(a.lo, pick, a.lo_closed, closed)
                continue
        merged.append(item)
    return merged


def _sample(piece: Interval) -> Rat:
    return piece.lo if piece.is_point else _sample_interior(piece.lo, piece.hi)


def endpoint_family(family: Family, side: str) -> Family:
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    domain = param_domain(family)
    if bounded_params(family) != domain:
        raise UnboundedFiber("endpoint family needs all fibers bounded")
    by_fn: Dict[AffineFn, List[Interval]] = {}
    for piece in pieces(domain, criticals(family)):
        for comp in symbolic_components(family, _sample(piece)):
            fn = comp.lo if side == "left" else comp.hi
            by_fn.setdefault(fn, []).append(piece)
    cells = []
    for fn in sorted(by_fn, key=AffineFn.key):
        for part in iv.normalize(by_fn[fn]).parts:
            cells.append(Graph(part, fn))
    return Family(tuple(cells))


def uniform_length_bound(family: Family) -> Ext:
    best: Ext = Fraction(0)
    for piece in pieces(bounded_params(family), criticals(family)):
        for comp in symbolic_components(family, _sample(piece)):
            sup = _affine_sup(comp.hi.slope - comp.lo.slope,
                              comp.hi.intercept - comp.lo.intercept, piece)
            if sup > best:
                best = sup
    return best
