"""The planar normalizer as it was before it grouped cells by carrier.

Kept as a reference for differential tests: it grows each carrier's
union one part at a time with ``union``, and applies each loose point and
each crossing update with a sweep of its own, where ``pc_normalize``
collects a carrier's parts, points and crossing updates and applies each
kind once per carrier.
"""

from typing import Dict, Iterable, List, Optional

from semilin import intervals as iv
from semilin.intervals import EMPTY, IntervalUnion
from semilin.planar import (Carrier, Cell, PlanarComplex, Point, Seg, VSeg,
                            _attached, _cell_key, _cross, carrier_of)


def pc_normalize(cells: Iterable[Cell]) -> PlanarComplex:
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
