"""Heavier randomized cross-checks: presentation independence of the
planar normal form and agreement with the normalizer, line coverage,
per-cell operations and certificate checks it replaced, membership
oracles for the planar boolean algebra, decomposition fuzzing, and
coincidence-rich families."""

import ast
import itertools
from fractions import Fraction
from pathlib import Path

import pytest

from semilin import classifier, planar
from semilin.errors import SemilinError
from semilin.family import AffineFn, Band, Family, Graph, endpoint_family, fiber
from semilin.intervals import Interval, IntervalUnion, endpoints, points
from semilin.planar import (PC_EMPTY, VERTICAL, Carrier, Decomposition, Point,
                            PlanarComplex, Seg, VSeg, affine_part, carrier_of,
                            decompose, germ_equal, pc_affine, pc_bool_op,
                            pc_boundedness, pc_normalize, pc_project,
                            pc_section, pc_topo, stab_bd)
from semilin.rat import NEG_INF, POS_INF, is_finite
from semilin.synthesis import derive_interval, derive_ray
from semilin.trace import replay

import planar_oracle
from conftest import (iu, random_cell, random_complex, random_domain, rat,
                      random_union)

F = Fraction


def _split_interval(part, cuts, rng):
    """Random re-presentation of one interval as sub-cells plus points."""
    inside = sorted({c for c in cuts if part.lo < c < part.hi})
    picked = [c for c in inside if rng.random() < 0.7]
    if not picked:
        return [part]
    pieces = []
    lo, lo_closed = part.lo, part.lo_closed
    for c in picked:
        pieces.append(Interval(lo, c, lo_closed, False))
        pieces.append(Interval.point(c))
        lo, lo_closed = c, False
    pieces.append(Interval(lo, part.hi, lo_closed, part.hi_closed))
    return pieces


def _represent(x, rng):
    """Rebuild x's cell list in a randomized, non-canonical way."""
    cells = []
    for cell in x.cells:
        if isinstance(cell, Point):
            cells.append(cell)
            continue
        carrier = carrier_of(cell)
        part = cell.domain if isinstance(cell, Seg) else cell.rng
        cuts = [rat(rng) for _ in range(2)]
        for piece in _split_interval(part, cuts, rng):
            if piece.is_point:
                cells.append(carrier.point_at(piece.lo))
            elif carrier.is_vertical:
                cells.append(VSeg(carrier.shift, piece))
            else:
                cells.append(Seg(carrier.slope, carrier.shift, piece))
    rng.shuffle(cells)
    return cells


def test_normal_form_is_presentation_independent(rng):
    for _ in range(200):
        x = random_complex(rng, 4)
        assert pc_normalize(_represent(x, rng)) == x


def test_grouped_normalize_matches_incremental_oracle(rng):
    """pc_normalize normalizes each carrier's parts once; the oracle
    unites them one at a time.  The raw cells put a second part on each
    carrier they use, so parts on one carrier overlap or touch."""
    for _ in range(200):
        raw = [random_cell(rng) for _ in range(rng.randint(0, 6))]
        used = dict.fromkeys(carrier_of(c) for c in raw
                             if not isinstance(c, Point))
        for k in used:
            raw += k.cells(IntervalUnion((random_domain(rng, True),)))
        rng.shuffle(raw)
        x = random_complex(rng, 4)
        for cells in (raw, list(x.cells), _represent(x, rng)):
            assert pc_normalize(cells) == planar_oracle.pc_normalize(cells)
    with pytest.raises(ValueError, match="not a cell"):
        pc_normalize([Point(0, 0), Interval.point(1)])


# a carrier's parameters around the crossing at parameter 0: none,
# covering it, attached from one side (open or closed) or from both
# sides by adjacent open runs, or away from it, plus a loose point at the
# crossing
_AROUND_ZERO = ["", "(-1,1)", "(-1,0)", "[0,1)", "(-1,0) (0,1)", "(2,3)",
                "(-2,-1) (1,2)", "{0}"]
_FAN = [Carrier(0, 0), Carrier(1, 0), Carrier(-1, 0), Carrier(VERTICAL, 0)]


def _cells_of(carriers, states):
    return [c for k, s in zip(carriers, states) for c in k.cells(iu(s))]


def test_batched_crossing_updates_match_incremental_oracle(rng):
    """pc_normalize applies each carrier's loose-point and crossing updates
    in one batch each; the oracle applies them one at a time.  Up to four carriers
    pass through the origin, each covering it or not and attached to it or
    not, and two more lines cross them elsewhere, so each carrier gets
    several updates."""
    extra = [Carrier(F(1, 2), 1), Carrier(VERTICAL, F(1, 2))]
    for states in itertools.product(_AROUND_ZERO, repeat=3):
        cells = _cells_of(_FAN, states)
        assert pc_normalize(cells) == planar_oracle.pc_normalize(cells)
    for _ in range(200):
        carriers = _FAN + extra
        cells = _cells_of(carriers, [rng.choice(_AROUND_ZERO) for _ in carriers])
        rng.shuffle(cells)
        assert pc_normalize(cells) == planar_oracle.pc_normalize(cells)


def _probes(x, y):
    pts = set()
    carriers = set()
    for z in (x, y):
        for cell in z.cells:
            if isinstance(cell, Point):
                pts.add((cell.x, cell.y))
            else:
                carriers.add(carrier_of(cell))
                part = cell.domain if isinstance(cell, Seg) else cell.rng
                carrier = carrier_of(cell)
                for e in (part.lo, part.hi):
                    if is_finite(e):
                        p = carrier.point_at(e)
                        pts.add((p.x, p.y))
                        q = carrier.point_at(e + F(1, 13))
                        pts.add((q.x, q.y))
                        q = carrier.point_at(e - F(1, 13))
                        pts.add((q.x, q.y))
                inner = part.lo + 1 if is_finite(part.lo) else \
                    (part.hi - 1 if is_finite(part.hi) else F(0))
                p = carrier.point_at(inner)
                pts.add((p.x, p.y))
    from semilin.planar import _cross
    carriers = sorted(carriers, key=Carrier.sort_key)
    for i in range(len(carriers)):
        for j in range(i + 1, len(carriers)):
            p = _cross(carriers[i], carriers[j])
            if p is not None:
                pts.add((p.x, p.y))
    return sorted(pts)


def test_planar_boolean_membership_oracle(rng):
    for _ in range(120):
        x, y = random_complex(rng, 3), random_complex(rng, 3)
        u = pc_bool_op("union", x, y)
        n = pc_bool_op("intersect", x, y)
        d = pc_bool_op("difference", x, y)
        s = pc_bool_op("symmdiff", x, y)
        for p in _probes(x, y):
            inx, iny = x.contains(p), y.contains(p)
            assert u.contains(p) == (inx or iny)
            assert n.contains(p) == (inx and iny)
            assert d.contains(p) == (inx and not iny)
            assert s.contains(p) == (inx != iny)


def _carriers(*xs):
    return sorted({carrier_of(c) for x in xs for c in x.cells
                   if not isinstance(c, Point)}, key=Carrier.sort_key)


def _forged(lines):
    """A resolved decomposition claiming the given carrier lines."""
    graphs = {}
    for k in lines:
        if not k.is_vertical:
            graphs.setdefault(k.slope, []).append(k.shift)
    return Decomposition(tuple((s, tuple(ds)) for s, ds in sorted(graphs.items())),
                         tuple(k.shift for k in lines if k.is_vertical),
                         PC_EMPTY, ())


def test_section_and_boolean_operations_match_line_params_oracle(rng):
    """pc_section reads a complex's coverage of a line off its cells; the
    oracle reads it from grouped carriers, crossings and points."""
    for _ in range(150):
        x, y = random_complex(rng, 4), random_complex(rng, 4)
        probes = [carrier_of(c) for c in (random_cell(rng) for _ in range(3))
                  if not isinstance(c, Point)]
        for k in _carriers(x, y) + probes:
            assert pc_section(y, k.slope, k.shift) == planar_oracle.line_params(k, y)
        for kind in ("intersect", "difference", "symmdiff"):
            assert pc_bool_op(kind, x, y) == planar_oracle.pc_bool_op(kind, x, y)


def _view_inputs(rng):
    """Random complexes; fans whose crossing at the origin is owned by one
    carrier and cut from the others; and raw, unnormalized cell tuples
    with a slope-0 carrier and points on their carrier lines."""
    for _ in range(60):
        yield random_complex(rng, 4)
        yield pc_normalize(_cells_of(_FAN, [rng.choice(_AROUND_ZERO)
                                            for _ in _FAN]))
        raw = [random_cell(rng) for _ in range(rng.randint(0, 3))]
        raw += Carrier(0, rat(rng)).cells(random_union(rng, 2))
        raw += [carrier_of(c).point_at(rat(rng)) for c in raw
                if not isinstance(c, Point)]
        yield PlanarComplex(tuple(raw))


def _assert_views_intact(*xs):
    for x in xs:
        assert x._view == planar._group(x.cells)


def test_carrier_view_operations_match_per_cell_oracle(rng):
    """contains, pc_section, pc_project, pc_topo and pc_affine read each
    carrier's parameter set and the points from the cached carrier view;
    the oracle works one cell at a time.  The probe lines include the
    vertical and horizontal lines through every probe point, and every
    translation runs with and without the swap, which turns slope-0
    carriers vertical."""
    for x in _view_inputs(rng):
        pts = [Point(a, b) for a, b in _probes(x, x)]
        lines = list(x._view.carriers) + [Carrier(VERTICAL, rat(rng))]
        for p in pts:
            assert x.contains(p) == planar_oracle.contains(x, p)
            lines += [Carrier(VERTICAL, p.x), Carrier(0, p.y)]
        for k in lines:
            assert pc_section(x, k.slope, k.shift) == \
                planar_oracle.pc_section(x, k.slope, k.shift)
        for axis in (1, 2):
            assert pc_project(x, axis) == planar_oracle.pc_project(x, axis)
        for kind in ("closure", "frontier"):
            assert pc_topo(x, kind) == planar_oracle.pc_topo(x, kind)
        for shift in ((0, 0), (rat(rng), rat(rng))):
            for swap in (False, True):
                assert pc_affine(x, shift, swap) == \
                    planar_oracle.pc_affine(x, shift, swap)
        _assert_views_intact(x)


def test_public_planar_operations_leave_cached_views_intact(rng):
    """Every public planar operation reads its operands' cached views;
    none may write into one."""
    for _ in range(60):
        x, y = random_complex(rng, 4), random_complex(rng, 3)
        for kind in ("union", "intersect", "difference", "symmdiff"):
            pc_bool_op(kind, x, y)
        pc_topo(x, "closure")
        pc_affine(x, (1, 2), True)
        affine_part(x)
        decompose(x)
        pc_project(y, 2)
        pc_boundedness(x)
        stab_bd(x)
        pc_section(y, VERTICAL, rat(rng))
        pts = [c for c in x.cells if isinstance(c, Point)]
        if pts:
            germ_equal(x, pts[0], pts[-1])
        classifier.classify({"x": x, "y": y})
        _assert_views_intact(x, y)


def test_line_check_matches_planar_operation_check(rng):
    """The decomposition's line check reads a section; the oracle takes
    the planar difference of the full line and x."""
    verdicts = set()
    for _ in range(150):
        x, y = random_complex(rng, 4), random_complex(rng, 2)
        for k in _carriers(x, y):
            bounded = planar_oracle.full_line_minus_is_bounded(x, k)
            verdicts.add(bounded)
            if bounded:
                planar._verify_decomposition(x, _forged([k]), x.cells)
            else:
                with pytest.raises(SemilinError, match="(graph|vertical) line"):
                    planar._verify_decomposition(x, _forged([k]), x.cells)
    assert verdicts == {False, True}


def test_baseline_check_matches_planar_operation_check(rng, monkeypatch):
    """sb_certificate's check compares sections on the lines of both sets;
    the oracle takes the planar symmetric difference.  The baselines are
    the true one, random subsets of x's lines, and these plus lines of
    another complex."""
    accepted = rejected = 0
    for _ in range(150):
        x, y = random_complex(rng, 4), random_complex(rng, 2)
        true = decompose(x)
        lines = [k for k in _carriers(x) if rng.random() < 0.5]
        choices = [[Carrier(s, d) for s, ds in true.graphs for d in ds] +
                   [Carrier(VERTICAL, d) for d in true.verticals],
                   lines, lines + _carriers(y)]
        for chosen in choices:
            chosen = list(dict.fromkeys(chosen))
            forged = _forged(chosen)
            monkeypatch.setattr(classifier, "decompose", lambda _: forged)
            baseline = pc_normalize(k.full_line_cell() for k in chosen)
            if planar_oracle.symmdiff_is_bounded(x, baseline):
                accepted += 1
                assert classifier.sb_certificate(x) == baseline
            else:
                rejected += 1
                with pytest.raises(SemilinError, match="baseline verification"):
                    classifier.sb_certificate(x)
    assert accepted > 50 and rejected > 50


def test_decompose_never_fails_verification(rng):
    resolved = unresolved = 0
    for _ in range(250):
        x = random_complex(rng, 4)
        dec = decompose(x)  # raises SemilinError on any verifier failure
        if dec.unresolved:
            unresolved += 1
        else:
            resolved += 1
    assert resolved > 20 and unresolved > 20


ADVERSARIAL_1D = [
    "(0,1) (1,2) {3}",
    "[0,1) (1,2]",
    "{0} (1,2) {3} (4,5]",
    "(-inf,0] (0,1)",
    "(-inf,0) {1} {2}",
    "[1,2] [3,4] [5,6]",
    "(0,1) (1,2) (2,3)",
]


def test_synthesis_on_adversarial_closures():
    for text in ADVERSARIAL_1D:
        x = iu(text)
        from semilin.intervals import OneDimKind, classify_one_dim
        kind = classify_one_dim(x).kind
        if kind is OneDimKind.BOTH_UNBOUNDED:
            ray, tr = derive_ray(x)
            assert replay(tr, {"Y": x}) == ray
            assert len(ray.parts) == 1 and not ray.parts[0].is_bounded
        elif kind is OneDimKind.BOUNDED_OR_COBOUNDED_INFINITE:
            single, tr = derive_interval(x)
            assert replay(tr, {"Y": x}) == IntervalUnion((single,))
            assert not single.is_point and single.is_bounded


def _pool_band(rng, pool):
    for _ in range(40):
        lo, hi = rng.choice(pool), rng.choice(pool)
        a, b = sorted((rat(rng, 6), rat(rng, 6)))
        if a == b:
            continue
        dom = Interval(a, b, rng.random() < 0.5, rng.random() < 0.5)
        try:
            return Band(dom, lo, hi, rng.random() < 0.5, rng.random() < 0.5)
        except ValueError:
            continue
    return None


def test_endpoint_family_with_shared_boundaries(rng):
    pool = [AffineFn(0, 0), AffineFn(0, 1), AffineFn(1, 0), AffineFn(1, 1),
            AffineFn(-1, 0), AffineFn(2, -1), AffineFn(0, 3)]
    built = 0
    while built < 60:
        cells = [c for c in (_pool_band(rng, pool) for _ in range(3)) if c]
        if rng.random() < 0.4:
            cells.append(Graph(Interval(rat(rng, 6), POS_INF), rng.choice(pool)))
        if not cells:
            continue
        fam = Family(tuple(cells))
        built += 1
        for side in ("left", "right"):
            ef = endpoint_family(fam, side)
            for k in range(-18, 19):
                t = F(k, 3)
                assert fiber(ef, t) == points(endpoints(fiber(fam, t), side))


def test_oracles_import_no_private_semilin_name():
    """An oracle that imports a private helper of the code it checks
    shares that helper's faults, so the oracles and the shared helpers
    import only public names from semilin."""
    here = Path(__file__).parent
    files = sorted(here.glob("*_oracle.py")) + [here / "conftest.py"]
    assert len(files) >= 4
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and \
                    (node.module or "").split(".")[0] == "semilin":
                private = [a.name for a in node.names if a.name.startswith("_")]
                assert not private, f"{path.name} imports {private} from {node.module}"
