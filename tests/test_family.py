import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from semilin.errors import PairingMismatch, PreconditionError, UnboundedFiber
from semilin.family import (AffineFn, Band, Family, Graph, bounded_params,
                            endpoint_family, fiber, match_endpoints,
                            param_domain, uniform_length_bound)
from semilin.intervals import Interval, endpoints, metrics, points
from semilin.rat import NEG_INF, POS_INF, is_finite

import family_oracle as oracle
from conftest import (iu, random_bounded_family, random_family, sup_width,
                      tie_heavy_families)

F = Fraction
op = Interval.open
fn = AffineFn


def growing_band():
    # 0 < x < t over t in (0,1)
    return Family((Band(op(0, 1), fn(0, 0), fn(1, 0)),))


def punctured_line_family():
    # the line minus {-t, t}, over t > 0
    dom = Interval(F(0), POS_INF)
    return Family((
        Band(dom, NEG_INF, fn(-1, 0)),
        Band(dom, fn(-1, 0), fn(1, 0)),
        Band(dom, fn(1, 0), POS_INF),
    ))


def drifting_pair_family():
    # two unit intervals drifting apart, over t > 0
    dom = Interval(F(0), POS_INF)
    return Family((
        Band(dom, fn(-1, -1), fn(-1, 0)),
        Band(dom, fn(1, 0), fn(1, 1)),
    ))


def ulb_oracle(family):
    """Independent uniform-bound computation from fiber samples.

    Refines the axis at domain ends and boundary crossings computed from
    scratch, reads component lengths off two fiber evaluations per piece,
    and extrapolates the affine lengths to the piece limits.
    """
    criticals = set()
    entries = []
    for c in family.cells:
        for e in (c.domain.lo, c.domain.hi):
            if is_finite(e):
                criticals.add(e)
        if isinstance(c, Graph):
            entries.append(c.value)
        else:
            for b in (c.lower, c.upper):
                if isinstance(b, AffineFn):
                    entries.append(b)
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            f, g = entries[i], entries[j]
            if f.slope != g.slope:
                criticals.add((g.intercept - f.intercept) / (f.slope - g.slope))
    region = bounded_params(family)
    best = F(0)

    def push(value):
        nonlocal best
        if value > best:
            best = value

    for comp in region.parts:
        cuts = sorted({t for t in criticals if comp.lo < t < comp.hi})
        marks = [comp.lo] + cuts + [comp.hi]
        for t in [comp.lo, comp.hi] + cuts:
            if is_finite(t) and region.contains(t):
                push(metrics(fiber(family, t)).max_component_length)
        for a, b in zip(marks, marks[1:]):
            if a == b:
                continue
            if is_finite(a) and is_finite(b):
                t1 = a + (b - a) / 3
                t2 = a + 2 * (b - a) / 3
            elif is_finite(a):
                t1, t2 = a + 1, a + 2
            elif is_finite(b):
                t1, t2 = b - 2, b - 1
            else:
                t1, t2 = F(0), F(1)
            f1, f2 = fiber(family, t1), fiber(family, t2)
            assert len(f1.parts) == len(f2.parts)
            for p1, p2 in zip(f1.parts, f2.parts):
                slope = (p2.length - p1.length) / (t2 - t1)
                if is_finite(a):
                    push(slope * (a - t1) + p1.length)
                elif slope < 0:
                    push(POS_INF)
                if is_finite(b):
                    push(slope * (b - t1) + p1.length)
                elif slope > 0:
                    push(POS_INF)
                if not is_finite(a) and not is_finite(b) and slope == 0:
                    push(p1.length)
    return best


class TestCellValidation:
    def test_band_collapse_rejected(self):
        with pytest.raises(ValueError):
            Band(op(0, 1), fn(1, 0), fn(0, 0))
        with pytest.raises(ValueError):
            Band(op(-1, 1), fn(-1, 0), fn(1, 0))  # crosses at t = 0

    def test_closed_side_needs_finite_boundary(self):
        with pytest.raises(ValueError):
            Band(op(0, 1), NEG_INF, fn(0, 1), lower_closed=True)

    def test_graph_needs_affine_value(self):
        with pytest.raises(ValueError):
            Graph(op(0, 1), POS_INF)


class TestFiber:
    def test_growing_band(self):
        assert fiber(growing_band(), F(1, 2)) == iu("(0,1/2)")

    def test_punctured_line(self):
        assert fiber(punctured_line_family(), 3) == iu("(-inf,-3) (-3,3) (3,inf)")

    def test_empty_family(self):
        assert fiber(Family(), 5) == iu("")

    def test_outside_domain(self):
        assert fiber(growing_band(), 7) == iu("")


class TestBoundedParams:
    def test_growing_band(self):
        assert bounded_params(growing_band()) == iu("(0,1)")

    def test_punctured_family_has_none(self):
        assert bounded_params(punctured_line_family()) == iu("")

    def test_graph_cell_full_domain(self):
        fam = Family((Graph(op(0, 5), fn(2, 1)),))
        assert bounded_params(fam) == param_domain(fam) == iu("(0,5)")

    def test_sampling_consistency(self, rng):
        # symbolic answer matches per-fiber boundedness at >= 100 samples
        checked = 0
        while checked < 120:
            fam = random_family(rng)
            domain = param_domain(fam)
            region = bounded_params(fam)
            for _ in range(8):
                t = F(rng.randint(-150, 150), rng.choice([1, 2, 3]))
                if not domain.contains(t):
                    continue
                assert region.contains(t) == fiber(fam, t).is_bounded
                checked += 1


class TestEndpointFamily:
    def test_growing_band_left(self):
        got = endpoint_family(growing_band(), "left")
        assert got.cells == (Graph(op(0, 1), fn(0, 0)),)

    def test_disjoint_bands(self):
        fam = Family((Band(op(2, 3), fn(1, 0), fn(1, 1)),
                      Band(op(2, 3), fn(0, 0), fn(0, 1))))
        got = endpoint_family(fam, "left")
        assert got.cells == (Graph(op(2, 3), fn(0, 0)),
                             Graph(op(2, 3), fn(1, 0)))

    def test_overlapping_bands_split_at_crossing(self):
        fam = Family((Band(op(F(-1, 2), F(1, 2)), fn(1, 0), fn(1, 1)),
                      Band(op(F(-1, 2), F(1, 2)), fn(0, 0), fn(0, 1))))
        got = endpoint_family(fam, "left")
        assert got.cells == (
            Graph(Interval(F(0), F(1, 2), True, False), fn(0, 0)),
            Graph(op(F(-1, 2), F(0)), fn(1, 0)),
        )

    def test_unbounded_fiber_rejected(self):
        with pytest.raises(UnboundedFiber):
            endpoint_family(punctured_line_family(), "left")

    def test_roundtrip_on_random_families(self, rng):
        for _ in range(40):
            fam = random_bounded_family(rng)
            for side in ("left", "right"):
                ef = endpoint_family(fam, side)
                for _ in range(10):
                    t = F(rng.randint(-120, 120), rng.choice([1, 2, 3, 7]))
                    want = points(endpoints(fiber(fam, t), side))
                    assert fiber(ef, t) == want


class TestUniformBound:
    def test_growing_band(self):
        assert uniform_length_bound(growing_band()) == 1

    def test_drifting_pair(self):
        fam = drifting_pair_family()
        assert uniform_length_bound(fam) == 1
        assert metrics(fiber(fam, 5)).diameter == 12  # diameter still grows

    def test_widening_band(self):
        fam = Family((Band(Interval(F(0), POS_INF), fn(-1, 0), fn(1, 0)),))
        assert uniform_length_bound(fam) == POS_INF

    def test_no_bounded_fibers(self):
        assert uniform_length_bound(punctured_line_family()) == 0

    def test_against_oracle(self, rng):
        for _ in range(60):
            fam = random_bounded_family(rng)
            assert uniform_length_bound(fam) == ulb_oracle(fam)

    def test_chaining_bound(self, rng):
        for _ in range(60):
            fam = random_bounded_family(rng)
            bound = uniform_length_bound(fam)
            chain = sum((sup_width(c) for c in fam.cells
                         if isinstance(c, Band)), F(0))
            assert is_finite(bound) and bound <= chain


class TestMatchEndpoints:
    def test_two_intervals(self):
        fam = Family((Band(op(0, 10), fn(0, 0), fn(0, 1)),
                      Band(op(0, 10), fn(0, 2), fn(0, 4))))
        assert uniform_length_bound(fam) == 2
        assert match_endpoints(fam, 5) == [(0, 1), (2, 4)]

    def test_single_interval(self):
        fam = growing_band()
        assert match_endpoints(fam, F(1, 2)) == [(0, F(1, 2))]

    def test_point_component_pairs_with_itself(self):
        fam = Family((Band(op(0, 10), fn(0, 0), fn(0, 1)),
                      Graph(op(0, 10), fn(0, 5))))
        assert match_endpoints(fam, 3) == [(0, 1), (5, 5)]

    def test_unbounded_fiber_rejected(self):
        with pytest.raises(PreconditionError):
            match_endpoints(punctured_line_family(), 1)

    def test_touching_open_components_detected(self):
        fam = Family((Band(op(0, 10), fn(0, 0), fn(1, 0)),
                      Band(op(0, 10), fn(1, 0), fn(1, 1))))
        with pytest.raises(PairingMismatch):
            match_endpoints(fam, 4)

    def test_isolation_oracle_respects_the_bound(self, rng):
        # shift-isolation on individual fibers never exceeds the uniform bound
        from semilin.errors import NoIsolatingShift
        from semilin.intervals import isolate_interval
        hits = 0
        for _ in range(80):
            fam = random_bounded_family(rng)
            bound = uniform_length_bound(fam)
            for _ in range(6):
                t = F(rng.randint(-120, 120), rng.choice([1, 2]))
                fib = fiber(fam, t)
                if len(fib.parts) < 2 or not fib.is_bounded:
                    continue
                try:
                    got = isolate_interval(fib)
                except NoIsolatingShift:
                    continue
                assert got.single.length <= bound
                hits += 1
        assert hits > 30

    def test_matches_components_on_random_fibers(self, rng):
        checked = 0
        while checked < 60:
            fam = random_bounded_family(rng)
            t = F(rng.randint(-120, 120), rng.choice([1, 2, 3, 7]))
            fib = fiber(fam, t)
            if fib.is_empty:
                continue
            if any(a.hi == b.lo for a, b in zip(fib.parts, fib.parts[1:])):
                continue  # the matching formula cannot see touching comps
            pairs = match_endpoints(fam, t)
            assert pairs == [(p.lo, p.hi) for p in fib.parts]
            checked += 1


def crossing_family(rng, m):
    """Built like the benchmark's family ladder: m bands over [0, 100],
    band i rising from near height 10i to near 10(i + 1), except the top
    band, which falls to the bottom and so crosses every other band's
    boundaries; plus one graph between the bands per eight slots."""
    def height(slot):
        return F(10 * slot) + F(rng.randint(0, 8), 8)

    def through(y0, y1):
        return fn((y1 - y0) / 100, y0)

    def domain():
        return Interval(F(0), F(100), rng.random() < 0.5, rng.random() < 0.5)

    cells = []
    for i in range(m):
        y0, y1 = height(i), height((i + 1) % m)
        w0, w1 = F(rng.randint(4, 16), 4), F(rng.randint(4, 16), 4)
        cells.append(Band(domain(), through(y0, y1), through(y0 + w0, y1 + w1),
                          rng.random() < 0.5, rng.random() < 0.5))
    for g in range(m // 8):
        cells.append(Graph(domain(), through(height(8 * g) + 5,
                                             height((8 * g + 1) % m) + 5)))
    rng.shuffle(cells)
    return Family(tuple(cells))


def assert_same_as_oracle(fam):
    assert uniform_length_bound(fam) == oracle.uniform_length_bound(fam)
    for side in ("left", "right"):
        try:
            want = oracle.endpoint_family(fam, side)
        except UnboundedFiber:
            with pytest.raises(UnboundedFiber):
                endpoint_family(fam, side)
        else:
            assert endpoint_family(fam, side) == want


class TestSweepAgainstPerPieceOracle:
    """The sweep along t against the per-piece refinement it replaced,
    which re-merges every cell at each piece (tests/family_oracle.py)."""

    def test_random_families(self, rng):
        for _ in range(150):
            assert_same_as_oracle(random_family(rng, 6))
            assert_same_as_oracle(random_bounded_family(rng, 6))

    @settings(max_examples=400)
    @given(tie_heavy_families())
    def test_tie_heavy_families(self, fam):
        assert_same_as_oracle(fam)

    def test_crossing_family(self):
        assert_same_as_oracle(crossing_family(random.Random(3), 17))

    def test_work_per_critical_point_is_bounded(self, monkeypatch):
        """Each critical point re-merges only the few cells it touches, so
        boundary evaluations per critical point stay under a constant as m
        doubles; re-merging every cell per piece makes them grow with m."""
        calls = 0
        call = AffineFn.__call__

        def counting(self, t):
            nonlocal calls
            calls += 1
            return call(self, t)

        monkeypatch.setattr(AffineFn, "__call__", counting)
        for m in (17, 34, 68):
            fam = crossing_family(random.Random(m), m)
            calls = 0
            uniform_length_bound(fam)
            per_critical = calls / len(oracle.criticals(fam))
            assert per_critical < 40, (m, per_critical)
