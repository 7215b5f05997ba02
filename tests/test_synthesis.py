from fractions import Fraction

import json
from pathlib import Path

import pytest

from semilin import synthesis
from semilin.cli import main
from semilin.errors import PreconditionError, ReplayError
from semilin.intervals import (EMPTY, Interval, IntervalUnion, complement,
                               points)
from semilin.planar import Seg, pc_normalize
from semilin.rat import NEG_INF, POS_INF
from semilin.synthesis import derive_interval, derive_ray
from semilin.trace import Trace, TraceStep, compose, replay

from conftest import iu, random_both_unbounded, random_bounded_infinite

ONE_DIM_OPS = {"translate", "scale", "intersect", "union", "diff", "complement"}


def is_single_ray(x: IntervalUnion) -> bool:
    if len(x.parts) != 1:
        return False
    p = x.parts[0]
    return (p.lo == NEG_INF) != (p.hi == POS_INF)


class TestTraceType:
    def test_alphabet_is_enforced(self):
        with pytest.raises(ValueError):
            TraceStep("closure", "Y")
        with pytest.raises(ValueError):
            TraceStep("scale", "Y", factor=0)
        with pytest.raises(ValueError):
            TraceStep("translate", "Y")  # missing amount
        with pytest.raises(ValueError):
            TraceStep("intersect", "Y")  # missing operand

    def test_refs_point_backward(self):
        step = TraceStep("intersect", 0, other=1)
        with pytest.raises(ValueError):
            Trace(("Y",), (TraceStep("scale", "Y", factor=-1), step), 1)
        with pytest.raises(ValueError):
            Trace(("Y",), (), output=3)
        with pytest.raises(ValueError):
            Trace(("Y",), (TraceStep("scale", "Z", factor=2),), 0)


class TestReplay:
    def test_empty_trace_is_identity(self):
        y = iu("(0,1)")
        assert replay(Trace(("Y",), (), "Y"), {"Y": y}) == y

    def test_reflect_then_intersect(self):
        y = iu("(-inf,0) (1,2)")
        tr = Trace(("Y",), (TraceStep("scale", "Y", factor=-1),
                            TraceStep("intersect", 0, other="Y")), 1)
        assert replay(tr, {"Y": y}) == iu("(-2,-1) (1,2)")

    def test_missing_generator(self):
        with pytest.raises(ReplayError):
            replay(Trace(("Y",), (), "Y"), {})

    def test_dimension_mismatch(self):
        planar = pc_normalize([Seg(1, 0, Interval.open(0, 1))])
        tr = Trace(("X",), (TraceStep("translate", "X", amount=1),), 0)
        with pytest.raises(ReplayError):
            replay(tr, {"X": planar})
        tr2 = Trace(("Y",), (TraceStep("swap", "Y"),), 0)
        with pytest.raises(ReplayError):
            replay(tr2, {"Y": iu("(0,1)")})

    def test_planar_steps(self):
        x = pc_normalize([Seg(2, 0, Interval.open(0, 1))])
        tr = Trace(("X",), (TraceStep("swap", "X"),
                            TraceStep("project", 0, axis=1)), 1)
        assert replay(tr, {"X": x}) == iu("(0,2)")
        tr2 = Trace(("X",), (TraceStep("section", "X", slope=Fraction(2),
                                       offset=Fraction(0)),), 0)
        assert replay(tr2, {"X": x}) == iu("(0,1)")

    def test_compose_rebinds_refs(self):
        head = Trace(("X",), (TraceStep("section", "X", slope=Fraction(1),
                                        offset=Fraction(0)),), 0)
        tail = Trace(("S",), (TraceStep("translate", "S", amount=2),
                              TraceStep("intersect", 0, other="S")), 1)
        joined = compose(head, tail)
        assert joined.steps[1].src == 0
        assert joined.steps[2].other == 0
        assert joined.output == 2


class TestDeriveRay:
    def test_worked_example(self):
        y = iu("(-inf,0) (1,2)")
        ray, tr = derive_ray(y)
        assert ray == iu("(-inf,0)")
        assert [s.op for s in tr.steps] == ["scale", "intersect", "translate",
                                            "intersect", "diff"]
        assert tr.steps[2].amount == 3
        assert replay(tr, {"Y": y}) == ray

    def test_already_a_ray(self):
        y = iu("(0,inf)")
        ray, tr = derive_ray(y)
        assert ray == y and tr.steps == ()

    def test_two_bounded_components(self):
        y = iu("(-inf,0) (1,2) (3,4)")
        ray, tr = derive_ray(y)
        assert ray == iu("(-inf,0)")
        assert replay(tr, {"Y": y}) == ray

    def test_fails_on_bounded_and_cobounded_inputs(self):
        for y in (iu("(0,1)"), complement(iu("(0,1)")), points([1, 2]), EMPTY):
            with pytest.raises(PreconditionError):
                derive_ray(y)

    @pytest.mark.parametrize("stuck_value", ["same", "empty"])
    def test_failed_peeling_is_a_typed_contract_error(self, stuck_value,
                                                      monkeypatch, tmp_path):
        """A peeling step that removes nothing trips the progress guard; one
        that removes everything ends without a ray.  Either way ``main``
        exits 2 with an error record, not a traceback."""
        def diff_from(builder, ref, value):
            builder._emit(synthesis.TraceStep("diff", ref, other=builder.ref),
                          value if stuck_value == "same" else EMPTY)

        monkeypatch.setattr(synthesis._Builder, "diff_from", diff_from)
        golden = Path(__file__).parent / "golden" / "ray_island.in.json"
        out = tmp_path / "out.json"
        code = main(["derive-ray", "--x", "Y", "-i", str(golden),
                     "-o", str(out)])
        assert code == 2
        error = json.loads(out.read_text())["objects"]["error"]
        assert error["tag"] == "IterationCapExceeded"

    def test_random_soundness(self, rng):
        for _ in range(120):
            y = random_both_unbounded(rng)
            ray, tr = derive_ray(y)
            assert is_single_ray(ray)
            assert replay(tr, {"Y": y}) == ray
            assert all(s.op in ONE_DIM_OPS for s in tr.steps)


class TestDeriveInterval:
    def test_single_step_example(self):
        y = iu("(0,1) (2,4)")
        single, tr = derive_interval(y)
        assert single == Interval.open(3, 4)
        assert single.hi == 4  # right endpoint is the last right endpoint
        assert replay(tr, {"Y": y}) == IntervalUnion((single,))

    def test_trivial_single_component(self):
        single, tr = derive_interval(iu("(0,1)"))
        assert single == Interval.open(0, 1) and tr.steps == ()

    def test_iteration_counterexample(self):
        y = iu("(0,5) (6,7)")
        single, tr = derive_interval(y)
        assert single == Interval.open(6, 7)
        assert len(tr.steps) == 6  # three contraction rounds
        stages = [replay(Trace(tr.generators, tr.steps[:2 * k], 2 * k - 1),
                         {"Y": y}) for k in (1, 2, 3)]
        assert stages == [iu("(2,5) (6,7)"), iu("(4,5) (6,7)"), iu("(6,7)")]

    def test_cobounded_goes_through_complement(self):
        y = complement(iu("(0,1)"))
        single, tr = derive_interval(y)
        assert tr.steps[0].op == "complement"
        assert replay(tr, {"Y": y}) == IntervalUnion((single,))

    def test_point_components_are_cleared(self):
        y = iu("(0,1) {5}")
        single, tr = derive_interval(y)
        assert not single.is_point and single.is_bounded
        assert replay(tr, {"Y": y}) == IntervalUnion((single,))

    def test_fails_on_wrong_class(self):
        for y in (points([1, 2]), iu("(0,inf)"), EMPTY):
            with pytest.raises(PreconditionError):
                derive_interval(y)

    def test_monotone_progress(self, rng):
        for _ in range(60):
            y = random_bounded_infinite(rng)
            single, tr = derive_interval(y)
            start = 1 if tr.steps and tr.steps[0].op == "complement" else 0
            prev = replay(Trace(tr.generators, tr.steps[:start],
                                start - 1 if start else "Y"), {"Y": y})
            for k in range(start + 2, len(tr.steps) + 1, 2):
                cur = replay(Trace(tr.generators, tr.steps[:k], k - 1), {"Y": y})
                total = lambda v: sum((p.length for p in v.parts), Fraction(0))
                assert total(cur) < total(prev) or total(prev) == 0
                prev = cur

    def test_random_soundness(self, rng):
        for _ in range(120):
            y = random_bounded_infinite(rng)
            single, tr = derive_interval(y)
            assert single.is_bounded and not single.is_point
            assert replay(tr, {"Y": y}) == IntervalUnion((single,))
