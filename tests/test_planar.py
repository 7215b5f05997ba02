from fractions import Fraction

import pytest

from semilin import planar
from semilin.errors import PreconditionError, SemilinError
from semilin.intervals import FULL_LINE, Interval
from semilin.planar import (PC_EMPTY, Carrier, Decomposition, PlanarComplex,
                            Point, Seg, Subgroup2D, VERTICAL, VSeg,
                            affine_part, carrier_of, decompose, germ_equal,
                            pc_affine, pc_bool_op, pc_boundedness,
                            pc_normalize, pc_project, pc_section, pc_topo,
                            stab_bd)
from semilin.rat import NEG_INF, POS_INF

from conftest import iu, pc_scale, random_complex, rat

F = Fraction
op = Interval.open


def square():
    return pc_normalize([
        Seg(0, 0, Interval.closed(0, 1)),
        Seg(0, 1, Interval.closed(0, 1)),
        VSeg(0, Interval.closed(0, 1)),
        VSeg(1, Interval.closed(0, 1)),
    ])


def vset():
    return pc_normalize([
        Seg(1, 0, Interval(F(0), POS_INF, True, False)),
        Seg(-1, 0, Interval(NEG_INF, F(0), False, True)),
    ])


def full_line(slope, shift):
    return pc_normalize([Carrier(slope, shift).full_line_cell()])


class TestNormalize:
    def test_collinear_merge(self):
        got = pc_normalize([Seg(2, 1, op(0, 1)), Seg(2, 1, Interval(1, 3, True, False))])
        assert got.cells == (Seg(2, 1, op(0, 3)),)

    def test_touching_point_joins_collinear_run(self):
        got = pc_normalize([Point(0, 0), Seg(1, 0, op(0, 1))])
        assert got.cells == (Seg(1, 0, Interval(0, 1, True, False)),)

    def test_offline_point_stays(self):
        got = pc_normalize([Point(0, 1), Seg(1, 0, op(0, 1))])
        assert got.cells == (Point(0, 1), Seg(1, 0, op(0, 1)))

    def test_crossing_split_with_deterministic_owner(self):
        got = pc_normalize([Seg(1, 0, FULL_LINE), Seg(-1, 0, FULL_LINE)])
        assert got.cells == (
            Seg(-1, 0, FULL_LINE),
            Seg(1, 0, Interval(NEG_INF, F(0))),
            Seg(1, 0, Interval(F(0), POS_INF)),
        )
        assert got.contains((0, 0))

    def test_idempotent_on_random_complexes(self, rng):
        for _ in range(150):
            x = random_complex(rng, 4)
            assert pc_normalize(x.cells) == x

    def test_crossing_ownership_is_presentation_independent(self):
        split = pc_normalize([
            Seg(-1, 18, Interval(NEG_INF, F(-20), False, True)),
            Seg(-1, 18, Interval(F(22), POS_INF)),
            Seg(1, 58, Interval(NEG_INF, F(-57, 2), False, True)),
            Seg(1, 58, Interval(F(-76, 3), F(-20))),
            Seg(1, 58, Interval(F(-20), F(11))),
            Seg(1, 58, Interval(F(11), POS_INF)),
        ])
        joined = pc_normalize([
            Seg(-1, 18, Interval(NEG_INF, F(-20))),
            Seg(-1, 18, Interval(F(22), POS_INF)),
            Seg(1, 58, Interval(NEG_INF, F(-57, 2), False, True)),
            Seg(1, 58, Interval(F(-76, 3), F(11))),
            Seg(1, 58, Interval(F(11), POS_INF)),
        ])
        assert split == joined

    @pytest.mark.parametrize("k", [10, 20, 40])
    def test_crossings_are_found_in_one_pass(self, k, monkeypatch):
        """k full lines in general position: one _cross per carrier pair,
        and no carrier is rescanned at a crossing."""
        calls = {"cross": 0, "line_contains": 0}
        cross, line_contains = planar._cross, Carrier.line_contains

        def counting_cross(a, b):
            calls["cross"] += 1
            return cross(a, b)

        def counting_line_contains(carrier, p):
            calls["line_contains"] += 1
            return line_contains(carrier, p)

        monkeypatch.setattr(planar, "_cross", counting_cross)
        monkeypatch.setattr(Carrier, "line_contains", counting_line_contains)
        # lines i and j meet at (-(i+j), -ij) only
        got = pc_normalize([Carrier(i, i * i).full_line_cell() for i in range(k)])
        assert calls == {"cross": k * (k - 1) // 2, "line_contains": 0}
        # each crossing cuts one line: the greater of the two
        assert len(got.cells) == k + k * (k - 1) // 2

    def test_crossing_point_stays_attached_to_its_run(self):
        x = pc_normalize([Seg(2, 1, Interval(F(5), POS_INF, True, False)),
                          VSeg(3, FULL_LINE)])
        assert VSeg(3, FULL_LINE) in x.cells
        assert x.contains((3, 7))


class TestBoolOps:
    def test_two_lines_meet_in_a_point(self):
        got = pc_bool_op("intersect", full_line(1, 0), full_line(-1, 0))
        assert got.cells == (Point(0, 0),)

    def test_symmdiff_self(self):
        x = pc_bool_op("union", full_line(2, 0), square())
        assert pc_bool_op("symmdiff", x, x) == PlanarComplex()

    def test_line_minus_segment(self):
        got = pc_bool_op("difference", full_line(2, 1),
                         pc_normalize([Seg(2, 1, op(0, 5))]))
        assert got.cells == (Seg(2, 1, Interval(NEG_INF, F(0), False, True)),
                             Seg(2, 1, Interval(F(5), POS_INF, True, False)))

    def test_laws_on_random_complexes(self, rng):
        for _ in range(60):
            x, y, z = (random_complex(rng, 3) for _ in range(3))
            u, n = pc_bool_op("union", x, y), pc_bool_op("intersect", x, y)
            assert u == pc_bool_op("union", y, x)
            assert n == pc_bool_op("intersect", y, x)
            assert pc_bool_op("union", u, z) == pc_bool_op("union", x, pc_bool_op("union", y, z))
            assert pc_bool_op("intersect", pc_bool_op("intersect", x, y), z) == \
                pc_bool_op("intersect", x, pc_bool_op("intersect", y, z))
            assert pc_bool_op("intersect", x, pc_bool_op("union", y, z)) == \
                pc_bool_op("union", pc_bool_op("intersect", x, y),
                           pc_bool_op("intersect", x, z))
            assert pc_bool_op("difference", x, pc_bool_op("union", y, z)) == \
                pc_bool_op("intersect", pc_bool_op("difference", x, y),
                           pc_bool_op("difference", x, z))
            assert pc_bool_op("symmdiff", x, y) == pc_bool_op(
                "difference", u, n)
            # rebuilding a set from pieces lands on the same normal form
            assert pc_bool_op("union", pc_bool_op("difference", x, y), n) == x


class TestAffine:
    def test_swap_inverts_graphs(self):
        got = pc_affine(pc_normalize([Seg(2, 0, op(0, 1))]), swap=True)
        assert got.cells == (Seg(F(1, 2), 0, op(0, 2)),)

    def test_swap_vertical_to_horizontal(self):
        got = pc_affine(pc_normalize([VSeg(3, op(0, 1))]), swap=True)
        assert got.cells == (Seg(0, 3, op(0, 1)),)

    def test_translate_point(self):
        got = pc_affine(pc_normalize([Point(0, 0)]), translate=(1, 1))
        assert got.cells == (Point(1, 1),)

    def test_swap_twice_and_translate_roundtrip(self, rng):
        for _ in range(60):
            x = random_complex(rng, 3)
            assert pc_affine(pc_affine(x, swap=True), swap=True) == x
            t = (rat(rng), rat(rng))
            back = (-t[0], -t[1])
            assert pc_affine(pc_affine(x, translate=t), translate=back) == x


class TestProjectionsAndSections:
    def test_boundedness_examples(self):
        assert pc_boundedness(square())
        assert not pc_boundedness(full_line(1, 0))
        assert not pc_boundedness(pc_normalize([VSeg(0, Interval(F(0), POS_INF, True, False))]))

    def test_project_examples(self):
        assert pc_project(pc_normalize([VSeg(3, op(0, 1))]), 1) == iu("{3}")
        got = pc_project(pc_normalize([Seg(1, 0, op(0, 1)), Point(5, 5)]), 1)
        assert got == iu("(0,1) {5}")
        assert pc_project(square(), 2) == iu("[0,1]")

    def test_section_examples(self):
        assert pc_section(vset(), 1, 0) == iu("[0,inf)")
        assert pc_section(full_line(2, 1), 2, 1) == iu("(-inf,inf)")
        assert pc_section(pc_normalize([Seg(2, 1, op(0, 5))]), 0, 100) == iu("")

    def test_vertical_section(self):
        x = pc_bool_op("union", square(), full_line(0, 5))
        assert pc_section(x, VERTICAL, 0) == iu("[0,1] {5}")

    def test_closure_adds_endpoints(self):
        got = pc_topo(pc_normalize([Seg(1, 0, op(0, 1))]), "closure")
        assert got.cells == (Seg(1, 0, Interval.closed(0, 1)),)
        assert pc_topo(got, "frontier") == got


class TestAffinePart:
    def test_full_line_is_its_own_affine_part(self):
        line = full_line(2, 1)
        assert affine_part(line) == line

    def test_vset_loses_the_corner(self):
        got = affine_part(vset())
        assert got.cells == (Seg(-1, 0, Interval(NEG_INF, F(0))),
                             Seg(1, 0, Interval(F(0), POS_INF)))

    def test_isolated_point_is_affine(self):
        pt = pc_normalize([Point(3, 4)])
        assert affine_part(pt) == pt

    def test_segment_endpoints_are_not_affine(self):
        seg = pc_normalize([Seg(1, 0, Interval.closed(0, 1))])
        got = affine_part(seg)
        assert got.cells == (Seg(1, 0, op(0, 1)),)

    def test_interior_crossing_is_not_affine(self):
        x = pc_bool_op("union", full_line(1, 0), full_line(-1, 0))
        got = affine_part(x)
        assert not got.contains((0, 0))

    def test_idempotent_and_cellwise(self, rng):
        for _ in range(40):
            x = random_complex(rng, 3)
            ap = affine_part(x)
            assert affine_part(ap) == ap
        for cell in (Point(1, 2), Seg(2, 1, op(0, 1)), VSeg(0, op(0, 1))):
            single = pc_normalize([cell])
            assert affine_part(single) == single


class TestGerm:
    def test_examples(self):
        seg = pc_normalize([Seg(1, 0, op(0, 10))])
        assert germ_equal(seg, (1, 1), (2, 2))
        assert not germ_equal(vset(), (0, 0), (1, 1))
        two = pc_normalize([Seg(2, 0, op(0, 1)), Seg(2, 5, op(3, 4))])
        assert germ_equal(two, (F(1, 2), 1), (F(7, 2), 12))

    def test_point_outside_rejected(self):
        with pytest.raises(PreconditionError):
            germ_equal(vset(), (0, 0), (100, 3))

    def test_equivalence_relation(self, rng):
        def inner(part):
            if part.lo != NEG_INF and part.hi != POS_INF:
                return (part.lo + part.hi) / 2
            if part.lo != NEG_INF:
                return part.lo + 1
            if part.hi != POS_INF:
                return part.hi - 1
            return F(0)

        for _ in range(25):
            x = random_complex(rng, 3)
            pts = []
            for c in x.cells:
                if isinstance(c, Point):
                    pts.append((c.x, c.y))
                elif isinstance(c, Seg):
                    t = inner(c.domain)
                    if c.domain.contains(t):
                        pts.append((t, c.slope * t + c.intercept))
                else:
                    t = inner(c.rng)
                    if c.rng.contains(t):
                        pts.append((c.x, t))
            for p in pts:
                assert germ_equal(x, p, p)
            for p in pts:
                for q in pts:
                    assert germ_equal(x, p, q) == germ_equal(x, q, p)
            for p in pts:
                for q in pts:
                    for r in pts:
                        if germ_equal(x, p, q) and germ_equal(x, q, r):
                            assert germ_equal(x, p, r)


def _shift_in(subgroup: Subgroup2D, k: Fraction):
    if subgroup.kind == "plane":
        return (k, 2 * k)
    if subgroup.kind == "zero":
        return (F(0), F(0))
    if subgroup.direction is VERTICAL:
        return (F(0), k)
    return (k, subgroup.direction * k)


class TestStab:
    def test_examples(self):
        assert stab_bd(square()) == Subgroup2D("plane")
        mix = pc_bool_op("union", full_line(2, 0),
                         pc_normalize([Seg(0, 3, op(0, 1))]))
        assert stab_bd(mix) == Subgroup2D("line", F(2))
        both = pc_bool_op("union", full_line(1, 0), full_line(2, 0))
        assert stab_bd(both) == Subgroup2D("zero")

    def test_vertical_direction(self):
        assert stab_bd(pc_normalize([VSeg(0, FULL_LINE)])) == \
            Subgroup2D("line", VERTICAL)

    def test_graph_over_cobounded_domain(self, rng):
        for _ in range(40):
            lam, b = rat(rng), rat(rng)
            u, v = sorted((rat(rng), rat(rng) + 50))
            x = pc_normalize([Seg(lam, b, Interval(NEG_INF, u)),
                              Seg(lam, b, Interval(v, POS_INF))])
            assert stab_bd(x) == Subgroup2D("line", lam)

    def test_sampled_membership(self, rng):
        for _ in range(40):
            x = random_complex(rng, 3)
            sub = stab_bd(x)
            for k in (F(1), F(-3), F(5, 2)):
                inside = _shift_in(sub, k)
                moved = pc_affine(x, translate=inside)
                assert pc_boundedness(pc_bool_op("symmdiff", moved, x))
            if sub.kind != "plane":
                outside = (F(1), F(7)) if sub.direction != F(7) else (F(1), F(8))
                if sub.kind == "line" and sub.direction is VERTICAL:
                    outside = (F(1), F(0))
                moved = pc_affine(x, translate=outside)
                assert not pc_boundedness(pc_bool_op("symmdiff", moved, x))


class TestDecompose:
    def test_worked_example(self):
        x = pc_normalize(list(square().cells) + [
            Seg(2, 1, Interval(NEG_INF, F(-5))),
            Seg(2, 1, Interval(F(5), POS_INF)),
            VSeg(3, FULL_LINE),
        ])
        dec = decompose(x)
        assert dec.graphs == ((F(2), (F(1),)),)
        assert dec.verticals == (F(3),)
        assert dec.residue == square()
        assert dec.unresolved == ()

    def test_vset_is_unresolved(self):
        dec = decompose(vset())
        assert len(dec.unresolved) == 2
        assert {carrier_of(c).slope for c in dec.unresolved} == {F(1), F(-1)}

    def test_bounded_input_is_all_residue(self):
        dec = decompose(square())
        assert dec.graphs == () and dec.verticals == ()
        assert dec.residue == square() and dec.unresolved == ()

    def test_bounded_fragment_of_qualifying_carrier_goes_to_residue(self):
        u = pc_normalize([
            Seg(1, 0, Interval(NEG_INF, F(0))),
            Seg(1, 0, op(5, 6)),
            Seg(1, 0, Interval(F(7), POS_INF)),
        ])
        dec = decompose(u)
        assert dec.graphs == ((F(1), (F(0),)),)
        assert dec.residue.cells == (Seg(1, 0, op(5, 6)),)

    def test_translation_equivariance(self, rng):
        base = pc_normalize(list(square().cells) + [
            Seg(2, 1, Interval(NEG_INF, F(-5))),
            Seg(2, 1, Interval(F(5), POS_INF)),
            VSeg(3, FULL_LINE),
        ])
        dec = decompose(base)
        for _ in range(10):
            t = (rat(rng), rat(rng))
            moved = decompose(pc_affine(base, translate=t))
            assert [s for s, _ in moved.graphs] == [s for s, _ in dec.graphs]
            for (s, ds), (_, ds0) in zip(moved.graphs, dec.graphs):
                assert ds == tuple(d + t[1] - s * t[0] for d in ds0)
            assert moved.verticals == tuple(d + t[0] for d in dec.verticals)

    @pytest.mark.parametrize("message", ["graph line", "vertical line",
                                         "residue unbounded", "not a partition"])
    def test_forged_decomposition_is_rejected(self, message):
        line = full_line(0, 0)
        x, dec, claimed = {
            # y = 0 is claimed co-bounded, but x holds only a ray of it
            "graph line": (
                pc_normalize([Seg(0, 0, Interval(NEG_INF, F(0)))]),
                Decomposition(((F(0), (F(0),)),), (), PC_EMPTY, ()), ()),
            "vertical line": (
                pc_normalize([VSeg(0, Interval(NEG_INF, F(0)))]),
                Decomposition((), (F(0),), PC_EMPTY, ()), ()),
            # the whole line is left in the residue
            "residue unbounded": (
                line, Decomposition(((F(0), (F(0),)),), (), line, ()), ()),
            # the claimed cells miss the origin
            "not a partition": (
                line, Decomposition(((F(0), (F(0),)),), (), PC_EMPTY, ()),
                pc_bool_op("difference", line, pc_normalize([Point(0, 0)])).cells),
        }[message]
        with pytest.raises(SemilinError,
                           match=f"^decomposition check failed: {message}$"):
            planar._verify_decomposition(x, dec, claimed)

    def test_scale_keeps_structure(self):
        base = pc_bool_op("union", full_line(2, 1), square())
        for q in (F(2), F(-1, 3)):
            dec = decompose(pc_scale(base, q))
            assert [s for s, _ in dec.graphs] == [F(2)]
            assert dec.unresolved == ()
