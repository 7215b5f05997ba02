import itertools
from fractions import Fraction

import pytest

from semilin import classifier
from semilin import intervals as iv
from semilin.classifier import (Level, classify, is_affine_combo,
                                sb_certificate)
from semilin.errors import SemilinError
from semilin.intervals import (EMPTY, FULL, FULL_LINE, Interval,
                               IntervalUnion, affine_op,
                               complement, intersect, points, symmdiff,
                               translate, union)
from semilin.planar import (PC_EMPTY, Decomposition, PlanarComplex, Point,
                            Seg, decompose, pc_affine, pc_bool_op,
                            pc_boundedness, pc_normalize)
from semilin.trace import replay

from conftest import (classifier_corpus, iu, pc_scale, random_bounded_union,
                      random_complex, random_union, rat)

F = Fraction


def _translate_any(value, t):
    if isinstance(value, IntervalUnion):
        return translate(value, t)
    return pc_affine(value, translate=(t, 2 * t))


def _scale_any(value, q):
    if isinstance(value, IntervalUnion):
        return affine_op(value, q, 0)
    return pc_scale(value, q)


def _check_certificate(verdict, gens):
    if verdict.level is Level.LIN:
        for name, form in verdict.lin_forms:
            assert form.evaluate() == gens[name]
    elif verdict.level is Level.LIN_STAR:
        for name, baseline in verdict.baselines:
            value = gens[name]
            if isinstance(value, IntervalUnion):
                assert symmdiff(value, baseline).is_bounded
            else:
                assert pc_boundedness(pc_bool_op("symmdiff", value, baseline))
    else:
        cert = verdict.ray
        got = replay(cert.trace, {cert.generator: gens[cert.generator]})
        assert got == cert.ray
        assert len(cert.ray.parts) == 1 and not cert.ray.parts[0].is_bounded


class TestAffineCombo:
    def test_finite(self):
        form = is_affine_combo(points([1, 2]))
        assert form.points == (1, 2) and not form.cofinite

    def test_interval_is_not(self):
        assert is_affine_combo(iu("(0,1)")) is None

    def test_lines_minus_points(self):
        line = pc_normalize([Seg(2, 0, iu("(-inf,inf)").parts[0])])
        x = pc_bool_op("union",
                       pc_bool_op("difference", line, pc_normalize([Point(1, 2)])),
                       pc_normalize([Point(9, 9)]))
        form = is_affine_combo(x)
        assert form is not None and form.evaluate() == x

    def test_bounded_segment_is_not(self):
        from semilin.intervals import Interval
        assert is_affine_combo(pc_normalize([Seg(1, 0, Interval.open(0, 1))])) is None

    def test_brute_force_on_line_point_combinations(self, rng):
        # boolean combinations of <= 3 full lines and <= 4 points stay LIN
        from semilin.planar import Carrier, VERTICAL
        slopes = [F(0), F(1), F(-2), VERTICAL]
        for _ in range(40):
            cells = []
            for _ in range(rng.randint(1, 3)):
                cells.append(Carrier(rng.choice(slopes), rat(rng)).full_line_cell())
            base = pc_normalize(cells)
            removals = pc_normalize([Point(rat(rng), rat(rng))
                                     for _ in range(rng.randint(0, 4))])
            additions = pc_normalize([Point(rat(rng), rat(rng))
                                      for _ in range(rng.randint(0, 4))])
            x = pc_bool_op("union", pc_bool_op("difference", base, removals),
                           additions)
            form = is_affine_combo(x)
            assert form is not None and form.evaluate() == x


class TestSbCertificate:
    def test_one_dim(self):
        assert sb_certificate(iu("(0,1)")) == EMPTY
        assert sb_certificate(complement(iu("(0,1)"))) == FULL
        assert sb_certificate(iu("(-inf,0) (1,2)")) is None
        assert sb_certificate(EMPTY) == EMPTY
        assert sb_certificate(FULL) == FULL

    def test_vset_has_none(self):
        for name, gens, level in classifier_corpus():
            if name == "v shape":
                assert sb_certificate(next(iter(gens.values()))) is None

    @pytest.mark.parametrize("planar", [False, True], ids=["1-D", "planar"])
    def test_unbounded_difference_fails_classify(self, planar, monkeypatch):
        """sb_certificate makes the only bounded-difference check, so a
        baseline whose symmetric difference is unbounded stops classify."""
        gen = (pc_normalize([Seg(0, 0, Interval.closed(0, 1))]) if planar
               else iu("(0,1)"))
        assert classify({"g": gen}).level is Level.LIN_STAR
        monkeypatch.setattr(iv, "symmdiff", lambda x, y: iu("(0,inf)"))
        with pytest.raises(SemilinError, match="baseline"):
            classify({"g": gen})

    @pytest.mark.parametrize("graphs", [(), ((F(0), (F(0),)), (F(1), (F(0),)))],
                             ids=["missing line", "extra line"])
    def test_wrong_baseline_is_rejected(self, graphs, monkeypatch):
        """A baseline that lacks a line of x, or has a line x lacks, differs
        from x on a whole line."""
        x = pc_normalize([Seg(0, 0, FULL_LINE)])
        forged = Decomposition(graphs, (), PC_EMPTY, ())
        monkeypatch.setattr(classifier, "decompose", lambda _: forged)
        with pytest.raises(SemilinError, match="baseline verification failed"):
            sb_certificate(x)


class TestClassify:
    @pytest.mark.parametrize("name,gens,level",
                             classifier_corpus(),
                             ids=[c[0] for c in classifier_corpus()])
    def test_corpus(self, name, gens, level):
        verdict = classify(gens)
        assert verdict.level is level
        _check_certificate(verdict, gens)

    def test_empty_generator_list(self):
        assert classify({}).level is Level.LIN

    def test_translation_and_scaling_invariance(self, rng):
        for name, gens, level in classifier_corpus():
            t, q = rat(rng), rat(rng) or F(2)
            moved = {n: _translate_any(v, t) for n, v in gens.items()}
            scaled = {n: _scale_any(v, q) for n, v in gens.items()}
            assert classify(moved).level is level
            assert classify(scaled).level is level

    def test_monotone_under_union_of_generators(self):
        corpus = classifier_corpus()
        for (_, g1, l1), (_, g2, l2) in itertools.combinations(corpus, 2):
            joined = {}
            for i, (n, v) in enumerate(g1.items()):
                joined[f"a{i}"] = v
            for i, (n, v) in enumerate(g2.items()):
                joined[f"b{i}"] = v
            assert classify(joined).level is max(l1, l2)

    def test_each_planar_generator_is_decomposed_once(self, monkeypatch):
        seen = []

        def counting(x):
            seen.append(x)
            return decompose(x)

        monkeypatch.setattr(classifier, "decompose", counting)
        for _, gens, level in classifier_corpus():
            seen.clear()
            classify(gens)
            n = sum(isinstance(v, PlanarComplex) for v in gens.values())
            assert len(seen) == (0 if level is Level.LIN else n)

    def test_bounded_generators_never_semi(self, rng):
        for _ in range(60):
            gens = {}
            for i in range(rng.randint(1, 3)):
                if rng.random() < 0.5:
                    gens[f"g{i}"] = random_bounded_union(rng)
                else:
                    gens[f"g{i}"] = random_complex(rng, 3, bounded=True)
            verdict = classify(gens)
            assert verdict.level is not Level.SEMI
            for name, value in gens.items():
                cert = sb_certificate(value)
                assert cert is not None
                if isinstance(value, IntervalUnion):
                    assert cert == EMPTY or value.is_empty
                else:
                    assert cert == PlanarComplex()

    def test_one_dim_trichotomy_is_exhaustive_and_exclusive(self, rng):
        from semilin.intervals import OneDimKind, classify_one_dim
        for _ in range(200):
            x = random_union(rng, 4)
            form = is_affine_combo(x)
            cert = sb_certificate(x)
            kind = classify_one_dim(x).kind
            ray_applies = kind is OneDimKind.BOTH_UNBOUNDED
            form_applies = form is not None
            sb_only = cert is not None and form is None
            assert form_applies + sb_only + ray_applies == 1

    def test_small_alphabet_search_finds_no_ray_from_bounded_sets(self, rng):
        # bounded-depth search over translate/scale/boolean words: expected
        # to fail, supporting the no-interaction reading for LIN_STAR
        for _ in range(10):
            gens = [random_bounded_union(rng) for _ in range(2)]
            frontier = [g for g in gens if not g.is_empty]
            seen = set(frontier)
            def is_ray(v):
                return len(v.parts) == 1 and not v.parts[0].is_bounded \
                    and v != FULL
            for _ in range(2):
                new = []
                for v in frontier:
                    for w in [translate(v, 3), affine_op(v, -1, 0),
                              complement(v)]:
                        if w not in seen:
                            new.append(w)
                    for g in gens:
                        for w in [intersect(v, g), union(v, g)]:
                            if w not in seen:
                                new.append(w)
                seen.update(new)
                frontier = new
            assert not any(is_ray(v) for v in seen)
