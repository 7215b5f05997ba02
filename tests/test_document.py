import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from semilin.document import (Document, DocumentError, encode_value,
                              parse_document, record_error, record_extended,
                              record_flag, record_pairs, record_rats,
                              serialize_document)
from semilin.family import AffineFn, Band, Family, Graph
from semilin.intervals import (Interval, boundedness, classify_one_dim,
                               isolate_interval, metrics)
from semilin.planar import Point, Seg, VSeg, decompose, pc_normalize, stab_bd
from semilin.rat import NEG_INF, POS_INF
from semilin.synthesis import derive_ray
from semilin.classifier import Level, classify
from semilin.trace import OPS, Trace, TraceStep

from conftest import (classifier_corpus, iu, random_bounded_family,
                      random_complex, random_family, random_union)

F = Fraction
GOLDEN = Path(__file__).parent / "golden"


def roundtrip(doc: Document) -> Document:
    return parse_document(serialize_document(doc))


class TestRoundTrip:
    def test_interval_union(self, rng):
        for _ in range(40):
            x = random_union(rng)
            assert roundtrip(Document({"x": x})).objects["x"] == x

    def test_planar_complex(self, rng):
        for _ in range(40):
            x = random_complex(rng, 4)
            assert roundtrip(Document({"x": x})).objects["x"] == x

    def test_family(self, rng):
        for _ in range(40):
            f = random_bounded_family(rng)
            assert roundtrip(Document({"f": f})).objects["f"] == f

    def test_trace(self):
        y = iu("(-inf,0) (1,2)")
        _, trace = derive_ray(y)
        assert roundtrip(Document({"t": trace})).objects["t"] == trace

    def test_records_pass_through(self):
        doc = Document({
            "b": encode_value(boundedness(iu("(0,3) (5,6)"))),
            "m": encode_value(metrics(iu("(0,1)"))),
            "i": encode_value(isolate_interval(iu("(0,1) (2,4)"))),
            "s": encode_value(stab_bd(pc_normalize([Point(0, 0)]))),
            "d": encode_value(decompose(pc_normalize([Point(0, 0)]))),
            "v": encode_value(classify({"x": iu("(0,1)")})),
            # a ray is in no class with a side: a required None is null
            "c": encode_value(classify_one_dim(iu("(0,inf)"))),
            "f": encode_value(record_flag(True)),
            "r": encode_value(record_rats([F(-1, 2), F(3)])),
            "e": encode_value(record_extended(POS_INF)),
            "p": encode_value(record_pairs([(F(0), F(1, 2)), (F(2), F(3))])),
            "err": encode_value(record_error("PreconditionError", "why")),
        })
        assert doc.objects["c"]["side"] is None
        text = serialize_document(doc)
        assert serialize_document(parse_document(text)) == text

    @pytest.mark.parametrize("value", [
        Interval.closed(0, 1), Point(0, 0), TraceStep("complement", "X")],
        ids=["interval", "point", "trace step"])
    def test_nested_values_are_not_document_objects(self, value):
        with pytest.raises(TypeError):
            encode_value(value)

    @pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.out.json")),
                             ids=lambda p: p.name)
    def test_golden_outputs_are_fixed_points(self, path):
        data = path.read_bytes()
        text = serialize_document(parse_document(data.decode("utf-8")))
        assert text.encode("utf-8") == data

    def test_verdicts_at_every_level_pass_through(self):
        levels = set()
        for _, gens, level in classifier_corpus():
            verdict = classify(gens)
            levels.add(verdict.level)
            text = serialize_document(Document({"v": verdict}))
            assert serialize_document(parse_document(text)) == text
        assert levels == set(Level)

    def test_identity_on_canonical_text(self, rng):
        doc = Document({"x": random_union(rng), "p": random_complex(rng, 3)})
        text = serialize_document(doc)
        assert serialize_document(parse_document(text)) == text


class TestCanonicalization:
    def test_unnormalized_input_normalizes(self):
        text = json.dumps({
            "version": "1",
            "objects": {"x": {"type": "interval_union", "intervals": [
                {"lo": "2", "hi": "10/2", "lo_closed": False, "hi_closed": False},
                {"lo": "0", "hi": "3", "lo_closed": False, "hi_closed": False},
            ]}},
        })
        doc = parse_document(text)
        assert doc.objects["x"] == iu("(0,5)")

    def test_rationals_reduce(self):
        text = json.dumps({
            "version": "1",
            "objects": {"x": {"type": "interval_union", "intervals": [
                {"lo": "2/4", "hi": "6/4", "lo_closed": False, "hi_closed": False},
            ]}},
        })
        out = serialize_document(parse_document(text))
        assert '"1/2"' in out and '"3/2"' in out


def _doc(objects):
    return json.dumps({"version": "1", "objects": objects})


class TestStrictness:
    def test_rejects_unknown_field(self):
        with pytest.raises(DocumentError):
            parse_document(_doc({"x": {"type": "interval_union",
                                       "intervals": [], "extra": 1}}))

    def test_rejects_unknown_type(self):
        with pytest.raises(DocumentError):
            parse_document(_doc({"x": {"type": "polygon"}}))

    def test_rejects_duplicate_names(self):
        text = ('{"version": "1", "objects": {"x": {"type": "interval_union",'
            ' "intervals": []}, "x": {"type": "interval_union", "intervals": []}}}')
        with pytest.raises(DocumentError):
            parse_document(text)

    def test_rejects_bad_version(self):
        with pytest.raises(DocumentError):
            parse_document('{"version": "99", "objects": {}}')

    def test_rejects_float_rationals(self):
        with pytest.raises(DocumentError):
            parse_document(_doc({"x": {"type": "interval_union", "intervals": [
                {"lo": "0.5", "hi": "1", "lo_closed": False, "hi_closed": False},
            ]}}))

    def test_rejects_malformed_interval(self):
        with pytest.raises(DocumentError):
            parse_document(_doc({"x": {"type": "interval_union", "intervals": [
                {"lo": "1", "hi": "0", "lo_closed": False, "hi_closed": False},
            ]}}))

    def test_rejects_non_json(self):
        with pytest.raises(DocumentError):
            parse_document("not json")

    def test_rejects_bad_trace_step(self):
        with pytest.raises(DocumentError):
            parse_document(_doc({"t": {"type": "trace", "generators": ["Y"],
                                       "steps": [{"op": "closure", "src": "Y"}],
                                       "output": "Y"}}))

    def test_rejects_section_without_offset(self):
        with pytest.raises(DocumentError):
            parse_document(_doc({"t": {"type": "trace", "generators": ["Y"],
                                       "steps": [{"op": "section", "src": "Y",
                                                  "slope": "1"}],
                                       "output": 0}}))


def _every_op_trace() -> Trace:
    """A trace that uses each operation of the alphabet, and both kinds of
    section slope."""
    S = TraceStep
    return Trace(("X", "P"), (
        S("swap", "P"), S("section", "P", slope="vertical", offset=F(1)),
        S("section", "P", slope=F(1, 2), offset=F(-3)),
        S("project", "P", axis=2), S("complement", "X"),
        S("scale", "X", factor=F(-2)), S("translate", "X", amount=F(1, 3)),
        S("union", 4, other=5), S("intersect", 7, other=6),
        S("diff", 8, other=1)), 9)


def _objects_below(node):
    """Every JSON object inside node, node included."""
    if isinstance(node, dict):
        yield node
    for child in (node.values() if isinstance(node, dict)
                  else node if isinstance(node, list) else ()):
        yield from _objects_below(child)


class TestSharedDecoderStrictness:
    """Every document shape is read as strictly as it is written."""

    def test_every_op_trace_uses_the_whole_alphabet(self):
        assert {s.op for s in _every_op_trace().steps} == OPS

    @pytest.mark.parametrize("seed", range(4))
    def test_round_trip_and_every_missing_or_unknown_key(self, seed):
        rng = random.Random(seed)
        # each cell kind and each boundary kind, away from the random ones
        cells = random_complex(rng, 3).cells + (
            Point(100, 100), Seg(1, 0, Interval.closed(200, 201)),
            VSeg(300, Interval(NEG_INF, F(1), False, True)))
        fiber_cells = random_family(rng, 3).cells + (
            Graph(Interval.closed(-1, 1), AffineFn(2, 3)),
            Band(Interval.open(5, 6), NEG_INF, AffineFn(0, 1), False, True))
        doc = Document({"X": random_union(rng, 3), "P": pc_normalize(cells),
                        "F": Family(fiber_cells), "T": _every_op_trace()})
        text = serialize_document(doc)
        back = parse_document(text)
        assert back.objects == doc.objects
        assert serialize_document(back) == text

        raw = json.loads(text)
        count = 0
        for name in raw["objects"]:
            mutant = json.loads(text)
            for obj in _objects_below(mutant["objects"][name]):
                for key in list(obj):
                    value = obj.pop(key)
                    with pytest.raises(DocumentError):
                        parse_document(json.dumps(mutant))
                    obj[key] = value
                    count += 1
                obj["unknown"] = 1
                with pytest.raises(DocumentError):
                    parse_document(json.dumps(mutant))
                del obj["unknown"]
                count += 1
        assert count > 40
