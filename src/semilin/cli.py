"""Batch command-line front end.

Reads a document of named objects, runs one operation, and writes a
canonical output document.  Exit codes: 0 success, 1 parse errors,
2 contract errors (with a machine-readable error record).
"""

from __future__ import annotations

import argparse
import re
import sys

from . import __version__
from . import intervals as iv
from . import planar
from .classifier import classify
from .document import (Document, DocumentError, parse_document, record_error,
                       record_extended, record_flag, record_pairs, record_rats,
                       serialize_document)
from .errors import SemilinError
from .family import (Family, bounded_params, endpoint_family, fiber,
                     match_endpoints, uniform_length_bound)
from .intervals import IntervalUnion
from .planar import PlanarComplex, as_slope
from .rat import parse_rat
from .synthesis import derive_interval, derive_ray
from .trace import Trace, replay


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # negative rationals like -2/3 must parse as values, not flags
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$")

    # exit code 2 is reserved for contract errors; usage problems
    # count as parse errors
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fetch(doc: Document, name: str, kind, what: str):
    if name not in doc.objects:
        raise SemilinError(f"unknown name {name!r}")
    obj = doc.objects[name]
    if not isinstance(obj, kind):
        raise SemilinError(f"{name!r} is not a {what}")
    return obj


def _set(doc, name):
    return _fetch(doc, name, IntervalUnion, "one-dimensional set")


def _pc(doc, name):
    return _fetch(doc, name, PlanarComplex, "planar complex")


def _family(doc, name):
    return _fetch(doc, name, Family, "family")


def _point(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"bad point {text!r}; want 'x,y'")
    return (parse_rat(parts[0]), parse_rat(parts[1]))


def _usage(parse):
    """An argparse type: a value that parse rejects is a usage error."""
    def convert(text):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


_RAT, _SLOPE, _POINT = _usage(parse_rat), _usage(as_slope), _usage(_point)


def _cmd_normalize(args, doc):
    return {"result": _set(doc, args.x)}


def _cmd_boolop(args, doc):
    y = _set(doc, args.y) if args.y is not None else None
    return {"result": iv.bool_op(args.kind, _set(doc, args.x), y)}


def _cmd_affine(args, doc):
    return {"result": iv.affine_op(_set(doc, args.x), args.q, args.a)}


def _cmd_endpoints(args, doc):
    return {"result": record_rats(iv.endpoints(_set(doc, args.x), args.side))}


def _cmd_boundedness(args, doc):
    return {"result": iv.boundedness(_set(doc, args.x))}


def _cmd_topo(args, doc):
    return {"result": iv.topo_op(_set(doc, args.x), args.kind)}


def _cmd_metrics(args, doc):
    return {"result": iv.metrics(_set(doc, args.x))}


def _cmd_isolate(args, doc):
    return {"result": iv.isolate_interval(_set(doc, args.x))}


def _cmd_classify1d(args, doc):
    return {"result": iv.classify_one_dim(_set(doc, args.x))}


def _cmd_derive_ray(args, doc):
    ray, trace = derive_ray(_set(doc, args.x), name=args.x)
    return {"ray": ray, "trace": trace}


def _cmd_derive_interval(args, doc):
    single, trace = derive_interval(_set(doc, args.x), name=args.x)
    return {"interval": IntervalUnion((single,)), "trace": trace}


def _cmd_replay(args, doc):
    trace = _fetch(doc, args.trace, Trace, "trace")
    env = {}
    for name in trace.generators:
        obj = doc.objects.get(name)
        if not isinstance(obj, (IntervalUnion, PlanarComplex)):
            raise SemilinError(f"generator {name!r} missing or not a set")
        env[name] = obj
    return {"result": replay(trace, env)}


def _cmd_pc_normalize(args, doc):
    return {"result": _pc(doc, args.x)}


def _cmd_pc_boolop(args, doc):
    return {"result": planar.pc_bool_op(args.kind, _pc(doc, args.x),
                                        _pc(doc, args.y))}


def _cmd_pc_affine(args, doc):
    return {"result": planar.pc_affine(_pc(doc, args.x), (args.dx, args.dy),
                                       args.swap)}


def _cmd_pc_boundedness(args, doc):
    return {"result": record_flag(planar.pc_boundedness(_pc(doc, args.x)))}


def _cmd_pc_topo(args, doc):
    return {"result": planar.pc_topo(_pc(doc, args.x), args.kind)}


def _cmd_pc_section(args, doc):
    return {"result": planar.pc_section(_pc(doc, args.x), args.slope,
                                        args.offset)}


def _cmd_pc_project(args, doc):
    return {"result": planar.pc_project(_pc(doc, args.x), args.axis)}


def _cmd_pc_affine_part(args, doc):
    return {"result": planar.affine_part(_pc(doc, args.x))}


def _cmd_pc_germ(args, doc):
    return {"result": record_flag(planar.germ_equal(
        _pc(doc, args.x), args.p, args.q))}


def _cmd_pc_stab(args, doc):
    return {"result": planar.stab_bd(_pc(doc, args.x))}


def _cmd_pc_decompose(args, doc):
    return {"result": planar.decompose(_pc(doc, args.x))}


def _cmd_fiber(args, doc):
    return {"result": fiber(_family(doc, args.family), args.t)}


def _cmd_bounded_params(args, doc):
    return {"result": bounded_params(_family(doc, args.family))}


def _cmd_endpoint_family(args, doc):
    return {"result": endpoint_family(_family(doc, args.family), args.side)}


def _cmd_uniform_bound(args, doc):
    return {"result": record_extended(
        uniform_length_bound(_family(doc, args.family)))}


def _cmd_match_endpoints(args, doc):
    pairs = match_endpoints(_family(doc, args.family), args.t)
    return {"result": record_pairs(pairs)}


def _cmd_classify(args, doc):
    if args.gen:
        names = args.gen
    elif args.all:
        names = [n for n, o in doc.objects.items()
                 if isinstance(o, (IntervalUnion, PlanarComplex))]
    else:
        raise SemilinError("classify needs --all or --gen")
    gens = {}
    for name in names:
        obj = doc.objects.get(name)
        if not isinstance(obj, (IntervalUnion, PlanarComplex)):
            raise SemilinError(f"generator {name!r} missing or not a set")
        gens[name] = obj
    return {"result": classify(gens)}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="semilin",
                     description="exact semilinear set algebra and reduct "
                                 "classification")
    parser.add_argument("--version", action="version",
                        version=f"semilin {__version__}")
    common = _Parser(add_help=False)
    common.add_argument("--input", "-i", default="-",
                        help="input document path, '-' for stdin")
    common.add_argument("--output", "-o", default="-",
                        help="output path, '-' for stdout")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def cmd(name, handler, **kwargs):
        p = sub.add_parser(name, parents=[common], **kwargs)
        p.set_defaults(handler=handler)
        return p

    p = cmd("normalize", _cmd_normalize, help="canonical form of a 1-D set")
    p.add_argument("--x", "--set", dest="x", required=True)

    p = cmd("boolop", _cmd_boolop, help="boolean operation on 1-D sets")
    p.add_argument("--kind", required=True,
                   choices=["union", "intersect", "difference", "symmdiff",
                            "complement"])
    p.add_argument("--x", "--set", dest="x", required=True)
    p.add_argument("--y")

    p = cmd("affine", _cmd_affine, help="image under x -> q*x + a")
    p.add_argument("--x", "--set", dest="x", required=True)
    p.add_argument("--q", required=True, type=_RAT)
    p.add_argument("--a", required=True, type=_RAT)

    p = cmd("endpoints", _cmd_endpoints, help="finite component endpoints")
    p.add_argument("--x", "--set", dest="x", required=True)
    p.add_argument("--side", required=True, choices=["left", "right"])

    p = cmd("boundedness", _cmd_boundedness, help="boundedness class")
    p.add_argument("--x", "--set", dest="x", required=True)

    p = cmd("topo", _cmd_topo, help="closure, interior or frontier")
    p.add_argument("--x", "--set", dest="x", required=True)
    p.add_argument("--kind", required=True,
                   choices=["closure", "interior", "frontier"])

    p = cmd("metrics", _cmd_metrics, help="component length and diameter")
    p.add_argument("--x", "--set", dest="x", required=True)

    p = cmd("isolate", _cmd_isolate, help="shift isolating one component")
    p.add_argument("--x", "--set", dest="x", required=True)

    p = cmd("classify1d", _cmd_classify1d, help="1-D trichotomy class")
    p.add_argument("--x", "--set", dest="x", required=True)

    p = cmd("derive-ray", _cmd_derive_ray, help="synthesize a ray with trace")
    p.add_argument("--x", "--set", dest="x", required=True)

    p = cmd("derive-interval", _cmd_derive_interval,
            help="synthesize a single interval with trace")
    p.add_argument("--x", "--set", dest="x", required=True)

    p = cmd("replay", _cmd_replay, help="replay a trace on the document's sets")
    p.add_argument("--trace", required=True)

    p = cmd("pc-normalize", _cmd_pc_normalize, help="canonical planar form")
    p.add_argument("--x", "--set", dest="x", required=True)

    p = cmd("pc-boolop", _cmd_pc_boolop, help="boolean operation in the plane")
    p.add_argument("--kind", required=True,
                   choices=["union", "intersect", "difference", "symmdiff"])
    p.add_argument("--x", "--set", dest="x", required=True)
    p.add_argument("--y", required=True)

    p = cmd("pc-affine", _cmd_pc_affine, help="translate and/or swap coordinates")
    p.add_argument("--x", "--set", dest="x", required=True)
    p.add_argument("--dx", default="0", type=_RAT)
    p.add_argument("--dy", default="0", type=_RAT)
    p.add_argument("--swap", action="store_true")

    p = cmd("pc-boundedness", _cmd_pc_boundedness, help="bounded in the plane?")
    p.add_argument("--x", "--set", dest="x", required=True)

    p = cmd("pc-topo", _cmd_pc_topo, help="planar closure or frontier")
    p.add_argument("--x", "--set", dest="x", required=True)
    p.add_argument("--kind", required=True, choices=["closure", "frontier"])

    p = cmd("pc-section", _cmd_pc_section, help="pull back along a line")
    p.add_argument("--x", "--set", dest="x", required=True)
    p.add_argument("--slope", required=True, type=_SLOPE,
                   help="rational or 'vertical'")
    p.add_argument("--offset", required=True, type=_RAT)

    p = cmd("pc-project", _cmd_pc_project, help="coordinate projection")
    p.add_argument("--x", "--set", dest="x", required=True)
    p.add_argument("--axis", required=True, type=int, choices=[1, 2])

    p = cmd("pc-affine-part", _cmd_pc_affine_part,
            help="locally affine points of a planar set")
    p.add_argument("--x", "--set", dest="x", required=True)

    p = cmd("pc-germ", _cmd_pc_germ, help="compare local germs at two points")
    p.add_argument("--x", "--set", dest="x", required=True)
    p.add_argument("--p", required=True, type=_POINT, help="point as 'x,y'")
    p.add_argument("--q", required=True, type=_POINT, help="point as 'x,y'")

    p = cmd("pc-stab", _cmd_pc_stab, help="bounded-difference stabilizer")
    p.add_argument("--x", "--set", dest="x", required=True)

    p = cmd("pc-decompose", _cmd_pc_decompose,
            help="structure as co-bounded lines plus bounded residue")
    p.add_argument("--x", "--set", dest="x", required=True)

    p = cmd("fiber", _cmd_fiber, help="evaluate a family fiber")
    p.add_argument("--family", required=True)
    p.add_argument("--t", required=True, type=_RAT)

    p = cmd("bounded-params", _cmd_bounded_params,
            help="parameters with bounded fiber")
    p.add_argument("--family", required=True)

    p = cmd("endpoint-family", _cmd_endpoint_family,
            help="family of fiber endpoints")
    p.add_argument("--family", required=True)
    p.add_argument("--side", required=True, choices=["left", "right"])

    p = cmd("uniform-bound", _cmd_uniform_bound,
            help="uniform bound on fiber component lengths")
    p.add_argument("--family", required=True)

    p = cmd("match-endpoints", _cmd_match_endpoints,
            help="pair left endpoints with right endpoints")
    p.add_argument("--family", required=True)
    p.add_argument("--t", required=True, type=_RAT)

    p = cmd("classify", _cmd_classify, help="reduct lattice verdict")
    p.add_argument("--all", action="store_true")
    p.add_argument("--gen", action="append")

    return parser


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    out_path = args.output
    try:
        doc = parse_document(_read(args.input))
        result = args.handler(args, doc)
        _write(out_path, serialize_document(Document(result)))
        return 0
    except DocumentError as exc:
        _write(out_path, serialize_document(
            Document({"error": record_error("malformed-document", str(exc))})))
        return 1
    except OSError as exc:
        sys.stderr.write(f"semilin: {exc}\n")
        return 1
    except (SemilinError, ValueError) as exc:
        _write(out_path, serialize_document(
            Document({"error": record_error(type(exc).__name__, str(exc))})))
        return 2


if __name__ == "__main__":
    sys.exit(main())
