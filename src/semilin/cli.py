"""Batch command-line front end.

Reads a document of named objects, runs one operation, and writes a
canonical output document.  Exit codes: 0 success, 1 parse errors,
2 contract errors (with a machine-readable error record).

Each command is one entry of ``COMMANDS``, which drives parsing, the
fetching and type-checking of named objects, and the output names.
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import Callable, NamedTuple, Sequence, Tuple

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
    if name is None:  # an optional flag left out
        return None
    if name not in doc.objects:
        raise SemilinError(f"unknown name {name!r}")
    obj = doc.objects[name]
    if not isinstance(obj, kind):
        raise SemilinError(f"{name!r} is not a {what}")
    return obj


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


def _flag(*names, kind=None, **options):
    """A subcommand flag: (names, kind, argparse options).  For a flag that
    names a document object, kind is the object's class and the word error
    messages use for it; otherwise it is None."""
    options.setdefault("dest", names[0].lstrip("-"))
    return names, kind, options


_SET = (IntervalUnion, "one-dimensional set")
_PLANAR = (PlanarComplex, "planar complex")
_X = _flag("--x", "--set", required=True, kind=_SET)
_PX = _flag("--x", "--set", required=True, kind=_PLANAR)
_FAMILY = _flag("--family", required=True, kind=(Family, "family"))
_SIDE = _flag("--side", required=True, choices=["left", "right"])


def _kind(*choices):
    return _flag("--kind", required=True, choices=list(choices))


def _rat(name: str):
    return _flag(name, required=True, type=_RAT)


class Command(NamedTuple):
    name: str
    help: str
    flags: Sequence[tuple]
    # called with the parsed arguments (the document as ``doc``) and, in
    # flag order, the objects the flags name.  It looks library functions
    # up by name when it runs, so a rebound module global sees every call.
    handler: Callable
    outputs: Tuple[str, ...] = ("result",)


def _sets(doc: Document, names) -> dict:
    gens = {name: doc.objects.get(name) for name in names}
    for name, obj in gens.items():
        if not isinstance(obj, (IntervalUnion, PlanarComplex)):
            raise SemilinError(f"generator {name!r} missing or not a set")
    return gens


def _classify(a):
    if not (a.gen or a.all):
        raise SemilinError("classify needs --all or --gen")
    names = a.gen or [n for n, o in a.doc.objects.items()
                      if isinstance(o, (IntervalUnion, PlanarComplex))]
    return classify(_sets(a.doc, names))


def _derive_interval(a, x):
    single, trace = derive_interval(x, name=a.x)
    return IntervalUnion((single,)), trace


COMMANDS = [
    Command("normalize", "canonical form of a 1-D set", [_X], lambda a, x: x),
    Command("boolop", "boolean operation on 1-D sets",
            [_kind("union", "intersect", "difference", "symmdiff",
                   "complement"), _X, _flag("--y", kind=_SET)],
            lambda a, x, y: iv.bool_op(a.kind, x, y)),
    Command("affine", "image under x -> q*x + a",
            [_X, _rat("--q"), _rat("--a")],
            lambda a, x: iv.affine_op(x, a.q, a.a)),
    Command("endpoints", "finite component endpoints", [_X, _SIDE],
            lambda a, x: record_rats(iv.endpoints(x, a.side))),
    Command("boundedness", "boundedness class", [_X],
            lambda a, x: iv.boundedness(x)),
    Command("topo", "closure, interior or frontier",
            [_X, _kind("closure", "interior", "frontier")],
            lambda a, x: iv.topo_op(x, a.kind)),
    Command("metrics", "component length and diameter", [_X],
            lambda a, x: iv.metrics(x)),
    Command("isolate", "shift isolating one component", [_X],
            lambda a, x: iv.isolate_interval(x)),
    Command("classify1d", "1-D trichotomy class", [_X],
            lambda a, x: iv.classify_one_dim(x)),
    Command("derive-ray", "synthesize a ray with trace", [_X],
            lambda a, x: derive_ray(x, name=a.x), ("ray", "trace")),
    Command("derive-interval", "synthesize a single interval with trace",
            [_X], _derive_interval, ("interval", "trace")),
    Command("replay", "replay a trace on the document's sets",
            [_flag("--trace", required=True, kind=(Trace, "trace"))],
            lambda a, tr: replay(tr, _sets(a.doc, tr.generators))),
    Command("pc-normalize", "canonical planar form", [_PX], lambda a, x: x),
    Command("pc-boolop", "boolean operation in the plane",
            [_kind("union", "intersect", "difference", "symmdiff"), _PX,
             _flag("--y", required=True, kind=_PLANAR)],
            lambda a, x, y: planar.pc_bool_op(a.kind, x, y)),
    Command("pc-affine", "translate and/or swap coordinates",
            [_PX, _flag("--dx", default="0", type=_RAT),
             _flag("--dy", default="0", type=_RAT),
             _flag("--swap", action="store_true")],
            lambda a, x: planar.pc_affine(x, (a.dx, a.dy), a.swap)),
    Command("pc-boundedness", "bounded in the plane?", [_PX],
            lambda a, x: record_flag(planar.pc_boundedness(x))),
    Command("pc-topo", "planar closure or frontier",
            [_PX, _kind("closure", "frontier")],
            lambda a, x: planar.pc_topo(x, a.kind)),
    Command("pc-section", "pull back along a line",
            [_PX, _flag("--slope", required=True, type=_SLOPE,
                       help="rational or 'vertical'"), _rat("--offset")],
            lambda a, x: planar.pc_section(x, a.slope, a.offset)),
    Command("pc-project", "coordinate projection",
            [_PX, _flag("--axis", required=True, type=int, choices=[1, 2])],
            lambda a, x: planar.pc_project(x, a.axis)),
    Command("pc-affine-part", "locally affine points of a planar set", [_PX],
            lambda a, x: planar.affine_part(x)),
    Command("pc-germ", "compare local germs at two points",
            [_PX] + [_flag(n, required=True, type=_POINT,
                           help="point as 'x,y'") for n in ("--p", "--q")],
            lambda a, x: record_flag(planar.germ_equal(x, a.p, a.q))),
    Command("pc-stab", "bounded-difference stabilizer", [_PX],
            lambda a, x: planar.stab_bd(x)),
    Command("pc-decompose",
            "structure as co-bounded lines plus bounded residue", [_PX],
            lambda a, x: planar.decompose(x)),
    Command("fiber", "evaluate a family fiber", [_FAMILY, _rat("--t")],
            lambda a, f: fiber(f, a.t)),
    Command("bounded-params", "parameters with bounded fiber", [_FAMILY],
            lambda a, f: bounded_params(f)),
    Command("endpoint-family", "family of fiber endpoints", [_FAMILY, _SIDE],
            lambda a, f: endpoint_family(f, a.side)),
    Command("uniform-bound", "uniform bound on fiber component lengths",
            [_FAMILY], lambda a, f: record_extended(uniform_length_bound(f))),
    Command("match-endpoints", "pair left endpoints with right endpoints",
            [_FAMILY, _rat("--t")],
            lambda a, f: record_pairs(match_endpoints(f, a.t))),
    Command("classify", "reduct lattice verdict",
            [_flag("--all", action="store_true"),
             _flag("--gen", action="append")], _classify),
]
_NAMES = frozenset(command.name for command in COMMANDS)


def build_parser(name: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser; given a command's name, it has only that
    command's subparser, which parses that command's argv the same way."""
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
    for command in COMMANDS:
        if name not in (None, command.name):
            continue
        p = sub.add_parser(command.name, parents=[common], help=command.help)
        for names, _, options in command.flags:
            p.add_argument(*names, **options)
        p.set_defaults(entry=command)
    return parser


def _run(args, doc: Document) -> dict:
    """Fetch and type-check the objects the flags name, run the handler
    and name its outputs."""
    command = args.entry
    objects = [_fetch(doc, getattr(args, options["dest"]), *kind)
               for _, kind, options in command.flags if kind]
    args.doc = doc
    result = command.handler(args, *objects)
    if len(command.outputs) == 1:
        result = (result,)
    return dict(zip(command.outputs, result))


def _read(path: str) -> str:
    if path == "-":  # a text-only stdin has no byte buffer
        data = getattr(sys.stdin, "buffer", sys.stdin).read()
    else:
        with open(path, "rb") as handle:
            data = handle.read()
    try:
        return data if isinstance(data, str) else data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DocumentError(f"input is not UTF-8: {exc}") from None


def _output(args) -> Tuple[int, str]:
    """The exit code and the text of the one output document: the result,
    or an error record."""
    try:
        doc = parse_document(_read(args.input))
        return 0, serialize_document(Document(_run(args, doc)))
    except DocumentError as exc:
        code, error = 1, record_error("malformed-document", str(exc))
    except (SemilinError, ValueError) as exc:
        code, error = 2, record_error(type(exc).__name__, str(exc))
    return code, serialize_document(Document({"error": error}))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # only a known command's name builds a one-command parser; --help,
    # --version and every other first token need all of them
    known = argv[0] if argv and argv[0] in _NAMES else None
    try:
        args = build_parser(known).parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    try:
        code, text = _output(args)
        if args.output == "-":
            sys.stdout.write(text)
        else:
            with open(args.output, "w", encoding="utf-8", newline="\n") as out:
                out.write(text)
        return code
    except OSError as exc:  # an unreadable input or an unwritable output
        sys.stderr.write(f"semilin: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
