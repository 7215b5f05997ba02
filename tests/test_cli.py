import argparse
import importlib.util
import io
import json
import os
import random
import re
import shutil
import site
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semilin
import semilin.errors
from semilin import cli
from semilin.cli import COMMANDS, main
from semilin.document import Document, parse_document, serialize_document
from semilin.family import Family
from semilin.intervals import Interval, IntervalUnion
from semilin.planar import PlanarComplex, Point, pc_normalize
from semilin.synthesis import derive_ray
from semilin.trace import Trace, TraceStep

from conftest import iu, random_complex, random_family, random_union

GOLDEN = Path(__file__).parent / "golden"
ROOT = Path(__file__).parent.parent

# (case name, input file, argv tail); outputs live in <name>.out.json
CASES = [
    ("ray_island", "ray_island", ["derive-ray", "--x", "Y"]),
    ("reflect_island", "ray_island", ["affine", "--x", "Y", "--q", "-1", "--a", "0"]),
    ("classify_ray", "ray_island", ["classify", "--all"]),
    ("endpoints_punctured", "punctured_line", ["endpoints", "--x", "X", "--side", "right"]),
    ("bound_drifting", "drifting_pair", ["uniform-bound", "--family", "F"]),
    ("fiber_drifting", "drifting_pair", ["fiber", "--family", "F", "--t", "5"]),
    ("params_punctured", "punctured_family", ["bounded-params", "--family", "F"]),
    ("bound_widening", "widening_family", ["uniform-bound", "--family", "F"]),
    ("normalize_overlap", "normalize_overlap", ["normalize", "--x", "X"]),
    ("isolate_wide", "isolate_wide", ["isolate", "--x", "X"]),
    ("interval_contraction", "contraction", ["derive-interval", "--x", "Y"]),
    ("witness", "witness", ["boundedness", "--x", "X"]),
    ("classify_vset", "vset", ["classify", "--all"]),
    ("decompose_vset", "vset", ["pc-decompose", "--x", "V"]),
    ("section_vset", "vset", ["pc-section", "--x", "V", "--slope", "1", "--offset", "0"]),
    ("classify_line_box", "line_box", ["classify", "--all"]),
    ("stab_line_box", "line_box", ["pc-stab", "--x", "M"]),
    ("decompose_line_box", "line_box", ["pc-decompose", "--x", "M"]),
    ("replay_ray", "replay_ray", ["replay", "--trace", "tr"]),
    ("matching", "matching", ["match-endpoints", "--family", "F", "--t", "5"]),
    ("endpoint_family", "matching", ["endpoint-family", "--family", "F", "--side", "left"]),
]


def run_case(case, tmp_path, run_id=0):
    name, source, argv = case
    out = tmp_path / f"{name}.{run_id}.json"
    code = main(argv + ["--input", str(GOLDEN / f"{source}.in.json"),
                        "--output", str(out)])
    assert code == 0, f"{name} exited {code}: {out.read_text()}"
    return out.read_bytes()


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_golden(case, tmp_path):
    expected = (GOLDEN / f"{case[0]}.out.json").read_bytes()
    assert run_case(case, tmp_path, 0) == expected
    assert run_case(case, tmp_path, 1) == expected  # byte-identical reruns


def test_stdout_matches_file_output(tmp_path, monkeypatch, capsys):
    name, source, argv = CASES[0]
    expected = (GOLDEN / f"{name}.out.json").read_text()
    monkeypatch.setattr("sys.stdin", io.StringIO(
        (GOLDEN / f"{source}.in.json").read_text()))
    code = main(argv)
    assert code == 0
    assert capsys.readouterr().out == expected


def test_negative_rational_flag_values(tmp_path):
    out = tmp_path / "out.json"
    code = main(["affine", "--x", "X", "--q", "-2/3", "--a", "-5/7",
                 "-i", str(GOLDEN / "witness.in.json"), "-o", str(out)])
    assert code == 0
    # (0,3) u (5,6) under x -> -2x/3 - 5/7
    got = json.loads(out.read_text())["objects"]["result"]["intervals"]
    assert got[0]["lo"] == "-33/7" and got[-1]["hi"] == "-5/7"


def test_exit_code_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    out = tmp_path / "out.json"
    code = main(["normalize", "--x", "X", "-i", str(bad), "-o", str(out)])
    assert code == 1
    record = json.loads(out.read_text())
    assert record["objects"]["error"]["tag"] == "malformed-document"


@pytest.mark.parametrize("axis", [True, 1.0], ids=["true", "1.0"])
def test_trace_axis_must_be_an_integer(axis, tmp_path):
    """True == 1 and 1.0 == 1, yet neither is an axis."""
    doc = json.loads(serialize_document(Document({
        "P": pc_normalize([Point(1, 2)]),
        "tr": Trace(("P",), (TraceStep("project", "P", axis=1),), 0)})))
    src, out = tmp_path / "in.json", tmp_path / "out.json"
    argv = ["replay", "--trace", "tr", "-i", str(src), "-o", str(out)]
    src.write_text(json.dumps(doc))
    assert main(argv) == 0
    doc["objects"]["tr"]["steps"][0]["axis"] = axis
    src.write_text(json.dumps(doc))
    assert main(argv) == 1
    record = json.loads(out.read_text())
    assert record["objects"]["error"]["tag"] == "malformed-document"


def test_exit_code_contract_error(tmp_path):
    out = tmp_path / "out.json"
    code = main(["derive-ray", "--x", "X",
                 "-i", str(GOLDEN / "witness.in.json"), "-o", str(out)])
    assert code == 2
    record = json.loads(out.read_text())
    assert record["objects"]["error"]["tag"] == "PreconditionError"

    code = main(["normalize", "--x", "missing",
                 "-i", str(GOLDEN / "witness.in.json"), "-o", str(out)])
    assert code == 2


def test_oversized_rational_is_a_typed_contract_error(tmp_path):
    """Inputs of 4000 digits are accepted, but their 7999-digit image is
    past the interpreter's integer-to-text limit: exit 2 with a record
    tagged by a semilin error type, not a mislabelled ValueError."""
    big = Fraction(10) ** 3999
    src = tmp_path / "big.json"
    src.write_text(serialize_document(Document(
        {"X": IntervalUnion((Interval(Fraction(0), big),))})))
    out = tmp_path / "out.json"
    code = main(["affine", "--x", "X", "--q", str(big), "--a", "0",
                 "-i", str(src), "-o", str(out)])
    assert code == 2
    error = json.loads(out.read_text())["objects"]["error"]
    assert error["tag"] == "RationalTooLarge"
    assert "7999 decimal digits" in error["message"]


def test_package_exports_every_error_type():
    """The CLI tags error records with these names; each is importable
    from the package."""
    errors = [obj for obj in vars(semilin.errors).values()
              if isinstance(obj, type) and issubclass(obj, semilin.SemilinError)
              and obj.__module__ == "semilin.errors"]
    assert len(errors) > 1
    for error in errors:
        assert getattr(semilin, error.__name__) is error


def test_exit_code_usage_error():
    assert main(["no-such-command"]) == 1


def test_deeply_nested_document_is_a_parse_error(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    out = tmp_path / "out.json"
    code = main(["normalize", "--x", "X", "-i", str(deep), "-o", str(out)])
    assert code == 1
    record = json.loads(out.read_text())
    assert record["objects"]["error"]["tag"] == "malformed-document"


def _malformed(out: Path) -> bool:
    return (json.loads(out.read_text())["objects"]["error"]["tag"]
            == "malformed-document")


def test_oversize_integer_literal_is_a_parse_error(tmp_path):
    """The interpreter refuses to read a JSON integer of more than 4300
    digits; that is a malformed document, not a contract error."""
    src, out = tmp_path / "big.json", tmp_path / "out.json"
    src.write_text('{"version": "1", "objects": {}, "n": ' + "1" * 5000 + "}")
    assert main(["normalize", "--x", "X", "-i", str(src), "-o", str(out)]) == 1
    assert _malformed(out)


def test_non_utf8_file_is_a_parse_error(tmp_path):
    src, out = tmp_path / "in.json", tmp_path / "out.json"
    src.write_bytes(b"\xff\xfe" + (GOLDEN / "witness.in.json").read_bytes())
    assert main(["normalize", "--x", "X", "-i", str(src), "-o", str(out)]) == 1
    assert _malformed(out)


def test_non_utf8_stdin_is_a_parse_error(tmp_path, monkeypatch):
    data = (GOLDEN / "witness.in.json").read_bytes().replace(b"X", b"\xc3(")
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
    out = tmp_path / "out.json"
    assert main(["normalize", "--x", "X", "-o", str(out)]) == 1
    assert _malformed(out)


@pytest.mark.parametrize("text, argv", [
    ("{nope", ["normalize", "--x", "X"]),
    (None, ["normalize", "--x", "missing"]),
    (None, ["normalize", "--x", "X"]),
], ids=["malformed", "contract-error", "success"])
def test_unwritable_output_exits_1_without_a_traceback(text, argv, tmp_path,
                                                        capsys):
    src = GOLDEN / "witness.in.json"
    if text is not None:
        src = tmp_path / "in.json"
        src.write_text(text)
    out = tmp_path / "no" / "such" / "dir" / "out.json"
    assert main(argv + ["-i", str(src), "-o", str(out)]) == 1
    assert "semilin:" in capsys.readouterr().err
    assert not out.parent.exists()


BAD_FLAGS = {
    "affine-q": ["affine", "--x", "X", "--q", "abc", "--a", "0"],
    "affine-a": ["affine", "--x", "X", "--q", "1", "--a", "1/0"],
    "pc-affine-dx": ["pc-affine", "--x", "X", "--dx", "1.5"],
    "pc-section-slope": ["pc-section", "--x", "X", "--slope", "steep",
                         "--offset", "0"],
    "pc-section-offset": ["pc-section", "--x", "X", "--slope", "vertical",
                          "--offset", "x"],
    "pc-germ-p": ["pc-germ", "--x", "X", "--p", "1", "--q", "0,0"],
    "pc-germ-q": ["pc-germ", "--x", "X", "--p", "0,0", "--q", "0,y"],
    "fiber-t": ["fiber", "--family", "F", "--t", "t"],
    "match-endpoints-t": ["match-endpoints", "--family", "F", "--t", "1/2/3"],
}


@pytest.mark.parametrize("argv", BAD_FLAGS.values(), ids=BAD_FLAGS.keys())
def test_malformed_flag_value_is_a_usage_error(argv, tmp_path, capsys):
    out = tmp_path / "out.json"
    code = main(argv + ["-i", str(GOLDEN / "witness.in.json"), "-o", str(out)])
    assert code == 1
    assert "error: argument" in capsys.readouterr().err
    assert not out.exists()


def test_version_flag(capsys):
    code = main(["--version"])
    assert code == 0
    assert capsys.readouterr().out.startswith("semilin ")


def test_help_flag(capsys):
    assert main(["--help"]) == 0
    assert "classify" in capsys.readouterr().out


# a malformed value for each flag type: a command's first typed flag gets it
BAD_VALUE = {cli._RAT: "abc", cli._SLOPE: "x", cli._POINT: "1", int: "3"}


def _screens():
    """argv whose output is a help, version, usage or error screen (and a
    bare classify, which runs): the top level and every command."""
    screens = [["--help"], ["--version"], ["--vers"], [], ["nope"], ["--"]]
    for command in COMMANDS:
        screens += [[command.name, "--help"], [command.name, "-h"],
                    [command.name], [command.name, "--nope"]]
        typed = [(names[0], options["type"])
                 for names, _, options in command.flags if "type" in options]
        if typed:
            flag, kind = typed[0]
            screens.append([command.name, flag, BAD_VALUE[kind]])
    return screens


@pytest.mark.parametrize("argv", _screens(), ids=" ".join)
def test_screens_match_the_full_parser(argv, monkeypatch, capsys):
    """main builds one subparser for a known command; its exit code,
    stdout and stderr equal those of the parser with every command."""
    text = (GOLDEN / "witness.in.json").read_text()
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    got = (main(argv),) + tuple(capsys.readouterr())
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    try:
        args = cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 0
    else:  # a bare classify runs, on stdin
        code, out = cli._output(args)
        sys.stdout.write(out)
    assert got == (code,) + tuple(capsys.readouterr())


@pytest.mark.parametrize("argv, built", [
    (["normalize", "--x", "X", "-i", str(GOLDEN / "witness.in.json")], 1),
    (["boolop", "--help"], 1),
    (["pc-section", "--x", "X"], 1),
    (["--help"], len(COMMANDS)),
    (["--version"], len(COMMANDS)),
    (["nope", "--x", "X"], len(COMMANDS)),
    ([], len(COMMANDS)),
], ids=["run", "command-help", "usage-error", "help", "version", "unknown",
        "empty"])
def test_main_builds_only_the_invoked_subparser(argv, built, monkeypatch,
                                                 capsys):
    names = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        names.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    main(argv)
    assert len(names) == built == len(set(names))


def _fresh(argv):
    """Run semilin in a new interpreter: (exit code, stdout, stderr)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "semilin", *argv], env=env,
                          capture_output=True, text=True,
                          stdin=subprocess.DEVNULL)
    return proc.returncode, proc.stdout, proc.stderr


def test_one_process_keeps_no_state_between_commands(tmp_path, capsys):
    """Commands run one after another through main print what each prints
    alone in a fresh interpreter."""
    vset = parse_document((GOLDEN / "vset.in.json").read_text()).objects
    src = tmp_path / "in.json"
    src.write_text(serialize_document(Document({
        "X": iu("(0,3) [5,6]"), "Y": iu("[1,2] {7}"), "P": vset["V"]})))
    runs = [["boolop", "--kind", "union", "--x", "X", "--y", "Y"],
            ["pc-germ", "--x", "P", "--p", "0,0", "--q", "1,1"],
            ["pc-project", "--x", "P", "--axis", "3"],
            ["classify", "--all"],
            ["boolop", "--set", "Y", "--kind", "complement"]]
    for argv in runs:
        argv += ["-i", str(src)]
        code = main(argv)
        assert (code,) + tuple(capsys.readouterr()) == _fresh(argv), argv


def test_main_reads_sys_argv(tmp_path, monkeypatch):
    """Without an argv, main parses sys.argv, as `python -m semilin` does."""
    expected = (GOLDEN / "normalize_overlap.out.json").read_bytes()
    src = str(GOLDEN / "normalize_overlap.in.json")
    out = tmp_path / "out.json"
    monkeypatch.setattr("sys.argv", ["semilin", "normalize", "--x", "X",
                                     "-i", src, "-o", str(out)])
    assert main() == 0
    assert out.read_bytes() == expected
    fresh = tmp_path / "fresh.json"
    assert _fresh(["normalize", "--x", "X", "-i", src, "-o", str(fresh)]) \
        == (0, "", "")
    assert fresh.read_bytes() == expected


def test_readme_lists_every_command_in_table_order():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    listed = section.split("Commands:", 1)[1].split("Run `semilin", 1)[0]
    assert re.findall(r"`([^`]+)`", listed) == [name for name, *_ in COMMANDS]


# a flag's values: the names in the document (mostly one of the flag's
# type), a missing name, and well-formed rationals, slopes and points
OBJECT_NAMES = ["X", "P", "F", "T", "missing"]
OWN_NAME = {IntervalUnion: "X", PlanarComplex: "P", Family: "F", Trace: "T"}
RATS = ["0", "1", "-2/3", "5", "1/2"]
FLAG_VALUES = {cli._RAT: RATS, cli._SLOPE: RATS + ["vertical"],
               cli._POINT: ["0,0", "1,-1", "1/2,3"]}
JUNK = [None, True, 0, 7, "", "x", "1/0", "inf", "-inf", [], {}, ["X"]]


def _flag_argv(draw, flag):
    names, kind, options = flag
    if options.get("action") == "store_true":
        return [names[0]] if draw(st.booleans()) else []
    if options.get("action") == "append":
        picks = draw(st.lists(st.sampled_from(OBJECT_NAMES), max_size=2))
        return [arg for name in picks for arg in (names[0], name)]
    if not options.get("required") and not draw(st.booleans()):
        return []
    if kind is not None:
        values = [OWN_NAME[kind[0]]] * 4 + OBJECT_NAMES
    elif "choices" in options:
        values = [str(c) for c in options["choices"]]
    else:
        values = FLAG_VALUES[options["type"]]
    return [draw(st.sampled_from(names)), draw(st.sampled_from(values))]


def _paths(node):
    """Every (container, key) inside a decoded JSON value."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield node, key
        yield from _paths(child)


@st.composite
def documents(draw):
    """A document with one object of each input type, as text; in half
    the cases it is lightly corrupted."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    _, trace = derive_ray(iu("(-inf,0) (1,2)"), name="X")
    raw = json.loads(serialize_document(Document({
        "X": random_union(rng, 3), "P": random_complex(rng, 3),
        "F": random_family(rng, 2), "T": trace})))
    how = draw(st.integers(0, 5))
    if how < 3:
        return json.dumps(raw)
    if how == 5:
        text = json.dumps(raw)
        at = draw(st.integers(0, len(text) - 1))
        return text[:at] + text[at + 1:]
    container, key = draw(st.sampled_from(list(_paths(raw))))
    if how == 3 and isinstance(container, dict):
        del container[key]
    else:
        container[key] = draw(st.sampled_from(JUNK))
    return json.dumps(raw)


@pytest.mark.parametrize("command", COMMANDS, ids=[c.name for c in COMMANDS])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_every_command_keeps_the_exit_contract(command, data):
    """On any document, main returns 0, 1 or 2 and raises nothing; exit 2
    writes only an error record, and exit 0 writes a readable document."""
    text = data.draw(documents())
    argv = [command.name]
    for flag in command.flags:
        argv += _flag_argv(data.draw, flag)
    with tempfile.TemporaryDirectory() as tmp:
        inp, out = Path(tmp, "in.json"), Path(tmp, "out.json")
        inp.write_text(text, encoding="utf-8")
        code = main(argv + ["-i", str(inp), "-o", str(out)])
        assert code in (0, 1, 2), (argv, code)
        if code == 2:
            objects = json.loads(out.read_text())["objects"]
            assert list(objects) == ["error"], argv
            assert objects["error"]["type"] == "error"
        elif code == 0:
            parse_document(out.read_text())


# argv tokens: command names, every flag name, junk values and "--"
ARGV_TOKENS = sorted(
    {c.name for c in COMMANDS}
    | {name for c in COMMANDS for names, _, _ in c.flags for name in names}
    | {"--input", "-i", "--output", "-o", "--version", "--help", "--"}) + [
    "X", "P", "F", "T", "missing", "-1/2", "1/0", "vertical", "0,0", "",
    "-", "--nope", "-x", "1" * 5000]
# bytes spliced into the input: invalid UTF-8 anywhere, or an integer
# literal past the interpreter's digit limit where a JSON value starts
BAD_UTF8 = [b"\xff", b"\xff\xfe", b"\x80", b"\xc3(", b"\xed\xa0\x80",
            b"\xf4\x90\x80\x80", b"\xe2\x82"]
OVERSIZE = b"9" * 4400


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_argv_and_bytes_keep_the_exit_contract(data):
    """On junk argv, input bytes that are not UTF-8 or hold an oversize
    integer literal, and an output path under a missing directory, main
    raises nothing and returns 0 or 1."""
    command = data.draw(st.sampled_from(COMMANDS))
    if data.draw(st.booleans()):
        argv = [command.name]
        for flag in command.flags:
            argv += _flag_argv(data.draw, flag)
    else:
        argv = data.draw(st.lists(st.sampled_from(ARGV_TOKENS), max_size=8))
    raw = data.draw(documents()).encode("utf-8")
    if data.draw(st.booleans()):
        at = data.draw(st.integers(0, len(raw)))
        raw = raw[:at] + data.draw(st.sampled_from(BAD_UTF8)) + raw[at:]
    else:
        starts = [m.end() for m in re.finditer(rb"[:\[] ?", raw)] or [0]
        at = data.draw(st.sampled_from(starts))
        raw = raw[:at] + OVERSIZE + raw[at:]
    with tempfile.TemporaryDirectory() as tmp:
        inp = Path(tmp, "in.json")
        inp.write_bytes(raw)
        out = data.draw(st.sampled_from([Path(tmp, "out.json"),
                                         Path(tmp, "missing", "out.json")]))
        code = main(argv + ["-i", str(inp), "-o", str(out)])
        # no input here is well formed, so no command runs: exit 0 is
        # --help or --version, and any record written is a parse error
        assert code in (0, 1), (argv, code)
        if out.exists():
            assert _malformed(out), argv


@pytest.mark.skipif(importlib.util.find_spec("setuptools") is None,
                    reason="setuptools is needed to install the package")
def test_console_script_installed(tmp_path):
    """`[project.scripts]` yields an installed `semilin` that runs."""
    root = Path(__file__).parent.parent
    project = tmp_path / "project"
    shutil.copytree(root / "src", project / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copy(root / "pyproject.toml", project)
    venv = tmp_path / "venv"
    subprocess.run([sys.executable, "-m", "venv", "--system-site-packages",
                    "--without-pip", str(venv)], check=True)
    scripts = venv / ("Scripts" if os.name == "nt" else "bin")
    python = shutil.which("python", path=str(scripts))
    # Without PYTHONPATH (which may point at src/) and the user site, only the
    # copy installed in the venv can provide `semilin`.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONNOUSERSITE"] = "1"
    # The venv sees the base interpreter's site-packages; when the suite runs
    # in a venv of its own, its setuptools is there instead. A .pth appends
    # those directories after the venv's own, so the installed copy wins.
    purelib = subprocess.run(
        [python, "-c", "import sysconfig; print(sysconfig.get_path('purelib'))"],
        env=env, capture_output=True, text=True, check=True).stdout.strip()
    Path(purelib, "outer-site.pth").write_text(
        "".join(d + "\n" for d in site.getsitepackages()))
    # setuptools' own `install`, not pip: pip builds a wheel, and offline
    # that needs `bdist_wheel` (the `wheel` package, or setuptools >= 70.1).
    proc = subprocess.run(
        [python, "-c", "from setuptools import setup; setup()", "install",
         "--single-version-externally-managed",
         "--record", str(project / "installed.txt")],
        cwd=project, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    script = shutil.which("semilin", path=str(scripts))
    assert script is not None, f"no semilin script in {scripts}"
    proc = subprocess.run([script, "--version"], env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"semilin {semilin.__version__}\n"
