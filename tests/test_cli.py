import importlib.util
import io
import json
import os
import shutil
import site
import subprocess
import sys
from pathlib import Path

import pytest

import semilin
from semilin.cli import main

GOLDEN = Path(__file__).parent / "golden"

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
