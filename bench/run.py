"""semilin benchmark: seeded CLI jobs through ``semilin.cli.main``.

    python3 bench/run.py --workload kernels --seed 1 --seconds 45 --trace 0

One client runs a closed loop in this process: each job is one CLI command
on one generated input document of its own, written to disk before its
segment is timed, and the next job starts when ``main`` returns.  Jobs run
in whole rounds (every ladder at every size) until ``--seconds`` of job
time have passed; every output is then checked by an oracle that does not
call semilin.  ``--trace 0`` prints the end-to-end metrics.  ``--trace 1``
runs the same untraced rounds, which give the growth exponents, then a
fixed number of rounds with spans installed, and prints the per-layer
metrics.  The last line of standard output is one JSON object with the
result; see README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(ROOT, "tests", "golden")

import oracle  # noqa: E402  (bench modules sit beside this file)
import tracing  # noqa: E402
import workloads  # noqa: E402

# workload -> kernel groups whose ladders make up its rounds
WORKLOADS = {"kernels": ["line", "plane", "families"], "small-docs": []}
ROUNDS = {"line": workloads.line_round, "plane": workloads.plane_round,
          "families": workloads.families_round}
# rounds in the traced pass (one elsewhere); fixed, so every count repeats
# for a seed
TRACED_ROUNDS = {"small-docs": 10}
SETUP_CHILDREN = 15
# a timed run goes on past --seconds until it has this many jobs, so that
# at least ten lie beyond the 90th percentile
MIN_JOBS = 100
# time spent inside a fresh interpreter importing the CLI and building its
# parser; interpreter start-up is outside the timed region
SETUP_CODE = ("import sys, time\n"
              "sys.path.insert(0, sys.argv[1])\n"
              "t0 = time.perf_counter()\n"
              "import semilin.cli\n"
              "semilin.cli.build_parser()\n"
              "print(time.perf_counter() - t0)\n")
_RATIONAL = re.compile(r'"-?(\d+)(?:/(\d+))?"')

E2E_UNITS = {"jobs_per_s": "1/s", "job_p50_ms": "ms", "job_p90_ms": "ms",
             "setup_s": "s", "peak_rss_mb": "MB"}


def group_ladders(workload):
    """(name, sizes) of every ladder a workload runs, named group.ladder."""
    return [(f"{group}.{ladder}", sizes) for group in WORKLOADS[workload]
            for ladder, sizes in workloads.LADDERS[group].items()]


def per_layer_units():
    units = {}
    for metric, _, stat in tracing.SPAN_METRICS:
        units[metric] = "count" if stat == "calls" else "s"
    for metric in tracing.COUNT_METRICS:
        units[metric] = "bytes" if metric.startswith("document.bytes") else "count"
    units["rat.max_bits"] = "bits"
    for name, _ in group_ladders("kernels"):
        units[f"{name}.growth"] = "exponent"
    units["trace_overhead"] = "ratio"
    return units


def import_semilin():
    """Import semilin from this checkout's src/, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "semilin", "cli.py")):
        raise SystemExit(f"bench: no semilin sources under {SRC}")
    if not os.path.isdir(GOLDEN):
        raise SystemExit(f"bench: no golden documents under {GOLDEN}")
    sys.path.insert(0, SRC)
    import semilin
    import semilin.cli
    if not os.path.abspath(semilin.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bench: semilin came from {semilin.__file__}")
    return semilin


def commit():
    """The checked-out commit, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return None


def make_round(workload, seed, index, smoke):
    """The jobs of one round, in a seeded order.  A group makes the same
    jobs for a seed and round whichever workload it is part of."""
    if workload == "small-docs":
        rng = random.Random(f"{workload}:{seed}:{index}")
        jobs = workloads.small_docs_round(rng, GOLDEN, index)
    else:
        jobs = []
        for group in WORKLOADS[workload]:
            rng = random.Random(f"{group}:{seed}:{index}")
            for job in ROUNDS[group](rng, smoke):
                job.ladder = f"{group}.{job.ladder}"
                jobs.append(job)
    random.Random(f"{workload}:{seed}:{index}:order").shuffle(jobs)
    return jobs


def corrupt_text(text):
    """Add one to the first rational in a document."""
    m = _RATIONAL.search(text)
    if m is None:
        return text + "x"
    value = oracle.parse_ext(m.group(0)[1:-1]) + 1
    return text[:m.start()] + f'"{value}"' + text[m.end():]


def max_bits(text):
    best = 0
    for m in _RATIONAL.finditer(text):
        for g in m.groups():
            if g is not None:
                best = max(best, int(g).bit_length())
    return best


class Runner:
    """Runs rounds of jobs, times them, and checks every output."""

    def __init__(self, main, workdir, tracer=None, corrupt=()):
        self.main = main
        self.workdir = workdir
        self.tracer = tracer
        self.corrupt = set(corrupt)  # ladders whose next output is spoiled
        self.samples = []          # (ladder, size, seconds)
        self.wall = 0.0            # job time, summed over segments
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.max_bits = 0

    def run_round(self, jobs, index):
        rdir = os.path.join(self.workdir, f"r{index}")
        os.makedirs(rdir)
        codes = {}
        for i, job in enumerate(jobs):
            job.paths = (os.path.join(rdir, f"j{i}.in.json"),
                         os.path.join(rdir, f"j{i}.out.json"))
        first = [j for j in jobs if j.after is None]
        self._write(first)
        self._segment(first, codes)
        later = []
        for job in jobs:
            if job.after is None:
                continue
            try:
                job.doc = job.make_doc(self._output(job.after))
            except (OSError, oracle.OracleError) as exc:
                codes[id(job)] = exc
                self.attempted += 1  # counted, though it never ran
                continue
            later.append(job)
        self._write(later)
        self._segment(later, codes)
        for job in jobs:
            self._verify(job, codes[id(job)])
        shutil.rmtree(rdir)
        self.rounds += 1

    def _write(self, jobs):
        for job in jobs:
            with open(job.paths[0], "w", encoding="utf-8") as fh:
                fh.write(job.doc)

    def _output(self, job):
        with open(job.paths[1], encoding="utf-8") as fh:
            return fh.read()

    def _segment(self, jobs, codes):
        if not jobs:
            return
        gc.collect()
        main, clock, tracer = self.main, time.perf_counter, self.tracer
        t0 = clock()
        for i, job in enumerate(jobs):
            argv = job.argv + ["--input", job.paths[0], "--output", job.paths[1]]
            if tracer is not None:
                tracer.job_id = self.attempted + i
            s = clock()
            try:
                code = main(argv)
            except Exception as exc:  # an escaping exception fails the job
                code = exc
            self.samples.append((job.ladder, job.size, clock() - s))
            codes[id(job)] = code
        self.wall += clock() - t0
        self.attempted += len(jobs)

    def _verify(self, job, code):
        try:
            if isinstance(code, BaseException):
                raise oracle.OracleError(f"{type(code).__name__}: {code}")
            out = self._output(job)
            if job.ladder in self.corrupt:
                out = corrupt_text(out)
                self.corrupt.discard(job.ladder)
            if self.tracer is not None:
                self.max_bits = max(self.max_bits, max_bits(job.doc),
                                    max_bits(out))
            job.check(code, out)
        # an output of the wrong shape trips the oracle's own lookups
        except (OSError, oracle.OracleError, LookupError, TypeError,
                ValueError, AttributeError) as exc:
            self.failed += 1
            self.failures.append(f"{job.ladder}[{job.size}] "
                                 f"{' '.join(job.argv)}: {exc}")


def run_rounds(runner, workload, seed, seconds, smoke, first_index=0,
               count=None):
    """Whole rounds while one more brings the job time nearer to
    ``seconds``, and until MIN_JOBS jobs (one round when smoke testing); or
    exactly ``count`` rounds."""
    index = first_index
    while True:
        runner.run_round(make_round(workload, seed, index, smoke), index)
        index += 1
        if count is not None:
            if runner.rounds >= count:
                return
        elif (runner.wall * (1 + 0.5 / runner.rounds) >= seconds
              and (smoke or runner.attempted >= MIN_JOBS)):
            return


def ladders(workload, samples):
    """Median seconds per size and the fitted log-log exponent, per ladder."""
    by = defaultdict(lambda: defaultdict(list))
    for ladder, size, secs in samples:
        by[ladder][size].append(secs)
    out = {}
    for ladder, _ in group_ladders(workload):
        sizes = sorted(by[ladder])
        meds = [statistics.median(by[ladder][s]) for s in sizes]
        out[ladder] = {"sizes": sizes, "seconds": meds,
                       "samples": [len(by[ladder][s]) for s in sizes],
                       "growth": fit_growth(sizes, meds)}
    return out


def fit_growth(sizes, seconds):
    if len(sizes) < 2:
        return 0.0
    xs = [math.log(s) for s in sizes]
    ys = [math.log(t) for t in seconds]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def setup_times(count):
    cmd = [sys.executable, "-I", "-c", SETUP_CODE, SRC]
    times = []
    for i in range(count + 1):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        if i:  # the first child only warms the file cache and bytecode
            times.append(float(proc.stdout))
    return times


def provenance(semilin, args, smoke):
    sizes = {name: sizes[:1] if smoke else sizes
             for name, sizes in group_ladders(args.workload)}
    if args.workload == "small-docs":
        sizes = {"golden": len(workloads.GOLDEN_CASES),
                 "errors": len(workloads.ERROR_CASES)}
    return {"commit": commit(), "python": sys.version.split()[0],
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "seed": args.seed, "workload": args.workload,
            "seconds": args.seconds, "trace": args.trace, "sizes": sizes,
            "semilin": semilin.__file__}


def measure(args, smoke=False, corrupt=(), setups=SETUP_CHILDREN,
            emit=print):
    """Run one benchmark invocation; return the result object."""
    semilin = import_semilin()
    main = sys.modules["semilin.cli"].main
    emit("provenance " + json.dumps(provenance(semilin, args, smoke)))
    workdir = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        plain = Runner(main, workdir, corrupt=corrupt)
        runners = [plain]
        if args.trace:
            run_rounds(plain, args.workload, args.seed, args.seconds, smoke)
            tracer = tracing.Tracer()
            tracer.install()
            # the wrapped main, so that it records its own span
            traced = Runner(sys.modules["semilin.cli"].main, workdir,
                            tracer=tracer)
            runners.append(traced)
            try:
                run_rounds(traced, args.workload, args.seed, 0, smoke,
                           first_index=1_000_000,
                           count=1 if smoke
                           else TRACED_ROUNDS.get(args.workload, 1))
            finally:
                tracer.uninstall()
        else:
            setup = setup_times(setups)
            run_rounds(plain, args.workload, args.seed, args.seconds, smoke)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    attempted = sum(r.attempted for r in runners)
    failed = sum(r.failed for r in runners)
    for r in runners:
        for line in r.failures[:20]:
            emit("failed " + line)
    table = ladders(args.workload, plain.samples)
    for ladder, row in table.items():
        emit("ladder " + json.dumps({"name": ladder, **row}))
    emit(f"metric failed_ratio {failed / attempted} ratio "
         f"failed={failed} attempted={attempted}")

    if args.trace:
        metrics = {}
        units = per_layer_units()
        layer = tracer.metrics()
        layer["rat.max_bits"] = traced.max_bits
        for ladder, _ in group_ladders("kernels"):
            row = table.get(ladder)
            layer[f"{ladder}.growth"] = row["growth"] if row else 0.0
        layer["trace_overhead"] = ((traced.wall / traced.rounds)
                                   / (plain.wall / plain.rounds))
        for name, unit in units.items():
            metrics[name] = {"value": layer[name], "unit": unit}
            emit(f"metric {name} {layer[name]} {unit} "
                 f"jobs={traced.attempted}")
    else:
        lat = [s for _, _, s in plain.samples]
        ok = plain.attempted - plain.failed
        values = {
            "jobs_per_s": (ok / plain.wall, len(lat)),
            "job_p50_ms": (statistics.median(lat) * 1000, len(lat)),
            "job_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1000
                           if len(lat) > 1 else lat[0] * 1000, len(lat)),
            # the fastest child: the median wanders with the host's load
            "setup_s": (min(setup), len(setup)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, 1),
        }
        metrics = {}
        for name, (value, n) in values.items():
            metrics[name] = {"value": value, "unit": E2E_UNITS[name]}
            emit(f"metric {name} {value} {E2E_UNITS[name]} samples={n}")
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    result = measure(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
