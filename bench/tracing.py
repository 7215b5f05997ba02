"""Spans and counters recorded around calls into each semilin layer.

Only the traced run installs them.  Every reference to a wrapped function
is rebound in every ``semilin.*`` module namespace, including module-level
dispatch dicts, because ``classifier``, ``synthesis``, ``cli`` and
``document`` import names directly.  A span records its name, start, end,
parent span and job id; self time is a span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

SPANNED = {
    "intervals": ["intersect", "difference", "symmdiff", "union",
                  "complement", "normalize", "isolate_interval"],
    "planar": ["pc_normalize", "pc_bool_op", "decompose"],
    "classifier": ["classify", "sb_certificate"],
    "synthesis": ["derive_ray", "derive_interval"],
    "trace": ["replay"],
    "family": ["uniform_length_bound", "endpoint_family", "bounded_params",
               "fiber", "match_endpoints"],
    "cli": ["build_parser", "main"],
    "document": ["parse_document", "serialize_document"],
}
COERCIONS = ["as_rat", "as_ext", "parse_rat"]
_BOOL_1D = ("intersect", "difference", "symmdiff", "union", "complement")

# per-layer metrics taken from spans: (metric, span, statistic)
SPAN_METRICS = [
    ("intervals.intersect.self_s", "intervals.intersect", "self"),
    ("intervals.difference.self_s", "intervals.difference", "self"),
    ("intervals.normalize.self_s", "intervals.normalize", "self"),
    ("intervals.union.self_s", "intervals.union", "self"),
    ("intervals.complement.self_s", "intervals.complement", "self"),
    ("intervals.isolate_interval.self_s", "intervals.isolate_interval", "self"),
    ("intervals.intersect.calls", "intervals.intersect", "calls"),
    ("intervals.normalize.calls", "intervals.normalize", "calls"),
    ("planar.pc_normalize.self_s", "planar.pc_normalize", "self"),
    ("planar.pc_normalize.calls", "planar.pc_normalize", "calls"),
    ("planar.pc_bool_op.self_s", "planar.pc_bool_op", "self"),
    ("planar.pc_bool_op.calls", "planar.pc_bool_op", "calls"),
    ("planar.decompose.self_s", "planar.decompose", "self"),
    ("classifier.classify.self_s", "classifier.classify", "self"),
    ("classifier.sb_certificate.calls", "classifier.sb_certificate", "calls"),
    ("synthesis.derive_ray.self_s", "synthesis.derive_ray", "self"),
    ("synthesis.derive_interval.self_s", "synthesis.derive_interval", "self"),
    ("trace.replay.self_s", "trace.replay", "self"),
    ("family.uniform_length_bound.self_s", "family.uniform_length_bound", "self"),
    ("family.endpoint_family.self_s", "family.endpoint_family", "self"),
    ("family.bounded_params.self_s", "family.bounded_params", "self"),
    ("family.fiber.calls", "family.fiber", "calls"),
    ("cli.build_parser.s", "cli.build_parser", "total"),
    ("cli.build_parser.calls", "cli.build_parser", "calls"),
    ("cli.main.self_s", "cli.main", "self"),
    ("document.parse_document.s", "document.parse_document", "total"),
    ("document.serialize_document.s", "document.serialize_document", "total"),
]
# per-layer counts the wrappers accumulate directly
COUNT_METRICS = [
    "intervals.parts_in", "intervals.parts_out", "planar.pc_normalize.cells_out",
    "classifier.decompose.calls", "classifier.pc_bool_op.calls",
    "synthesis.derive_ray.steps", "trace.replay.steps",
    "document.bytes_in", "document.bytes_out", "rat.coerce.calls",
]


class Tracer:
    """Records spans in flat arrays; ``job_id`` is set by the caller."""

    def __init__(self):
        self.names = []
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.job = array("q")
        self.job_id = -1
        self.counts = Counter()
        self._stack = []
        self._classify_depth = 0
        self._undo = []

    # ------------------------------------------------------------ wrapping

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "semilin" or name.startswith("semilin."))
                   and m is not None]
        for layer, funcs in SPANNED.items():
            mod = sys.modules[f"semilin.{layer}"]
            for fname in funcs:
                orig = getattr(mod, fname)
                self._rebind(modules, orig,
                             self._span(f"{layer}.{fname}", orig,
                                        self._hook(layer, fname)))
        rat = sys.modules["semilin.rat"]
        for fname in COERCIONS:
            orig = getattr(rat, fname)
            self._rebind(modules, orig, self._count(orig))

    def uninstall(self):
        for target, key, orig in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = orig
            else:
                setattr(target, key, orig)
        self._undo.clear()

    def _rebind(self, modules, orig, wrapped):
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
                    self._undo.append((mod, key, orig))
                elif type(value) is dict:
                    for dkey, dvalue in list(value.items()):
                        if dvalue is orig:
                            value[dkey] = wrapped
                            self._undo.append((value, dkey, orig))

    def _span(self, name, fn, hook):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        span_name, start, end = self.span_name, self.start, self.end
        parent, job, stack = self.parent, self.job, self._stack
        clock = time.perf_counter
        is_classify = name == "classifier.classify"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            job.append(self.job_id)
            end.append(0.0)
            stack.append(idx)
            if is_classify:
                self._classify_depth += 1
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                if is_classify:
                    self._classify_depth -= 1
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _count(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts["rat.coerce.calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _hook(self, layer, fname):
        counts = self.counts
        if layer == "intervals" and fname in _BOOL_1D:
            def hook(args, result):
                counts["intervals.parts_in"] += sum(
                    len(a.parts) for a in args if hasattr(a, "parts"))
                counts["intervals.parts_out"] += len(result.parts)
            return hook
        if fname == "pc_normalize":
            def hook(args, result):
                counts["planar.pc_normalize.cells_out"] += len(result.cells)
            return hook
        if fname in ("decompose", "pc_bool_op"):
            metric = f"classifier.{fname}.calls"

            def hook(args, result):
                if self._classify_depth:
                    counts[metric] += 1
            return hook
        if fname == "derive_ray":
            def hook(args, result):
                counts["synthesis.derive_ray.steps"] += len(result[1].steps)
            return hook
        if fname == "replay":
            def hook(args, result):
                counts["trace.replay.steps"] += len(args[0].steps)
            return hook
        if fname == "parse_document":
            def hook(args, result):
                counts["document.bytes_in"] += len(args[0].encode("utf-8"))
            return hook
        if fname == "serialize_document":
            def hook(args, result):
                counts["document.bytes_out"] += len(result.encode("utf-8"))
            return hook
        return None

    # ------------------------------------------------------------ results

    def metrics(self):
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        stats = {name: {"total": 0.0, "self": 0.0, "calls": 0}
                 for name in self.names}
        for i in range(n):
            s = stats[self.names[self.span_name[i]]]
            dur = self.end[i] - self.start[i]
            s["total"] += dur
            s["self"] += dur - child[i]
            s["calls"] += 1
        out = {}
        for metric, span, stat in SPAN_METRICS:
            out[metric] = stats.get(span, {}).get(stat, 0)
        for metric in COUNT_METRICS:
            out[metric] = self.counts[metric]
        return out
