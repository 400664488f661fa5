"""Layer spans for the traced run, recorded from outside the package.

`traced(tracer)` replaces the package functions the workloads reach with
wrappers that time each call (each step, for generators) and restores them
on exit.  Spans nest on a stack, so each one knows its self time: its
duration minus the part its child spans cover.  Only totals per span name
are kept; `covered` is the time inside outermost spans.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

from circleperm import cli, families, fields, qm, repro, serialize, verify


class Tracer:
    def __init__(self):
        self.total = defaultdict(float)  # span name -> summed duration
        self.self_time = defaultdict(float)  # span name -> summed self time
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)  # counters observed at the boundaries
        self.covered = 0.0
        self._stack = []  # child time accumulated by each open span

    def _open(self):
        self._stack.append(0.0)
        return time.perf_counter()

    def _close(self, name, t0):
        d = time.perf_counter() - t0
        child = self._stack.pop()
        self.total[name] += d
        self.self_time[name] += d - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1] += d
        else:
            self.covered += d

    def wrap(self, fn, name, observe=None):
        def call(*args, **kwargs):
            t0 = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, t0)
            if observe is not None:
                observe(self, result, args)
            return result

        return call

    def wrap_gen(self, fn, name):
        def gen(*args, **kwargs):
            t0 = self._open()
            try:
                it = fn(*args, **kwargs)
            finally:
                self._close(name, t0)
            while True:
                t0 = self._open()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(name, t0)
                self.counts[name + ".yields"] += 1
                yield item

        return gen

    def summary(self) -> dict:
        return {k: {"calls": self.calls[k], "total_s": self.total[k],
                    "self_s": self.self_time[k]} for k in sorted(self.total) if self.calls[k]}


def span_metrics(tr: Tracer) -> dict:
    """Per-layer metrics from spans; None where the run never reached the span."""
    t, c, n = tr.total, tr.counts, tr.calls

    def per(num, den, scale=1.0):
        return num / den * scale if den else None

    ser_calls = sum(v for k, v in n.items() if k.startswith("serialize."))
    ser = sum(v for k, v in tr.self_time.items() if k.startswith("serialize."))
    grid_calls = n["families.param_grid"]
    return {
        "families.param_grid_s": tr.self_time["families.param_grid"] if grid_calls else None,
        "families.tuples_enumerated": c["families.param_grid.yields"] if grid_calls else None,
        "families.build_s": t["families.build"] if n["families.build"] else None,
        "families.build_us": per(t["families.build"], n["families.build"], 1e6),
        "verify.criterion_s": t["verify.criterion"] if n["verify.criterion"] else None,
        "verify.exhaustive_s": t["verify.exhaustive"] if n["verify.exhaustive"] else None,
        "verify.criterion_ns_per_point":
            per(t["verify.criterion"], c["verify.criterion.points"], 1e9),
        "verify.exhaustive_ns_per_point":
            per(t["verify.exhaustive"], c["verify.exhaustive.points"], 1e9),
        "verify.points_evaluated":
            c["verify.exhaustive.points"] if n["verify.exhaustive"] else None,
        "verify.early_exit_frac": per(c["verify.exhaustive.early_exit"], n["verify.exhaustive"]),
        "verify.points_frac":
            per(c["verify.exhaustive.points"], c["verify.exhaustive.field_points"]),
        "qm.classify_s": t["qm.classify"] if n["qm.classify"] else None,
        "qm.classes": c["qm.classes"] if n["qm.classify"] else None,
        "serialize.s": ser if ser_calls else None,
        "serialize.entry_us": per(ser, c["serialize.lines"], 1e6),
        "serialize.bytes": c["serialize.bytes"] if c["serialize.lines"] else None,
    }


# -- counters derived from outputs -------------------------------------------


def _witness_position(ctx, x) -> int:
    """Index of x in the exhaustive order 0, g^0, g^1, ..."""
    return 0 if x.enc == 0 else 1 + ctx.log_enc(x.enc)


def _observe_exhaustive(tr: Tracer, report, args):
    ctx = args[1]
    points = ctx.order if report.witness is None else _witness_position(ctx, report.witness[1]) + 1
    tr.counts["verify.exhaustive.points"] += points
    tr.counts["verify.exhaustive.field_points"] += ctx.order
    tr.counts["verify.exhaustive.early_exit"] += report.witness is not None


def _observe_criterion(tr: Tracer, report, args):
    ext = args[2]
    stop = report.detail.get("circle_root") or (report.detail.get("circle_collision") or [None, None])[1]
    if stop is None:
        points = ext.q + 1
    else:
        points = ext.big.log_enc(stop.enc) // (ext.q - 1) + 1
    tr.counts["verify.criterion.points"] += points


def _observe_classes(tr: Tracer, part, args):
    tr.counts["qm.classes"] += len(part.classes)


def _observe_line(tr: Tracer, line, args):
    tr.counts["serialize.lines"] += 1
    tr.counts["serialize.bytes"] += len(line) + 1


# (module, attribute, span name, observer); "gen" marks a generator function
SPANS = [
    (cli, "construct_grid_entries", "cli.construct_grid", "gen"),
    (cli, "param_grid", "families.param_grid", "gen"),
    (families, "build_family", "families.build", None),
    (cli, "build_family", "families.build", None),
    (repro, "build_family", "families.build", None),
    (repro, "run_case", "repro.run_case", None),
    (repro, "quad_extension", "fields.ext_build", None),
    (fields, "quad_extension", "fields.ext_build", None),
    (cli, "verify_both", "verify.both", None),
    (repro, "verify_both", "verify.both", None),
    (verify, "verify_both", "verify.both", None),
    (verify, "decompose", "verify.decompose", None),
    (verify, "criterion_check", "verify.criterion", _observe_criterion),
    (verify, "is_permutation_exhaustive", "verify.exhaustive", _observe_exhaustive),
    (qm, "classify_catalog", "qm.classify", _observe_classes),
    (qm, "qm_equivalent", "qm.equivalent", None),
    (serialize, "entry_to_json", "serialize.entry_to_json", None),
    (serialize, "report_to_json", "serialize.report_to_json", None),
    (serialize, "poly_to_json", "serialize.poly_to_json", None),
    (serialize, "params_to_json", "serialize.params_to_json", None),
    (serialize, "poly_from_json", "serialize.poly_from_json", None),
    (serialize, "params_from_json", "serialize.params_from_json", None),
    (serialize, "dumps_line", "serialize.dumps_line", _observe_line),
]


@contextlib.contextmanager
def traced(tracer: Tracer):
    saved = []
    for owner, attr, name, observe in SPANS:
        fn = getattr(owner, attr)
        saved.append((owner, attr, fn))
        wrapped = tracer.wrap_gen(fn, name) if observe == "gen" else tracer.wrap(fn, name, observe)
        setattr(owner, attr, wrapped)
    try:
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)
