"""Spans and counters around vistakit's public functions, from outside.

``install`` replaces each traced name where callers look it up (a module
attribute, or a class attribute for ``LocalFrame.to_local``) with a
wrapper, and returns a function that puts the originals back.  Nothing
under ``src/`` is edited.  Names a module imported with ``from ... import``
are wrapped in that module as well, so every call path is covered.

Spans are held in flat lists and turned into per-layer metrics by
``layer_metrics`` once the job is over.  A span's self time is its
duration minus the durations of its children; the program is single
threaded, so children never overlap.
"""

from __future__ import annotations

import collections
import math
import time
from pathlib import Path

from vistakit import (
    cli,
    clearance,
    fidelity,
    frames,
    geometry,
    integrity,
    rules,
    synth,
    trace_io,
)

CLEARANCE_SERIES = "clearance.clearance_series"
EVALUATE_RUN = "rules.evaluate_run"
GEOMETRY_TIMED = ("min_separation", "directional_clearance",
                  "first_contact_time", "rect_incursion")
UNREAD = ("geometry.first_contact_time", "geometry.rect_incursion")
FINDING_CODES = sorted(
    v for k, v in vars(integrity).items()
    if k.isupper() and isinstance(v, str) and v not in (integrity.ERROR,
                                                        integrity.WARNING))
OUTCOMES = (rules.PASS, rules.FAIL, rules.WARNING, rules.NOT_APPLICABLE)


def _files_size(path) -> int:
    path = Path(path)
    if path.is_dir():
        return sum(p.stat().st_size for p in path.iterdir() if p.is_file())
    return path.stat().st_size


class Tracer:
    """Spans (name, start, end, parent, job id) and counters, in memory."""

    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.jobs: list = []
        self.work: dict = {}          # span index -> units of work done
        self.keys: dict = {}          # span index -> (run, entity) key
        self.stack: list = []
        self.open = collections.Counter()
        self.counts = collections.Counter()
        self.job_id = 0

    def call(self, name, fn, args, kwargs, on_return=None):
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.jobs.append(self.job_id)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self.stack.append(i)
        self.open[name] += 1
        self.starts[i] = time.perf_counter()
        try:
            ret = fn(*args, **kwargs)
        finally:
            self.ends[i] = time.perf_counter()
            self.stack.pop()
            self.open[name] -= 1
        if on_return is not None:
            on_return(self, i, args, ret)
        return ret

    def spanned(self, name, fn, on_return=None):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, on_return)
        return wrapper

    def counted(self, name, fn):
        """Count calls, and calls made while a clearance series is built."""
        counts, open_ = self.counts, self.open

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if open_[CLEARANCE_SERIES]:
                counts[name + "@clearance"] += 1
            return fn(*args, **kwargs)
        return wrapper


# --- what each span records about its work, read from its arguments and
# --- return value after the clock has stopped

def _steps_out(tr, i, args, ret):
    tr.work[i] = len(ret.vut)


def _rows_written(tr, i, args, ret):
    tr.work[i] = len(args[0].vut)
    tr.counts["trace_io.rows_written"] += len(args[0].vut)
    tr.counts["trace_io.bytes_written"] += _files_size(ret)


def _rows_read(tr, i, args, ret):
    trace, report = ret
    rows = len(trace.vut) if trace is not None else 0
    tr.work[i] = rows
    tr.counts["trace_io.rows_read"] += rows
    _count_findings(tr, report.findings)


def _count_findings(tr, findings):
    for f in findings:
        tr.counts["integrity.findings." + f.code] += 1


def _frequency(tr, i, args, ret):
    tr.work[i] = len(args[0].vut)
    _count_findings(tr, ret)


def _run_set(tr, i, args, ret):
    _count_findings(tr, ret)


def _series(tr, i, args, ret):
    trace, entity_id = args[0], args[1]
    tr.work[i] = len(ret.samples)
    tr.keys[i] = (trace.testcase_id, trace.run_id, entity_id)


def _verdicts(tr, i, args, ret):
    for v in ret.verdicts:
        tr.counts["rules.verdicts." + v.outcome] += 1


def install(tracer: Tracer):
    """Wrap every traced name; returns a function that undoes it."""
    saved = []

    def put(owner, attr, wrapper):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def span(owner, attr, name, on_return=None):
        put(owner, attr, tracer.spanned(name, getattr(owner, attr), on_return))

    span(synth, "synthesize", "synth.synthesize", _steps_out)
    span(synth, "perturb", "synth.perturb", _steps_out)
    span(synth, "first_contact_time", "geometry.first_contact_time")
    put(synth, "poly_array",
        tracer.counted("geometry.poly_array", synth.poly_array))
    span(trace_io, "write_flat", "trace_io.write_flat", _rows_written)
    span(trace_io, "write_distributed", "trace_io.write_distributed",
         _rows_written)
    span(trace_io, "parse_flat", "trace_io.parse_flat", _rows_read)
    span(trace_io, "parse_distributed", "trace_io.parse_distributed",
         _rows_read)
    span(trace_io, "shape_from_array", "positions.shape_from_array")
    span(integrity, "check_frequency", "integrity.check_frequency",
         _frequency)
    span(integrity, "check_run_set", "integrity.check_run_set", _run_set)
    put(frames.LocalFrame, "to_local",
        tracer.counted("frames.LocalFrame.to_local",
                       frames.LocalFrame.to_local))
    put(geometry, "poly_array",
        tracer.counted("geometry.poly_array", geometry.poly_array))
    for fn in GEOMETRY_TIMED:
        span(geometry, fn, "geometry." + fn)
    span(clearance, "clearance_series", CLEARANCE_SERIES, _series)
    span(rules, "clearance_series", CLEARANCE_SERIES, _series)
    span(cli, "all_clearance_series", "clearance.all_clearance_series")
    span(rules, "evaluate_run", EVALUATE_RUN, _verdicts)
    span(rules, "aggregate", "rules.aggregate")
    span(rules, "render_text", "rules.render_text")
    span(fidelity, "align", "fidelity.align")
    span(fidelity, "compare", "fidelity.compare")

    def undo():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
    return undo


# --- per-layer metrics -----------------------------------------------------

def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer metrics from the spans of the traced jobs.

    A layer that the workload does not exercise reads 0.
    """
    n = len(tr.names)
    jobs = len(set(tr.jobs))
    dur = [tr.ends[i] - tr.starts[i] for i in range(n)]
    child = [0.0] * n
    # enclosing command span, and whether an evaluate_run or a clearance
    # series encloses the span; a parent's index is always smaller
    in_cmd = [-1] * n
    in_eval = [False] * n
    in_series = [False] * n
    for i in range(n):
        p = tr.parents[i]
        if p >= 0:
            child[p] += dur[i]
            in_cmd[i] = p if tr.names[p].startswith("cli.") else in_cmd[p]
            in_eval[i] = tr.names[p] == EVALUATE_RUN or in_eval[p]
            in_series[i] = tr.names[p] == CLEARANCE_SERIES or in_series[p]
    self_t = [dur[i] - child[i] for i in range(n)]

    by_name = collections.defaultdict(list)
    for i, name in enumerate(tr.names):
        by_name[name].append(i)

    def total(name, times=dur):
        return sum(times[i] for i in by_name[name])

    def work(name):
        return sum(tr.work.get(i, 0) for i in by_name[name])

    def per_unit(name, scale, times=dur):
        return _ratio(total(name, times) * scale, work(name))

    def per_call(name, scale, times=dur):
        return _ratio(total(name, times) * scale, len(by_name[name]))

    c = tr.counts
    m = {}
    m["cli.self_s"] = _ratio(sum(self_t[i] for i in range(n)
                                 if tr.names[i].startswith("cli.")), jobs)
    m["synth.synthesize.us_per_step"] = per_unit("synth.synthesize", 1e6)
    m["synth.perturb.us_per_step"] = per_unit("synth.perturb", 1e6)
    for fn in ("write_flat", "write_distributed", "parse_flat",
               "parse_distributed"):
        m[f"trace_io.{fn}.us_per_row"] = per_unit("trace_io." + fn, 1e6)
    m["trace_io.rows_read"] = c["trace_io.rows_read"]
    m["trace_io.bytes_written"] = c["trace_io.bytes_written"]
    m["positions.shape_from_array.us_per_call"] = per_call(
        "positions.shape_from_array", 1e6)
    m["integrity.check_frequency.us_per_row"] = per_unit(
        "integrity.check_frequency", 1e6)
    m["integrity.check_run_set.ms"] = per_call("integrity.check_run_set", 1e3)
    for code in FINDING_CODES:
        m["integrity.findings." + code] = c["integrity.findings." + code]

    samples = work(CLEARANCE_SERIES)
    m["frames.LocalFrame.to_local.calls_per_sample"] = _ratio(
        c["frames.LocalFrame.to_local@clearance"], samples)
    m["geometry.poly_array.calls_per_sample"] = _ratio(
        c["geometry.poly_array@clearance"], samples)
    for fn in GEOMETRY_TIMED:
        m[f"geometry.{fn}.self_us_per_call"] = per_call(
            "geometry." + fn, 1e6, self_t)

    m["clearance.clearance_series.us_per_sample"] = per_unit(
        CLEARANCE_SERIES, 1e6)
    m["clearance.clearance_series.self_us_per_sample"] = per_unit(
        CLEARANCE_SERIES, 1e6, self_t)
    m["clearance.samples"] = samples
    series = by_name[CLEARANCE_SERIES]
    distinct = {(in_cmd[i],) + tr.keys[i] for i in series}
    m["clearance.series_reuse_ratio"] = _ratio(len(distinct), len(series))
    unread = sum(dur[i] for name in UNREAD for i in by_name[name]
                 if in_series[i])
    m["clearance.unread_share"] = _ratio(unread, total(CLEARANCE_SERIES))

    eval_samples = sum(tr.work.get(i, 0) for i in series if in_eval[i])
    m["rules.evaluate_run.us_per_sample"] = _ratio(
        total(EVALUATE_RUN) * 1e6, eval_samples)
    m["rules.evaluate_run.self_us_per_sample"] = _ratio(
        total(EVALUATE_RUN, self_t) * 1e6, eval_samples)
    runs_ms = sorted(dur[i] * 1e3 for i in by_name[EVALUATE_RUN])
    m["rules.evaluate_run.p50_ms"] = _percentile(runs_ms, 50)
    m["rules.evaluate_run.p90_ms"] = _percentile(runs_ms, 90)
    m["rules.aggregate_render.ms"] = _ratio(
        (total("rules.aggregate") + total("rules.render_text")) * 1e3,
        len(by_name["rules.aggregate"]))
    for outcome in OUTCOMES:
        m["rules.verdicts." + outcome] = c["rules.verdicts." + outcome]

    m["fidelity.align.ms_per_alignment"] = per_call("fidelity.align", 1e3)
    m["fidelity.compare.self_ms"] = per_call("fidelity.compare", 1e3, self_t)
    return m


def _percentile(sorted_values, pct):
    """Nearest-rank percentile; 0 for an empty list."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def exact_counts(tr: Tracer) -> dict:
    """Counts that must repeat exactly for one program, workload and seed:
    the counters, the calls per span name and the work units per name."""
    out = dict(tr.counts)
    for i, name in enumerate(tr.names):
        out["calls." + name] = out.get("calls." + name, 0) + 1
        if i in tr.work:
            out["work." + name] = out.get("work." + name, 0) + tr.work[i]
    return dict(sorted(out.items()))
