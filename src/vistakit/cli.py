"""Command line front end.

Four subcommands cover the everyday jobs:

* ``vista validate``  - parse trace files and report integrity findings
* ``vista evaluate``  - apply the safety rules and emit verdicts
* ``vista fidelity``  - compare a virtual run against a reference run
* ``vista generate``  - write synthetic runs of the stock scenario

Exit codes: 0 success, 1 findings or failed verdicts, 2 bad usage or
unreadable inputs.  All output is deterministic for a given input set:
file lists are sorted, JSON is written with sorted keys and no
timestamps.  ``validate`` and ``evaluate`` hold one parsed run at a time,
so their memory grows with the largest run, not with the batch;
``fidelity`` keeps only the VUT channel of each run it compares.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path
from types import SimpleNamespace

from . import fidelity as fidelity_mod
from . import integrity as it
from . import rules as rules_mod
from . import synth
from . import trace_io
# all_clearance_series is unused here: perfbench/tracer.py wraps this name.
from .clearance import all_clearance_series, series_columns  # noqa: F401
from .errors import VistaError
from .model import Trace, VehicleProfile
from .rules import RuleSet
from .schema import (DIR_NAME_RE, FLAT_NAME_RE, MAX_RUN_ID, ROLE_VUT,
                     dir_name)

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


class _CliError(Exception):
    pass


def _checked(kind, accept, want: str):
    """An argparse type that converts a text with ``kind`` and refuses a
    value ``accept`` rejects; ``want`` says what it accepts."""
    what = {float: "a number", int: "an integer"}.get(kind)

    def convert(text):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not {what}: {text!r}") \
                from None
        if not accept(value):
            raise argparse.ArgumentTypeError(f"not {want}: {text!r}")
        return value
    return convert


_positive = _checked(float, lambda v: math.isfinite(v) and v > 0,
                     "a finite number > 0")
_non_negative = _checked(float, lambda v: math.isfinite(v) and v >= 0,
                         "a finite number >= 0")
_count = _checked(int, lambda v: v >= 1, "an integer >= 1")
_non_empty = _checked(str, bool, "a non-empty text")


def _env(name: str, fallback, kind):
    """The environment variable ``name`` through the argparse type
    ``kind``; argparse itself converts only defaults that are text."""
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return kind(raw)
    except argparse.ArgumentTypeError as exc:
        raise _CliError(f"environment variable {name} is {exc}") from None


def _expand_inputs(paths) -> list:
    """Resolve user paths to individual trace files or run folders."""
    out = []
    for raw in paths:
        p = Path(raw)
        if p.is_file():
            out.append(p)
        elif p.is_dir():
            if (p / ROLE_VUT).is_file():
                out.append(p)
                continue
            hits = []
            for child in sorted(p.iterdir()):
                if child.is_file() and FLAT_NAME_RE.match(child.name):
                    hits.append(child)
                elif child.is_dir() and DIR_NAME_RE.match(child.name) and \
                        (child / ROLE_VUT).is_file():
                    hits.append(child)
            if not hits:
                raise _CliError(f"{p}: no trace files or run folders inside")
            out.extend(hits)
        else:
            raise _CliError(f"{raw}: no such file or directory")
    return out


def _findings(path, findings) -> str:
    return "".join(f"{path}: {f.render()}\n" for f in findings)


def _entry(name, ok: bool, findings) -> dict:
    """One input's entry in the ``validate --out`` JSON."""
    return {"input": str(name), "ok": ok,
            "findings": [asdict(f) for f in findings]}


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# validate

def _cmd_validate(args) -> int:
    paths = _expand_inputs(args.inputs)
    # Each input is parsed, checked and dropped before the next: the
    # run-set check reads only the runs' ids.  The lines are printed once
    # every input is read, so an input that cannot be read prints none.
    text, payload, groups = [], [], {}
    for path in paths:
        trace, report = trace_io.parse_trace(path)
        if trace is not None:
            if args.f_min > 0:
                report.findings.extend(it.check_frequency(trace, args.f_min))
            groups.setdefault(trace.testcase_id, []).append(SimpleNamespace(
                testcase_id=trace.testcase_id, run_id=trace.run_id))
        del trace
        text.append(_findings(path, report.findings)
                    + f"{'OK' if report.ok else 'INVALID'} {path}\n")
        payload.append(_entry(path, report.ok, report.findings))

    n_required = args.n_required or RuleSet.n_required
    set_findings = []
    for tc in sorted(groups):
        if args.n_required or len(groups[tc]) > 1:
            found = it.check_run_set(groups[tc], n_required)
            set_findings += found
            text.append(_findings(tc, found))
    if set_findings:
        payload.append(_entry("run sets", all(
            f.severity != it.ERROR for f in set_findings), set_findings))

    sys.stdout.write("".join(text))
    if args.out:
        _write_json(Path(args.out), payload)
    return EXIT_OK if all(entry["ok"] for entry in payload) \
        else EXIT_FINDINGS


# ---------------------------------------------------------------------------
# evaluate

def _cmd_evaluate(args) -> int:
    if args.series and not args.out:
        raise _CliError("--series requires --out")
    paths = _expand_inputs(args.inputs)
    overrides = rules_mod.load_rules(args.rules) if args.rules else None
    profile = VehicleProfile(length=args.vut_length, width=args.vut_width)

    # Each run is evaluated as soon as it is parsed, and only its
    # evaluation is kept.  Once an input has errors the rest are only
    # read, for their errors, and nothing is judged.
    failed, rulesets, groups = [], {}, {}
    for path in paths:
        trace, report = trace_io.parse_trace(path)
        if trace is None or not report.ok:
            failed.append(_findings(path, report.errors))
        elif not failed:
            tc = trace.testcase_id
            if tc not in rulesets:
                rulesets[tc] = rules_mod.ruleset_for(tc, overrides)
            ev = rules_mod.evaluate_run(trace, rulesets[tc], profile)
            groups.setdefault(tc, []).append(
                ev if args.series else replace(ev, series=()))
        del trace
    if failed:
        sys.stdout.write("".join(failed) + "evaluation aborted: inputs "
                         "have integrity errors\n")
        return EXIT_FINDINGS

    out_dir = Path(args.out) if args.out else None
    all_passed = True
    for tc in sorted(groups):
        evaluations = sorted(groups[tc], key=lambda ev: ev.run_id)
        case = rules_mod.aggregate(evaluations, n_required=(
            args.n_required or rulesets[tc].n_required))
        all_passed = all_passed and case.passed
        sys.stdout.write(rules_mod.render_text(case))
        if out_dir is not None:
            _write_json(out_dir / f"{tc}_summary.json", case.to_dict())
            for ev in evaluations:
                stem = dir_name(tc, ev.run_id)
                _write_json(out_dir / f"{stem}_verdict.json", ev.to_dict())
                if args.series:
                    trace_io._write(out_dir / f"{stem}_series.csv",
                                    *series_columns(ev.series), {})
    return EXIT_OK if all_passed else EXIT_FINDINGS


# ---------------------------------------------------------------------------
# fidelity

def _one_trace(path_str: str):
    """The one trace at ``path_str``, checked, as ``fidelity`` compares
    it: its VUT channel only."""
    paths = _expand_inputs([path_str])
    if len(paths) != 1:
        raise _CliError(f"{path_str}: expected exactly one trace")
    trace, report = trace_io.parse_trace(paths[0])
    if trace is None or not report.ok:
        sys.stdout.write(_findings(paths[0], report.errors))
        raise _CliError(f"{path_str}: integrity errors, cannot compare")
    return Trace._checked(trace.testcase_id, trace.run_id,
                          trace.channels("vut"), {}, {}, {},
                          trace.declared_frequency)


def _cmd_fidelity(args) -> int:
    virtual = _one_trace(args.virtual)
    reference = _one_trace(args.reference)
    tol = fidelity_mod.FidelityTolerances(
        position_rmse=args.tol_position,
        speed_rmse=args.tol_speed,
        heading_rmse=args.tol_heading,
    )
    report = fidelity_mod.compare(virtual, reference, tolerances=tol,
                                  window=args.window)
    verdict = "PASS" if report.passed else "RECALIBRATE"
    print(f"offset_s={report.offset:.3f} "
          f"position_rmse_m={report.position_rmse:.4f} "
          f"speed_rmse_mps={report.speed_rmse:.4f} "
          f"heading_rmse_deg={report.heading_rmse:.4f} "
          f"verdict={verdict}")
    if args.out:
        _write_json(Path(args.out), report.to_dict())
    return EXIT_OK if report.passed else EXIT_FINDINGS


# ---------------------------------------------------------------------------
# generate

def _cmd_generate(args) -> int:
    if args.start_run + args.runs - 1 > MAX_RUN_ID:
        raise _CliError(f"run ids above {MAX_RUN_ID} do not fit a file name")
    spec = synth.ScenarioSpec(testcase_id=args.testcase_id,
                              sample_rate=args.rate)
    runs = synth.synthesize_runs(spec, args.case, count=args.runs,
                                 start_run=args.start_run,
                                 speed_noise=args.speed_noise,
                                 seed=args.seed,
                                 target_clearance=args.target_clearance)
    # Each writer makes the folders it writes into.
    for trace in runs:
        written = trace_io.write_trace(trace, args.out, layout=args.layout)
        print(written)
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vista",
        description="Inspect, judge, compare and synthesize "
                    "virtual-test trace files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser(
        "validate", help="check trace files for integrity findings")
    p_val.add_argument("inputs", nargs="+",
                       help="trace files, run folders, or folders of runs")
    p_val.add_argument("--f-min", type=_non_negative,
                       default=_env("VISTA_F_MIN", it.DEFAULT_F_MIN,
                                    _non_negative),
                       help="minimum sample rate in Hz (0 disables; "
                            f"default {it.DEFAULT_F_MIN:g}, env VISTA_F_MIN)")
    p_val.add_argument("--n-required", type=_count,
                       default=_env("VISTA_N_REQUIRED", None, _count),
                       help="required runs per test case; when given, "
                            "run-set completeness is always checked "
                            "(env VISTA_N_REQUIRED)")
    p_val.add_argument("--out", help="write findings as JSON to this file")
    p_val.set_defaults(func=_cmd_validate)

    p_eval = sub.add_parser(
        "evaluate", help="apply the safety rules and report verdicts")
    p_eval.add_argument("inputs", nargs="+")
    p_eval.add_argument("--rules",
                        default=os.environ.get("VISTA_RULES"),
                        help="JSON rule overrides keyed by test case id "
                             "(env VISTA_RULES)")
    p_eval.add_argument("--n-required", type=_count,
                        default=_env("VISTA_N_REQUIRED", None, _count),
                        help="runs needed for a test case verdict "
                             "(default from the rule set, normally "
                             f"{RuleSet.n_required})")
    p_eval.add_argument("--vut-length", type=_positive,
                        default=VehicleProfile.length,
                        help="vehicle footprint length in metres")
    p_eval.add_argument("--vut-width", type=_positive,
                        default=VehicleProfile.width,
                        help="vehicle footprint width in metres")
    p_eval.add_argument("--out", help="directory for verdict JSON files")
    p_eval.add_argument("--series", action="store_true",
                        help="also write per-run clearance series CSVs "
                             "(requires --out)")
    p_eval.set_defaults(func=_cmd_evaluate)

    p_fid = sub.add_parser(
        "fidelity", help="compare a virtual run against a reference run")
    p_fid.add_argument("virtual")
    p_fid.add_argument("reference")
    p_fid.add_argument("--window", type=_non_negative,
                       default=fidelity_mod.ALIGN_WINDOW,
                       help="clock offset search half-window in seconds")
    tol = fidelity_mod.FidelityTolerances
    for channel, unit in (("position", "metres"), ("speed", "m/s"),
                          ("heading", "degrees")):
        p_fid.add_argument(f"--tol-{channel}", type=_non_negative,
                           default=getattr(tol, f"{channel}_rmse"),
                           help=f"{channel} RMSE tolerance in {unit}")
    p_fid.add_argument("--out", help="write the report as JSON")
    p_fid.set_defaults(func=_cmd_fidelity)

    p_gen = sub.add_parser(
        "generate", help="write synthetic runs of the stock scenario")
    p_gen.add_argument("--case", type=int, choices=sorted(synth.CASE_PARAMS),
                       required=True)
    p_gen.add_argument("--runs", type=_count, default=RuleSet.n_required)
    p_gen.add_argument("--start-run", type=_count, default=1)
    p_gen.add_argument("--out", required=True,
                       help="directory to write the runs into")
    p_gen.add_argument("--layout", choices=("flat", "distributed"),
                       default="flat")
    p_gen.add_argument("--rate", type=_positive,
                       default=synth.ScenarioSpec.sample_rate,
                       help="sample rate in Hz")
    p_gen.add_argument("--target-clearance", type=_non_negative,
                       default=None,
                       help="override the case's minimum lateral clearance")
    p_gen.add_argument("--speed-noise", type=_non_negative, default=0.0,
                       help="per-run speed jitter sigma in m/s")
    p_gen.add_argument("--seed", type=int, default=0,
                       help="noise seed (only used with --speed-noise)")
    p_gen.add_argument("--testcase-id", type=_non_empty,
                       default=synth.ScenarioSpec.testcase_id)
    p_gen.set_defaults(func=_cmd_generate)

    return parser


def main(argv=None) -> int:
    try:
        # build_parser reads the environment, which can be malformed.
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (_CliError, VistaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
