"""Command line front end.

Four subcommands cover the everyday jobs:

* ``vista validate``  - parse trace files and report integrity findings
* ``vista evaluate``  - apply the safety rules and emit verdicts
* ``vista fidelity``  - compare a virtual run against a reference run
* ``vista generate``  - write synthetic runs of the stock scenario

Exit codes: 0 success, 1 findings or failed verdicts, 2 bad usage or
unreadable inputs.  All output is deterministic for a given input set:
file lists are sorted, JSON is written with sorted keys and no
timestamps.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

from . import fidelity as fidelity_mod
from . import integrity as it
from . import rules as rules_mod
from . import synth
from . import trace_io
# all_clearance_series is unused here: perfbench/tracer.py wraps this name.
from .clearance import all_clearance_series, series_rows  # noqa: F401
from .errors import InsufficientOverlap, VistaError
from .model import VehicleProfile
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


def _parse_all(paths):
    """[(path, trace | None, report)] for every expanded input."""
    return [(p, *trace_io.parse_trace(p)) for p in paths]


def _print_findings(path, findings):
    for f in findings:
        print(f"{path}: {f.render()}")


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# validate

def _cmd_validate(args) -> int:
    paths = _expand_inputs(args.inputs)
    f_min = args.f_min
    results = _parse_all(paths)

    any_error = False
    payload = []
    groups: dict = {}
    for path, trace, report in results:
        if trace is not None and f_min > 0:
            report.findings.extend(it.check_frequency(trace, f_min))
        _print_findings(path, report.findings)
        if trace is not None:
            groups.setdefault(trace.testcase_id, []).append(trace)
        ok = report.ok
        any_error = any_error or not ok
        payload.append({
            "input": str(path),
            "ok": ok,
            "findings": [asdict(f) for f in report.findings],
        })
        print(f"{'OK' if ok else 'INVALID'} {path}")

    check_sets = args.n_required is not None
    n_required = args.n_required if check_sets else RuleSet.n_required
    set_findings = []
    for tc in sorted(groups):
        runs = groups[tc]
        if not check_sets and len(runs) < 2:
            continue
        for f in it.check_run_set(runs, n_required):
            set_findings.append(f)
            print(f"{tc}: {f.render()}")
            if f.severity == it.ERROR:
                any_error = True
    if set_findings:
        payload.append({
            "input": "run sets",
            "ok": all(f.severity != it.ERROR for f in set_findings),
            "findings": [asdict(f) for f in set_findings],
        })

    if args.out:
        _write_json(Path(args.out), payload)
    return EXIT_FINDINGS if any_error else EXIT_OK


# ---------------------------------------------------------------------------
# evaluate

def _cmd_evaluate(args) -> int:
    paths = _expand_inputs(args.inputs)
    results = _parse_all(paths)

    overrides = rules_mod.load_rules(args.rules) if args.rules else None
    profile = VehicleProfile(length=args.vut_length, width=args.vut_width)

    bad = False
    for path, trace, report in results:
        if trace is None or not report.ok:
            _print_findings(path, report.errors)
            bad = True
    if bad:
        print("evaluation aborted: inputs have integrity errors")
        return EXIT_FINDINGS

    groups: dict = {}
    for path, trace, _ in results:
        groups.setdefault(trace.testcase_id, []).append((path, trace))

    out_dir = Path(args.out) if args.out else None
    all_passed = True
    for tc in sorted(groups):
        pairs = sorted(groups[tc], key=lambda pt: pt[1].run_id)
        ruleset = rules_mod.ruleset_for(tc, overrides)
        n_required = ruleset.n_required if args.n_required is None \
            else args.n_required
        evaluations = [rules_mod.evaluate_run(t, ruleset, profile)
                       for _, t in pairs]
        case = rules_mod.aggregate(evaluations, n_required=n_required)
        all_passed = all_passed and case.passed
        sys.stdout.write(rules_mod.render_text(case))
        if out_dir is not None:
            _write_json(out_dir / f"{tc}_summary.json", case.to_dict())
            for (path, trace), ev in zip(pairs, evaluations):
                stem = dir_name(tc, trace.run_id)
                _write_json(out_dir / f"{stem}_verdict.json", ev.to_dict())
                if args.series:
                    with open(out_dir / f"{stem}_series.csv", "w",
                              encoding="utf-8", newline="") as fh:
                        csv.writer(fh, lineterminator="\n").writerows(
                            series_rows(ev.series))
    return EXIT_OK if all_passed else EXIT_FINDINGS


# ---------------------------------------------------------------------------
# fidelity

def _one_trace(path_str: str):
    paths = _expand_inputs([path_str])
    if len(paths) != 1:
        raise _CliError(f"{path_str}: expected exactly one trace")
    trace, report = trace_io.parse_trace(paths[0])
    if trace is None or not report.ok:
        _print_findings(paths[0], report.errors)
        raise _CliError(f"{path_str}: integrity errors, cannot compare")
    return trace


def _cmd_fidelity(args) -> int:
    virtual = _one_trace(args.virtual)
    reference = _one_trace(args.reference)
    tol = fidelity_mod.FidelityTolerances(
        position_rmse=args.tol_position,
        speed_rmse=args.tol_speed,
        heading_rmse=args.tol_heading,
    )
    try:
        report = fidelity_mod.compare(virtual, reference, tolerances=tol,
                                      window=args.window)
    except InsufficientOverlap as exc:
        print(f"error: {exc}")
        return EXIT_USAGE
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
                       default=_env("VISTA_F_MIN", 10.0, _non_negative),
                       help="minimum sample rate in Hz (0 disables; "
                            "default 10, env VISTA_F_MIN)")
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
