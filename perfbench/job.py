"""One repetition of a workload, in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  It imports
``vistakit.cli``, builds the workload's inputs (the set-up), then runs
the workload's commands in-process through ``vistakit.cli.main``, one
after another, and checks their outputs.  With ``--trace`` the commands
run under the tracer and the per-layer metrics are computed.  The
outcome is written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


@dataclasses.dataclass
class CommandResult:
    label: str
    exit_code: int | None
    stdout: str
    seconds: float
    error: str = ""


def probe_seconds() -> float:
    """A fixed pure-Python loop, timed; a machine-speed diagnostic only."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def run_command(cli, cmd, tracer) -> CommandResult:
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            if tracer is None:
                code = cli.main(cmd.argv)
            else:
                code = tracer.call("cli." + cmd.label, cli.main,
                                   (cmd.argv,), {})
        error = ""
    except (Exception, SystemExit):  # a crash is a failed op, not fatal
        code, error = None, traceback.format_exc()
    return CommandResult(cmd.label, code, out.getvalue(),
                         time.perf_counter() - t0, error)


def output_digests(work: Path, results) -> dict:
    """SHA-256 of every file the job left under ``work`` and of each
    command's stdout, with the repetition's directory masked out."""
    digests = {}
    for path in sorted(p for p in work.rglob("*") if p.is_file()):
        digests[path.relative_to(work).as_posix()] = hashlib.sha256(
            path.read_bytes()).hexdigest()
    for i, res in enumerate(results):
        text = res.stdout.replace(str(work), "<work>")
        digests[f"stdout/{i:02d}-{res.label}"] = hashlib.sha256(
            text.encode()).hexdigest()
    return digests


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    from vistakit import cli
    import workloads
    workload = workloads.WORKLOADS[args.workload]
    work = Path(args.work)
    ctx = workload.setup(work, args.seed)
    setup_end = time.monotonic()
    result = {"setup_end": setup_end, "vistakit": cli.__file__}

    if not args.setup_only:
        result["probe_s"] = probe_seconds()
        tracer = None
        if args.trace:
            import tracer as tracing
            tracer = tracing.Tracer()
            undo = tracing.install(tracer)
        commands = workload.commands(work, args.seed, ctx)
        t0 = time.perf_counter()
        results = [run_command(cli, cmd, tracer) for cmd in commands]
        job_s = time.perf_counter() - t0
        if tracer is not None:
            undo()

        checks = [(f"command {i} ({c.label}): exit {c.expected_exit}",
                   r.exit_code == c.expected_exit)
                  for i, (c, r) in enumerate(zip(commands, results))]
        checks += workload.check(work, args.seed, ctx, results)
        by_label: dict = {}
        for r in results:
            by_label[r.label] = by_label.get(r.label, 0.0) + r.seconds
        result.update(
            job_s=job_s,
            command_s=by_label,
            commands=len(results),
            failed_commands=[
                {"argv": c.argv, "exit": r.exit_code, "error": r.error,
                 "stdout": r.stdout[-2000:]}
                for c, r in zip(commands, results)
                if r.exit_code != c.expected_exit],
            checks=len(checks),
            failed_checks=[name for name, ok in checks if not ok],
            digests=output_digests(work, results),
        )
        if tracer is not None:
            result["layers"] = tracing.layer_metrics(tracer)
            result["exact_counts"] = tracing.exact_counts(tracer)

    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
