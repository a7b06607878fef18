"""vistakit benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload worked-cases --seed 1 --seconds 55 --trace 0

Run from the root of a vistakit source tree; the package is imported
from ``src/``.  Each repetition is a fresh interpreter (``job.py``) that
sets up the workload's inputs and runs its ``vista`` commands in-process,
one after another (a closed loop with one client).  Repetitions follow
each other while the next one is expected to end within ``--seconds``;
there is always at least one.

``--trace 0`` reports the end-to-end metrics as medians over the
repetitions.  ``--trace 1`` runs one untraced repetition, then traced
ones, and reports the per-layer metrics and the tracing overhead.  Every
output is checked on every repetition, and outputs must be identical
across repetitions of one seed.  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_SETUPS = 3          # set-up samples per run, for the setup_s median
CHILD_TIMEOUT_S = 150   # a repetition that takes longer is killed
END_TO_END_UNITS = {"job_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def layer_unit(name: str) -> str:
    if name.endswith("calls_per_sample"):
        return "calls/sample"
    if "us_per_" in name:
        return "us"
    if name.endswith((".ms", "_ms")) or "ms_per_" in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


class BenchError(Exception):
    pass


def machine_info() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy_version,
            "commit": git_commit()}


def git_commit() -> str:
    """HEAD of the source tree, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "vistakit").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(SRC).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    nproc = str(os.cpu_count() or 1)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = str(min(int(env.get(var, nproc)), int(nproc)))
    return env


class Runner:
    """Starts repetitions one after another and keeps their results."""

    def __init__(self, workload: str, seed: int, run_dir: Path):
        self.workload, self.seed, self.run_dir = workload, seed, run_dir
        self.env = child_env()
        self.reps: list = []

    def spawn(self, traced=False, setup_only=False) -> dict:
        k = len(self.reps)
        work = self.run_dir / f"rep{k}"
        result_file = self.run_dir / f"rep{k}.json"
        log_file = self.run_dir / f"rep{k}.log"
        argv = [sys.executable, str(BENCH / "job.py"),
                "--workload", self.workload, "--seed", str(self.seed),
                "--work", str(work), "--result", str(result_file)]
        if traced:
            argv.append("--trace")
        if setup_only:
            argv.append("--setup-only")
        t0 = time.monotonic()
        with open(log_file, "w", encoding="utf-8") as log:
            try:
                proc = subprocess.run(argv, env=self.env, cwd=ROOT,
                                      stdin=subprocess.DEVNULL, stdout=log,
                                      stderr=subprocess.STDOUT,
                                      timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                raise BenchError(f"repetition {k} exceeded "
                                 f"{CHILD_TIMEOUT_S} s")
        wall = time.monotonic() - t0
        if proc.returncode != 0:
            raise BenchError(f"repetition {k} exited {proc.returncode}:\n"
                             + log_file.read_text()[-4000:])
        with open(result_file, encoding="utf-8") as fh:
            rep = json.load(fh)
        if not Path(rep["vistakit"]).resolve().is_relative_to(SRC):
            raise BenchError(f"imported vistakit from {rep['vistakit']}, "
                             f"not from {SRC}")
        rep.update(setup_s=rep["setup_end"] - t0, wall_s=wall,
                   traced=traced, setup_only=setup_only)
        shutil.rmtree(work, ignore_errors=True)
        self.reps.append(rep)
        return rep

    def jobs(self, traced: bool) -> list:
        return [r for r in self.reps
                if not r["setup_only"] and r["traced"] == traced]


def run_reps(runner: Runner, seconds: float, trace: bool) -> None:
    start = time.monotonic()
    if trace:
        runner.spawn(traced=False)
    while True:
        runner.spawn(traced=trace)
        walls = [r["wall_s"] for r in runner.jobs(trace)]
        if time.monotonic() - start + statistics.median(walls) > seconds:
            break
    while not trace and len(runner.reps) < MIN_SETUPS:
        runner.spawn(setup_only=True)


def cross_checks(runner: Runner, key: str) -> list:
    """Checks that span repetitions, and runs of the same seed."""
    jobs = runner.jobs(False) + runner.jobs(True)
    checks = [("outputs identical across repetitions"
               + (" and with tracing" if runner.jobs(True) else ""),
               all(r["digests"] == jobs[0]["digests"] for r in jobs))]
    traced = runner.jobs(True)
    if len(traced) > 1:
        checks.append(("exact counts repeat across traced repetitions",
                       all(r["exact_counts"] == traced[0]["exact_counts"]
                           for r in traced)))
    # Earlier runs of the same program, workload and seed in this tree.
    seen_file = WORK / "seen" / f"{key}.json"
    seen = {}
    if seen_file.is_file():
        seen = json.loads(seen_file.read_text())
    now = {"digests": jobs[0]["digests"]}
    if traced:
        now["exact_counts"] = traced[0]["exact_counts"]
    for field, value in now.items():
        if field in seen:
            checks.append((f"{field} identical to earlier runs of this seed",
                           seen[field] == value))
    if all(ok for _, ok in checks):
        seen_file.parent.mkdir(parents=True, exist_ok=True)
        seen_file.write_text(json.dumps({**seen, **now}, sort_keys=True))
    return checks


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full record as JSON here")
    args = ap.parse_args(argv)

    if not (SRC / "vistakit" / "__init__.py").is_file():
        print(f"error: no vistakit sources under {SRC}; run from the root "
              "of a vistakit source tree", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    run_dir = WORK / (f"{args.workload}-s{args.seed}-t{args.trace}-"
                      f"{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = Runner(args.workload, args.seed, run_dir)
    try:
        run_reps(runner, args.seconds, trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    key = f"{args.workload}-s{args.seed}-{source_digest()[:16]}"
    checks = cross_checks(runner, key)
    untraced, traced = runner.jobs(False), runner.jobs(True)
    attempted = sum(r["checks"] for r in untraced + traced) + len(checks)
    failures = [name for r in untraced + traced for name in r["failed_checks"]]
    failures += [name for name, ok in checks if not ok]
    for r in untraced + traced:
        for fc in r["failed_commands"]:
            print(f"command failed: {' '.join(fc['argv'])} -> exit "
                  f"{fc['exit']}\n{fc['error'] or fc['stdout']}",
                  file=sys.stderr)

    def median_of(reps, pick):
        return statistics.median(pick(r) for r in reps)

    info = machine_info()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(untraced)} untraced and {len(traced)} traced "
          f"repetition(s), one client, closed loop")
    print("machine " + json.dumps(info, sort_keys=True))
    for i, r in enumerate(runner.reps):
        kind = ("set-up only" if r["setup_only"]
                else "traced" if r["traced"] else "untraced")
        line = f"  rep {i} ({kind}): setup_s={r['setup_s']:.4f}"
        if not r["setup_only"]:
            line += (f" job_s={r['job_s']:.4f} machine.probe_s="
                     f"{r['probe_s']:.4f}")
        print(line)

    if trace:
        metrics = {name: median_of(traced, lambda r, n=name: r["layers"][n])
                   for name in traced[0]["layers"]}
        metrics["trace.overhead_ratio"] = (
            median_of(traced, lambda r: r["job_s"])
            / median_of(untraced, lambda r: r["job_s"]))
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = {
            "job_s": median_of(untraced, lambda r: r["job_s"]),
            "setup_s": median_of(runner.reps, lambda r: r["setup_s"]),
            "peak_rss_mb": median_of(untraced, lambda r: r["peak_rss_mb"]),
        }
        units = END_TO_END_UNITS
        counts = {"job_s": len(untraced), "setup_s": len(runner.reps),
                  "peak_rss_mb": len(untraced)}
        for sub in untraced[0]["command_s"]:
            value = median_of(untraced, lambda r: r["command_s"][sub])
            print(f"{sub}_s = {value:.4f} s (median of {len(untraced)}; "
                  "not gated)")
        for name, value in metrics.items():
            print(f"{name} = {value:.4f} {units[name]} "
                  f"(median of {counts[name]})")
    if trace:
        for name, value in metrics.items():
            shown = int(value) if units[name] == "count" else f"{value:.6g}"
            print(f"{name} = {shown} {units[name]}")
    print(f"ops_failed_ratio = {len(failures)}/{attempted} = "
          f"{len(failures) / attempted:.4f}")
    for name in failures:
        print(f"check failed: {name}")

    record = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    if args.out:
        full = dict(record, workload=args.workload, seed=args.seed,
                    trace=args.trace, seconds=args.seconds, machine=info,
                    failures=failures,
                    repetitions=[{k: v for k, v in r.items()
                                  if k not in ("digests", "exact_counts",
                                               "vistakit", "setup_end")}
                                 for r in runner.reps])
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(full, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
