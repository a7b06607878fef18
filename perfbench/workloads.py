"""The three benchmark workloads: inputs, command lists and output checks.

A workload is a batch job run by one client in a closed loop: each
``vista`` command starts when the previous one has returned.  ``setup``
builds, from the seed alone, every input that no timed command builds;
``commands`` lists the timed commands; ``check`` inspects their exit
codes, captured stdout and files and returns one entry per check made.
"""

from __future__ import annotations

import dataclasses
import json
import random
from pathlib import Path

from vistakit import schema, synth, trace_io
from vistakit.frames import LocalFrame
from vistakit.model import BoundingShape

TESTCASE = synth.ScenarioSpec().testcase_id


@dataclasses.dataclass(frozen=True)
class Command:
    label: str           # subcommand name, used for the per-subcommand times
    argv: list
    expected_exit: int


def _no_error_findings(stdout: str) -> bool:
    return not any(line.split(": ", 1)[-1].startswith("ERROR ")
                   for line in stdout.splitlines())


def _read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# worked-cases: acceptance criterion 1, the job users run to get a verdict.

WORKED_TARGETS = {1: (0.21, False), 2: (0.52, False), 3: (1.53, True)}


def worked_setup(work: Path, seed: int) -> dict:
    return {}


def worked_commands(work: Path, seed: int, ctx: dict) -> list:
    cmds = []
    for case, (_, passes) in WORKED_TARGETS.items():
        runs, out = work / f"case{case}" / "runs", work / f"case{case}" / "out"
        cmds += [
            Command("generate", ["generate", "--case", str(case),
                                 "--runs", "10", "--speed-noise", "0.05",
                                 "--seed", str(seed), "--out", str(runs)], 0),
            Command("validate", ["validate", str(runs)], 0),
            Command("evaluate", ["evaluate", str(runs), "--out", str(out)],
                    0 if passes else 1),
        ]
    return cmds


def worked_check(work: Path, seed: int, ctx: dict, results: list) -> list:
    checks = []
    for cmd, res in zip(worked_commands(work, seed, ctx), results):
        if cmd.label == "validate":
            ok_lines = sum(line.startswith("OK ")
                           for line in res.stdout.splitlines())
            checks.append((f"{cmd.argv[1]}: ten runs OK, no ERROR findings",
                           _no_error_findings(res.stdout) and ok_lines == 10))
    for case, (target, passes) in WORKED_TARGETS.items():
        name = f"case {case} summary"
        try:
            summary = _read_json(work / f"case{case}" / "out"
                                 / f"{TESTCASE}_summary.json")
            lateral = [s["min"] for s in summary["spreads"]
                       if s["rule"].startswith("lateral_clearance[")]
            ok = (summary["passed"] is passes and summary["run_count"] == 10
                  and len(lateral) == 1 and abs(lateral[0] - target) <= 0.01)
        except (OSError, ValueError, KeyError):
            ok = False
        checks.append((f"{name}: {'PASS' if passes else 'FAIL'}, lateral "
                       f"minimum {target} m", ok))
    return checks


# ---------------------------------------------------------------------------
# dense-scene: six entities per run, evaluation scaled by entity, --series.

# (id, type, east offset m, north offset m, heading override, expected
# lateral outcome).  Offsets move a clone of the stock parked vehicle; the
# margins to each threshold are at least 0.2 m, far beyond the VUT jitter.
DENSE_ENTITIES = (
    ("TSV-02", "tsv", 4.0, -50.0, None, "pass"),
    ("TSV-03", "tsv", -3.0, -60.0, None, "pass"),
    ("PED-01", "vru_pedestrian", 3.4, -30.0, 180.0, "pass"),
    ("CYC-01", "vru_cyclist", 3.0, 50.0, None, "fail"),
    ("PMD-01", "vru_pmd", 4.2, -20.0, None, "fail"),
)
DENSE_EXPECTED = {"TSV-01": "fail",
                  **{e[0]: e[5] for e in DENSE_ENTITIES}}
DENSE_POS_SIGMA = 0.02


def _shifted(frame: LocalFrame, pos, de: float, dn: float):
    e, n = frame.to_local(pos)
    return frame.from_local(e + de, n + dn)


def dense_scene():
    """Case 1 with five clones of the parked vehicle beside the stock one."""
    spec = synth.ScenarioSpec()
    base = synth.synthesize(spec, 1)
    frame = LocalFrame.at(spec.origin)
    stock = base.actors["TSV-01"]
    actors = dict(base.actors)
    for aid, atype, de, dn, heading, _ in DENSE_ENTITIES:
        actors[aid] = tuple(
            dataclasses.replace(
                r, actor_id=aid, actor_type=atype,
                pos=_shifted(frame, r.pos, de, dn),
                bbox_true=BoundingShape("wgs84", tuple(
                    _shifted(frame, v, de, dn) for v in r.bbox_true.vertices)),
                heading=r.heading if heading is None else heading)
            for r in stock)
    return dataclasses.replace(base, actors=actors)


def dense_setup(work: Path, seed: int) -> dict:
    """Two runs of the scene, each with its own VUT position jitter."""
    scene = dense_scene()
    for run_id in (1, 2):
        run = synth.perturb(dataclasses.replace(scene, run_id=run_id),
                            pos_sigma=DENSE_POS_SIGMA,
                            seed=seed * 1000 + run_id)
        trace_io.write_flat(run, work / "runs")
    return {"steps": len(scene.vut)}


def dense_commands(work: Path, seed: int, ctx: dict) -> list:
    runs, out = work / "runs", work / "out"
    return [
        Command("validate", ["validate", str(runs), "--n-required", "2"], 0),
        Command("evaluate", ["evaluate", str(runs), "--n-required", "2",
                             "--out", str(out), "--series"], 1),
    ]


def dense_check(work: Path, seed: int, ctx: dict, results: list) -> list:
    checks = [("validate: no ERROR findings",
               _no_error_findings(results[0].stdout))]
    out = work / "out"
    try:
        ok = _read_json(out / f"{TESTCASE}_summary.json")["passed"] is False
    except (OSError, ValueError, KeyError):
        ok = False
    checks.append(("summary: FAIL", ok))
    for run_id in (1, 2):
        stem = out / f"{TESTCASE}_r{run_id:02d}"
        try:
            verdicts = _read_json(Path(f"{stem}_verdict.json"))["verdicts"]
            got = {v["rule"][len("lateral_clearance["):-1]: v["outcome"]
                   for v in verdicts
                   if v["rule"].startswith("lateral_clearance[")}
            ok = got == DENSE_EXPECTED
        except (OSError, ValueError, KeyError):
            ok = False
        checks.append((f"run {run_id}: lateral outcome per entity", ok))
        try:
            with open(f"{stem}_series.csv", encoding="utf-8") as fh:
                rows = sum(1 for _ in fh)
            ok = rows == 1 + len(DENSE_EXPECTED) * ctx["steps"]
        except OSError:
            ok = False
        checks.append((f"run {run_id}: one series row per step and entity",
                       ok))
    return checks


# ---------------------------------------------------------------------------
# ingest-100hz: write then read at 100 Hz, fidelity against references.

INGEST_RUNS = 4
INGEST_SPEC = synth.ScenarioSpec(sample_rate=100.0)
INGEST_POS_SIGMA = 0.05
OFFSET_TOLERANCE = 0.05


def ingest_shifts(seed: int) -> list:
    rng = random.Random(seed)
    return [round(rng.uniform(0.5, 2.5), 2) for _ in range(INGEST_RUNS)]


def ingest_setup(work: Path, seed: int) -> dict:
    """Reference recordings of the runs that ``generate`` will write."""
    runs = synth.synthesize_runs(INGEST_SPEC, 2, count=INGEST_RUNS,
                                 speed_noise=0.05, seed=seed)
    shifts = ingest_shifts(seed)
    refs = []
    for trace, shift in zip(runs, shifts):
        ref = synth.perturb(trace, pos_sigma=INGEST_POS_SIGMA,
                            time_shift=shift, seed=seed * 1000 + trace.run_id)
        refs.append(str(trace_io.write_flat(ref, work / "refs")))
    return {"shifts": shifts, "refs": refs}


def ingest_commands(work: Path, seed: int, ctx: dict) -> list:
    runs = work / "runs"
    cmds = [
        Command("generate", ["generate", "--case", "2", "--rate", "100",
                             "--runs", str(INGEST_RUNS), "--layout",
                             "distributed", "--speed-noise", "0.05",
                             "--seed", str(seed), "--out", str(runs)], 0),
        Command("validate", ["validate", str(runs), "--n-required",
                             str(INGEST_RUNS)], 0),
    ]
    for run_id, ref in enumerate(ctx["refs"], start=1):
        run_dir = runs / schema.dir_name(TESTCASE, run_id)
        cmds.append(Command("fidelity", ["fidelity", str(run_dir), ref], 0))
    return cmds


def ingest_check(work: Path, seed: int, ctx: dict, results: list) -> list:
    checks = [("validate: no ERROR findings",
               _no_error_findings(results[1].stdout))]
    for i, (shift, res) in enumerate(zip(ctx["shifts"], results[2:]), 1):
        fields = dict(tok.split("=", 1) for tok in res.stdout.split()
                      if "=" in tok)
        try:
            ok = abs(float(fields["offset_s"]) - shift) <= OFFSET_TOLERANCE
        except (KeyError, ValueError):
            ok = False
        checks.append((f"run {i}: fidelity offset within "
                       f"{OFFSET_TOLERANCE} s of {shift} s", ok))
    return checks


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: object
    commands: object
    check: object


WORKLOADS = {w.name: w for w in (
    Workload("worked-cases",
             "acceptance criterion 1: generate, validate and evaluate ten "
             "runs of each stock case; evaluation dominates",
             worked_setup, worked_commands, worked_check),
    Workload("dense-scene",
             "six entities per run and evaluate --series: evaluation scaled "
             "by entity, the flat multi-group header and NTD output",
             dense_setup, dense_commands, dense_check),
    Workload("ingest-100hz",
             "100 Hz distributed write, parse and fidelity with no "
             "clearance work",
             ingest_setup, ingest_commands, ingest_check),
)}
