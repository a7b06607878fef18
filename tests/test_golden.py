"""Byte-for-byte reference outputs of small generate and evaluate jobs.

``data/golden`` holds what ``vista evaluate --series`` wrote and printed
for two noisy runs of case 1, as produced by the per-step clearance code
that preceded the batched kernel.  ``data/golden/generate_sha256.json``
holds the SHA-256 of every file written by the ``generate`` jobs in
``GENERATE_JOBS`` and by ``write_distributed`` of :func:`edge_trace`, as
produced by the per-step first-contact code and the record-scanning
distributed writer.  Refactors that must not change any output keep
these tests green; a deliberate output change regenerates the sets (for
the digests, ``generate_digests`` into the JSON file) and says so.
"""

import hashlib
import json
import math
from pathlib import Path

from vistakit import cli, trace_io
from vistakit.frames import LocalFrame
from vistakit.model import (
    ActorState,
    ObstacleState,
    Trace,
    TrafficControllerState,
)

from conftest import BASE, geo_quad, simple_vut

GOLDEN = Path(__file__).parent / "data" / "golden"
STDOUT = "evaluate_stdout.txt"
DIGESTS = GOLDEN / "generate_sha256.json"
IO_GOLDEN = "io_golden.json"  # tests/test_io_golden.py

GENERATE_JOBS = [
    ["--case", str(case), "--runs", "2", "--speed-noise", "0.05",
     "--seed", "7"] for case in (1, 2, 3)
] + [
    ["--case", "2", "--rate", "100", "--runs", "1", "--layout",
     "distributed"],
    ["--case", "1", "--runs", "2", "--speed-noise", "0.05", "--seed", "7",
     "--target-clearance", "0.3"],
]
EDGE_KEY = "write_distributed edge_trace"


def test_evaluate_outputs_match_golden_set(tmp_path, capsys):
    runs, out = tmp_path / "runs", tmp_path / "out"
    assert cli.main(["generate", "--case", "1", "--runs", "2",
                     "--speed-noise", "0.05", "--seed", "7",
                     "--out", str(runs)]) == 0
    capsys.readouterr()
    assert cli.main(["evaluate", str(runs), "--n-required", "2",
                     "--out", str(out), "--series"]) == 1
    assert capsys.readouterr().out.encode() == (GOLDEN / STDOUT).read_bytes()

    expected = sorted(p.name for p in GOLDEN.iterdir()
                      if p.name not in (STDOUT, DIGESTS.name, IO_GOLDEN))
    assert sorted(p.name for p in out.iterdir()) == expected
    for name in expected:
        assert (out / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def edge_trace() -> Trace:
    """A run that exercises every ordering rule of the distributed writer.

    Two actors with interleaved and missing steps (one perceived bbox),
    an obstacle with one perceived outline, a traffic controller, a
    duplicated VUT step and an actor record off the VUT clock.  The last
    two are not valid traces, so they are set after validation.
    """
    frame = LocalFrame.at(BASE)
    steps = [0, 1, 2, 3, 4]
    vut = tuple(simple_vut(k, k * 0.1) for k in steps)

    def actor(aid, k, de, perceived=False):
        box = geo_quad(frame, de, 5.0 + k, 0.4, 0.9)
        return ActorState(
            time=k * 0.1, step=k, actor_id=aid, actor_type="vru_cyclist",
            pos=frame.from_local(de, 5.0 + k), bbox_true=box, speed=1.5,
            vel_lat=0.0, vel_long=1.5, acc_lat=0.0, acc_long=0.0,
            ttc=math.inf if k % 2 else 2.5 + k, heading=0.0,
            bbox_perceived=geo_quad(frame, de, 5.1 + k, 0.5, 1.0)
            if perceived else None)

    actors = {
        "CYC-B": tuple(actor("CYC-B", k, 2.0) for k in (1, 2, 4)),
        "CYC-A": tuple(actor("CYC-A", k, -2.0, perceived=k == 3)
                       for k in (0, 1, 3, 4)),
    }
    cone = tuple(ObstacleState(
        time=k * 0.1, step=k, obstacle_id="CONE-1", obst_type=100,
        pos=frame.from_local(1.0, 9.0),
        poly_true=geo_quad(frame, 1.0, 9.0, 0.3, 0.3), ntd=0.5 * k,
        poly_perceived=geo_quad(frame, 1.0, 9.1, 0.3, 0.3) if k == 2
        else None) for k in (0, 2, 3))
    light = tuple(TrafficControllerState(
        time=k * 0.1, step=k, controller_id="TL-1",
        phase="go" if k < 3 else "stop") for k in steps)
    trace = Trace("TC-EDGE-01", 1, vut, actors=actors,
                  obstacles={"CONE-1": cone}, controllers={"TL-1": light})
    object.__setattr__(trace, "vut", vut[:3] + vut[2:])
    object.__setattr__(trace, "actors", {
        **actors, "CYC-B": actors["CYC-B"] + (actor("CYC-B", 7, 2.0),)})
    return trace


def _sha256_tree(root: Path) -> dict:
    return {p.relative_to(root).as_posix():
            hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def generate_digests(work: Path) -> dict:
    """SHA-256 of every file the pinned jobs write, keyed by job."""
    out = {}
    for i, args in enumerate(GENERATE_JOBS):
        target = work / f"job{i}"
        assert cli.main(["generate", *args, "--out", str(target)]) == 0
        out["generate " + " ".join(args)] = _sha256_tree(target)
    trace_io.write_distributed(edge_trace(), work / "edge")
    out[EDGE_KEY] = _sha256_tree(work / "edge")
    return out


def test_generate_outputs_match_golden_digests(tmp_path, capsys):
    assert generate_digests(tmp_path) == json.loads(DIGESTS.read_text())


def test_edge_trace_rows_follow_the_vut_clock(tmp_path):
    folder = trace_io.write_distributed(edge_trace(), tmp_path)
    rows = (folder / "Environment_actors_true.csv").read_text().splitlines()
    order = [(r.split(",")[1], r.split(",")[2]) for r in rows[1:]]
    # VUT step order, then actor insertion order; step 2 is written for
    # each of its two VUT rows and step 7 is off the clock.
    assert order == [("0", "CYC-A"), ("1", "CYC-B"), ("1", "CYC-A"),
                     ("2", "CYC-B"), ("2", "CYC-B"), ("3", "CYC-A"),
                     ("4", "CYC-B"), ("4", "CYC-A")]

