"""Clearance and the rules read channel columns: held to the
record-walking reference in ``clearance_reference.py``.

Every clearance series must equal the reference's ``repr`` for ``repr``,
sample by sample (the lazily computed separation and NTD included) and
note for note, or raise the same error.  Every run evaluation must equal
the reference evaluator's, verdicts and notes alike.  Each trace is
evaluated as columns (fresh from the reader, the synthesizer or
``Channel`` columns) and as records.
"""

import math
import shutil
import warnings
from dataclasses import replace

import numpy as np
import pytest

import clearance_reference as reference
from vistakit import cli, clearance, rules, synth
from vistakit.errors import ExtentExceeded
from vistakit.frames import LocalFrame
from vistakit.clearance import ClearanceSeries
from vistakit.model import (
    ActorState,
    BoundingShape,
    GeoPosition,
    ObstacleState,
    Trace,
    TrafficControllerState,
    VcsPosition,
)
from vistakit.rules import NO_ENTITY_NOTE, RuleSet, StopLine, evaluate_run
from vistakit.trace_io import parse_trace, write_distributed, write_flat

from conftest import BASE, random_trace, straight_vut_series
from test_columnar_trace import _columns_only, _from_columns
from test_kernel import mixed_trace
from test_reader_fuzz import _rich_trace, mutate


def _outcome(fn, *args):
    """repr of what fn returns, or the type and text of what it raises."""
    try:
        return repr(fn(*args))
    except Exception as exc:            # the reference raises it too
        return f"raised {type(exc).__name__}: {exc}"


def _series(fn, trace, eid):
    """Each sample with its separation and NTD, and the notes."""
    series = fn(trace, eid)
    return [(s, s.euclidean_min, s.ntd) for s in series.samples], \
        series.notes, series.min_lateral(), series.min_longitudinal()


def _evaluation(fn, trace, ruleset):
    ev = fn(trace, ruleset)
    return ev, ev.to_dict(), [_series(lambda t, e, s=s: s, trace, s.entity_id)
                              for s in ev.series]


def assert_like_reference(trace, ruleset=None):
    """The columnar series and evaluation of trace, fresh from its
    columns and made from its records, equal the reference's."""
    entity_ids = [*trace.channels("actors"), *trace.channels("obstacles")]

    def outcomes(series, classify, evaluate, trace):
        return [_outcome(series, trace, eid) for eid in entity_ids] + [
            _outcome(classify, trace, eid, ruleset) for eid in entity_ids] + [
            _outcome(_evaluation, evaluate, trace, ruleset)]

    def series(fn):
        return lambda trace, eid: _series(fn, trace, eid)

    package = (series(clearance.clearance_series),
               rules.classify_lateral_context, rules.evaluate_run)
    columnar = _from_columns(trace)
    got = outcomes(*package, columnar)
    assert _columns_only(columnar)
    want = outcomes(series(reference.clearance_series),
                    reference.classify_lateral_context,
                    reference.evaluate_run, trace)
    assert got == want
    assert outcomes(*package, trace) == want


# About 66 km north of BASE: beyond the reach of a frame near it.
FAR = GeoPosition(BASE.lat + 0.6, BASE.lon)


def _stop_lines(trace) -> RuleSet:
    """A rule set with a stop line for each controller of trace, in turn
    at BASE, out of the VUT's frame's reach and just north of BASE, each
    at its own heading."""
    places = (BASE, FAR, GeoPosition(BASE.lat + 1e-4, BASE.lon))
    return replace(RuleSet(), stop_lines={
        cid: StopLine(places[k % 3], float(100 * k % 360))
        for k, cid in enumerate(sorted(trace.channels("controllers")))})


@pytest.mark.parametrize("rate", [10.0, 100.0])
@pytest.mark.parametrize("case", [1, 2, 3])
def test_stock_cases_match_reference(tmp_path, case, rate):
    spec = synth.ScenarioSpec(sample_rate=rate)
    runs = synth.synthesize_runs(spec, case, count=2, speed_noise=0.05,
                                 seed=case)
    for trace in runs:
        assert_like_reference(trace)
    parsed, rep = parse_trace(write_flat(runs[1], tmp_path))
    assert rep.ok
    assert_like_reference(parsed)


def test_mixed_trace_matches_reference():
    assert_like_reference(mixed_trace())


@pytest.mark.parametrize("seed", range(40))
def test_random_traces_match_reference(seed):
    trace = random_trace(np.random.default_rng(seed))
    assert_like_reference(trace, _stop_lines(trace))


def _odd_trace() -> Trace:
    """Corner cases the random traces miss: one actor whose positions and
    outlines change frame from step to step, one with no outline at all
    and an unknown type, a pedestrian with and without a heading, an
    obstacle whose outline degenerates, and a controller crossed at a
    step with no phase logged."""
    trace = random_trace(np.random.default_rng(5))
    vut = trace.vut
    frame = LocalFrame.at(vut[0].pos)
    quad = [(-1.0, -0.5), (1.0, -0.5), (1.0, 0.5), (-1.0, 0.5)]

    def actor(k, r, **kw):
        return ActorState(**{
            "time": r.time, "step": r.step, "actor_id": "MIX",
            "actor_type": "tsv", "pos": frame.from_local(3.0, 5.0 + k),
            "bbox_true": None, "speed": 1.0, "vel_lat": 0.0,
            "vel_long": 1.0, "acc_lat": 0.0, "acc_long": 0.0,
            "ttc": math.inf, "heading": 45.0, **kw})

    mix = []
    for k, r in enumerate(vut):
        if k % 3 == 0:
            mix.append(actor(k, r, pos=VcsPosition(4.0, -2.0), bbox_true=(
                BoundingShape("vcs", tuple(VcsPosition(x + 4.0, y - 2.0)
                                           for x, y in quad)))))
        elif k % 3 == 1:
            mix.append(actor(k, r, bbox_true=BoundingShape("wgs84", tuple(
                frame.from_local(x + 3.0, y + 5.0 + k) for x, y in quad))))
        else:
            mix.append(actor(k, r, heading=None, speed=0.0, vel_long=0.0))
    bare = tuple(actor(k, r, actor_id="BARE", actor_type="robot",
                       heading=None) for k, r in enumerate(vut))
    ped = tuple(actor(k, r, actor_id="PED", actor_type="vru_pedestrian",
                      heading=None if k % 4 == 0 else float(37 * k % 360))
                for k, r in enumerate(vut))
    # Moving with no heading logged: sideways only, or by speed only.
    slide = tuple(actor(k, r, actor_id="SLIDE", heading=None, speed=0.0,
                        vel_lat=0.3, vel_long=0.0) for k, r in enumerate(vut))
    roll = tuple(actor(k, r, actor_id="ROLL", heading=None, vel_long=0.0)
                 for k, r in enumerate(vut))
    flat = BoundingShape("wgs84", tuple(
        GeoPosition(BASE.lat + 1e-4, BASE.lon + d) for d in (0.0, 1e-5, 2e-5)))
    box = BoundingShape("wgs84", tuple(frame.from_local(x, y + 8.0)
                                       for x, y in quad))
    cone = tuple(ObstacleState(
        time=r.time, step=r.step, obstacle_id="CONE", obst_type=120,
        pos=BASE, poly_true=flat if k % 2 else box, ntd=math.inf)
        for k, r in enumerate(vut))
    late = tuple(TrafficControllerState(time=r.time, step=r.step,
                                        controller_id="TL1", phase="stop")
                 for r in vut[len(vut) // 2:])
    return replace(trace, actors={"MIX": tuple(mix), "BARE": bare,
                                  "PED": ped, "SLIDE": slide, "ROLL": roll},
                   obstacles={"CONE": cone}, controllers={"TL1": late})


def test_corner_cases_match_reference():
    trace = _odd_trace()
    for heading in (0.0, 90.0, 180.0, 270.0):
        assert_like_reference(trace, replace(RuleSet(), stop_lines={
            "TL1": StopLine(trace.vut[len(trace.vut) // 3].pos, heading)}))


def _vcs_actor(aid, atype, k, y, heading, speed, width):
    """A VCS actor of the given width, 1.8 m long, abreast of the VUT at
    step k, its centre y m to the right."""
    box = tuple(VcsPosition(x, y + d) for x, d in (
        (0.9, -width / 2), (0.9, width / 2), (-0.9, width / 2),
        (-0.9, -width / 2)))
    return ActorState(
        time=k * 0.1, step=k, actor_id=aid, actor_type=atype,
        pos=VcsPosition(0.0, y), bbox_true=BoundingShape("vcs", box),
        speed=speed, vel_lat=0.0, vel_long=speed, acc_lat=0.0, acc_long=0.0,
        ttc=math.inf, heading=heading)


def test_verdict_corners_match_reference():
    """Actors that close the gap themselves, with and without contact,
    and a pedestrian whose facing, and so its threshold, changes from
    step to step: the worst sample is the one furthest under its own
    threshold, not the smallest gap."""
    # Lateral gaps (the VUT is 1.8 m wide): 1.8, 1.3, 0.8, 0.3, 0.0, -0.2;
    # NEAR stops 0.05 m short.
    cut = [3.0, 2.5, 2.0, 1.5, 1.2, 1.0]
    # 1.2 m facing the traffic (threshold 1.0), 1.3 m facing away (1.5).
    ped = [(4.0, 0.0), (2.35, 180.0), (2.45, 0.0), (4.0, 180.0), (4.0, 0.0),
           (4.0, 180.0)]
    actors = {
        "CUT": [_vcs_actor("CUT", "vru_cyclist", k, y, 270.0, 2.0, 0.6)
                for k, y in enumerate(cut)],
        "NEAR": [_vcs_actor("NEAR", "vru_cyclist", k, y, 270.0, 2.0, 0.6)
                 for k, y in enumerate(cut[:4] + [1.25])],
        "PED": [_vcs_actor("PED", "vru_pedestrian", k, y, h, 0.0, 0.5)
                for k, (y, h) in enumerate(ped)],
    }
    trace = Trace("TC-CORNERS", 1, straight_vut_series(len(cut)),
                  actors={k: tuple(v) for k, v in actors.items()})
    assert_like_reference(trace)
    outcomes = {v.rule: (v.outcome, v.measured)
                for v in evaluate_run(trace).verdicts}
    assert outcomes["lateral_clearance[CUT]"][0] == rules.FAIL
    assert outcomes["lateral_clearance[NEAR]"][0] == rules.WARNING
    assert outcomes["lateral_clearance[PED]"] == (
        rules.FAIL, pytest.approx(1.3))
    # A series made from samples: every other sample of the pedestrian's.
    full = reference.clearance_series(trace, "PED")
    part = ClearanceSeries("PED", full.samples[1::2], full.notes)
    assert rules.evaluate_clearances(trace, part, RuleSet()) == \
        reference.evaluate_clearances(trace, part, RuleSet())
    assert part.min_lateral() == min(s.lateral for s in part.samples)


def test_far_points_fail_like_reference():
    """A vertex, or a default footprint's centre, beyond the frame's
    reach raises for the first step that uses it, as the reference: a
    late outline, then an earlier centre, then a still earlier outline
    are moved out of reach in turn."""
    trace = _odd_trace()
    mix = list(trace.actors["MIX"])
    late = max(k for k in range(len(mix)) if k % 3 == 1)
    for k in (late, 2, 1):
        shape = mix[k].bbox_true
        if shape is not None:
            mix[k] = replace(mix[k], bbox_true=BoundingShape(
                "wgs84", shape.vertices[:2] + (FAR,) + shape.vertices[3:]))
        else:
            mix[k] = replace(mix[k], pos=FAR)
        far = replace(trace, actors={**trace.actors, "MIX": tuple(mix)})
        assert_like_reference(far)
        with pytest.raises(ExtentExceeded, match=f"^point {FAR.lat}"):
            clearance.clearance_series(far, "MIX")


def test_evaluate_fuzz_matches_reference(tmp_path):
    """Reader-fuzz mutants that parse to a trace: evaluate_run and
    to_dict raise nothing, with RuntimeWarning an error, and give the
    reference evaluator's verdicts and notes."""
    trace = _rich_trace()
    rng = np.random.default_rng(7)
    accepted = 0
    for layout, write in (("flat", write_flat),
                          ("distributed", write_distributed)):
        valid = write(trace, tmp_path / layout / "valid")
        files = [valid] if valid.is_file() else sorted(valid.iterdir())
        for i in range(150):
            target = tmp_path / layout / f"m{i}" / valid.name
            if valid.is_file():
                target.parent.mkdir(parents=True)
            else:
                shutil.copytree(valid, target)
            victim = files[int(rng.integers(len(files)))]
            path = target / victim.name if target.is_dir() else target
            path.write_bytes(mutate(victim.read_bytes(), rng))
            mutant, _ = parse_trace(target)
            if mutant is None:
                continue
            accepted += 1
            ruleset = _stop_lines(mutant)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                got = rules.evaluate_run(mutant, ruleset)
                got_dict = got.to_dict()
            want = reference.evaluate_run(mutant, ruleset)
            assert (got.verdicts, got.notes) == (want.verdicts, want.notes)
            assert repr(got) == repr(want)
            assert got_dict == want.to_dict(), (layout, i)
    assert accepted >= 60


def _cut_to_header(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
    path.write_text(header, encoding="utf-8")


def test_run_without_entities_says_so(tmp_path, capsys):
    """A run whose entity files hold only their header passes, as before,
    but with a note that no clearance rule was applied."""
    runs = tmp_path / "runs"
    assert cli.main(["generate", "--case", "2", "--runs", "1", "--layout",
                     "distributed", "--out", str(runs)]) == 0
    (run,) = runs.iterdir()
    cut = [p for p in run.iterdir() if not p.name.startswith("VUT")]
    assert cut
    for path in cut:
        _cut_to_header(path)
    trace, rep = parse_trace(run)
    assert rep.ok and not trace.channels("actors")
    capsys.readouterr()
    assert cli.main(["evaluate", str(runs), "--n-required", "1"]) == 0
    out = capsys.readouterr().out
    assert "  run 1: PASS\n" in out
    assert f"    note: {NO_ENTITY_NOTE}\n" in out
    ev = evaluate_run(trace)
    assert ev.passed and ev.notes == (NO_ENTITY_NOTE,)
    assert [v.rule for v in ev.verdicts] == ["speed_limit",
                                             "hard_deceleration"]


def test_fixed_infrastructure_alone_says_so():
    trace = synth.synthesize(case=1)
    tsv = trace.actors["TSV-01"]
    post = tuple(ObstacleState(time=r.time, step=r.step, obstacle_id="POST",
                               obst_type=730, pos=r.pos,
                               poly_true=r.bbox_true, ntd=math.inf)
                 for r in tsv)
    ev = evaluate_run(replace(trace, actors={}, obstacles={"POST": post}))
    assert ev.notes == ("POST: fixed infrastructure, clearance rules not "
                        "applied", NO_ENTITY_NOTE)
    # A run with an entity to measure has no such note.
    assert NO_ENTITY_NOTE not in evaluate_run(trace).notes
