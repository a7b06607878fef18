import json
import math

import pytest

from vistakit.clearance import DEFAULT_FOOTPRINTS, clearance_series
from vistakit.errors import MalformedRules
from vistakit.frames import LocalFrame
from vistakit.model import (
    ActorState,
    GeoPosition,
    ObstacleState,
    Trace,
    TrafficControllerState,
    VcsPosition,
)
from vistakit.rules import (
    ATTR_OTHER,
    ATTR_VUT,
    CYCLIST,
    FAIL,
    MOVING_TSV,
    NOT_APPLICABLE,
    PASS,
    PED_FACING_AWAY,
    PED_FACING_TRAFFIC,
    ROAD_USER_OTHER,
    STATIC_OBSTACLE,
    STOPPED_VEHICLE,
    WARNING,
    RuleSet,
    StopLine,
    aggregate,
    classify_lateral_context,
    evaluate_run,
    load_rules,
    render_text,
    ruleset_for,
)

from conftest import BASE, geo_quad, straight_vut_series, simple_vut


def _tsv(step, y, x=0.0, speed=0.0, vel_long=0.0, heading=None,
         actor_type="tsv", actor_id="A1"):
    return ActorState(time=step * 0.1, step=step, actor_id=actor_id,
                      actor_type=actor_type, pos=VcsPosition(x, y),
                      bbox_true=None, speed=speed, vel_lat=0.0,
                      vel_long=vel_long, acc_lat=0.0, acc_long=0.0,
                      ttc=math.inf, heading=heading)


def _abreast_trace(gap, count=5, actor_type="tsv", speed=0.0,
                   testcase_id="TC-R-01", run_id=1, vut_speed=5.0):
    vut = straight_vut_series(count, speed=vut_speed)
    half_w = DEFAULT_FOOTPRINTS[actor_type][1] / 2.0
    y = 0.9 + gap + half_w
    recs = tuple(_tsv(k, y, speed=speed, vel_long=speed,
                      heading=0.0 if speed else None,
                      actor_type=actor_type)
                 for k in range(count))
    return Trace(testcase_id, run_id, vut, actors={"A1": recs})


def test_context_static_obstacle():
    frame = LocalFrame.at(BASE)
    vut = straight_vut_series(2)
    poly = geo_quad(frame, 4.0, 5.0, 0.5, 0.5)
    recs = tuple(
        ObstacleState(time=k * 0.1, step=k, obstacle_id="O1", obst_type=100,
                      pos=frame.from_local(4.0, 5.0), poly_true=poly,
                      ntd=math.inf)
        for k in range(2)
    )
    t = Trace("TC-CTX-01", 1, vut, obstacles={"O1": recs})
    ctx, notes = classify_lateral_context(t, "O1")
    assert set(ctx.values()) == {STATIC_OBSTACLE}
    assert notes == []


def test_context_stopped_vs_moving_vehicle():
    t = _abreast_trace(2.0)
    ctx, _ = classify_lateral_context(t, "A1")
    assert set(ctx.values()) == {STOPPED_VEHICLE}

    # One step at exactly the 0.1 m/s epsilon makes the whole run a
    # moving vehicle.
    vut = straight_vut_series(3)
    recs = (_tsv(0, 3.0), _tsv(1, 3.0, speed=0.1), _tsv(2, 3.0))
    t = Trace("TC-CTX-02", 1, vut, actors={"A1": recs})
    ctx, _ = classify_lateral_context(t, "A1")
    assert set(ctx.values()) == {MOVING_TSV}


def test_context_pedestrian_orientation():
    vut = straight_vut_series(4)  # heading 0 (north)
    recs = (
        _tsv(0, 4.0, actor_type="vru_pedestrian", heading=180.0),
        _tsv(1, 4.0, actor_type="vru_pedestrian", heading=100.0),
        _tsv(2, 4.0, actor_type="vru_pedestrian", heading=0.0),
        _tsv(3, 4.0, actor_type="vru_pedestrian", heading=271.0),
    )
    t = Trace("TC-CTX-03", 1, vut, actors={"A1": recs})
    ctx, notes = classify_lateral_context(t, "A1")
    assert ctx[0] == PED_FACING_TRAFFIC   # head-on
    assert ctx[1] == PED_FACING_TRAFFIC   # 80 degrees off oncoming
    assert ctx[2] == PED_FACING_AWAY      # walking with traffic
    assert ctx[3] == PED_FACING_AWAY      # 91 degrees off, outside the cone
    assert notes == []


def test_context_pedestrian_missing_heading():
    vut = straight_vut_series(2)
    recs = tuple(_tsv(k, 4.0, actor_type="vru_pedestrian") for k in range(2))
    t = Trace("TC-CTX-04", 1, vut, actors={"A1": recs})
    ctx, notes = classify_lateral_context(t, "A1")
    assert set(ctx.values()) == {PED_FACING_AWAY}
    assert any("heading" in n for n in notes)


def test_context_unknown_type_gets_strictest():
    vut = straight_vut_series(2)
    recs = tuple(_tsv(k, 4.0, actor_type="hoverboard") for k in range(2))
    t = Trace("TC-CTX-05", 1, vut, actors={"A1": recs})
    ctx, notes = classify_lateral_context(t, "A1")
    assert set(ctx.values()) == {ROAD_USER_OTHER}
    assert RuleSet().lateral_threshold(ROAD_USER_OTHER) == 1.5
    assert notes


def test_stopped_vehicle_thresholds_drive_verdicts():
    rules = RuleSet()
    for gap, expected in ((0.52, FAIL), (0.99, FAIL), (1.53, PASS)):
        ev = evaluate_run(_abreast_trace(gap), rules)
        v = ev.verdict("lateral_clearance[A1]")
        assert v.outcome == expected, gap
        assert v.threshold == 1.0
        assert v.measured == pytest.approx(gap, abs=1e-9)
        if expected == FAIL:
            assert v.offending_steps
            assert v.attribution == ATTR_VUT
            assert not ev.passed
        else:
            assert ev.passed


def test_moving_vehicle_uses_higher_threshold():
    ev = evaluate_run(_abreast_trace(1.3, speed=2.0), RuleSet())
    v = ev.verdict("lateral_clearance[A1]")
    assert v.threshold == 1.5
    assert v.outcome == FAIL


def test_cyclist_threshold():
    ev = evaluate_run(_abreast_trace(1.4, actor_type="vru_cyclist"),
                      RuleSet())
    v = ev.verdict("lateral_clearance[A1]")
    assert v.threshold == 1.5
    assert v.outcome == FAIL


def test_longitudinal_lead_gap():
    vut = straight_vut_series(3, speed=5.0)
    recs = tuple(_tsv(k, 0.0, x=2.2 + 1.5 + 2.2, speed=5.0, vel_long=5.0,
                      heading=0.0) for k in range(3))
    t = Trace("TC-LON-01", 1, vut, actors={"A1": recs})
    ev = evaluate_run(t, RuleSet())
    v = ev.verdict("longitudinal_clearance[A1]")
    assert v.outcome == FAIL
    assert v.measured == pytest.approx(1.5, abs=1e-9)
    assert v.threshold == 2.0


def test_overtaker_attribution_softens_to_warning():
    # The other party dives into the gap: entity closing speed toward
    # the VUT exceeds the VUT's own closing speed at onset.
    vut = straight_vut_series(6, speed=5.0)
    recs = tuple(_tsv(k, 0.9 + 0.4 + 0.9, x=-12.0 + 8.0 * 0.1 * k * 10,
                      speed=13.0, vel_long=13.0, heading=0.0)
                 for k in range(6))
    t = Trace("TC-ATTR-01", 1, vut, actors={"A1": recs})
    ev = evaluate_run(t, RuleSet())
    v = ev.verdict("lateral_clearance[A1]")
    assert v.outcome == WARNING
    assert v.attribution == ATTR_OTHER
    assert ev.passed


def test_parked_entity_is_not_blamed():
    # A stopped vehicle 0.4 m to the side, its centre 1 m behind the
    # VUT's: the VUT recedes from it and it does not close at all, so
    # the broken clearance is the VUT's and the run fails.
    vut = straight_vut_series(20)
    recs = tuple(_tsv(k, 0.9 + 0.4 + 0.9, x=-1.0) for k in range(20))
    t = Trace("TC-ATTR-02", 1, vut, actors={"A1": recs})
    series = clearance_series(t, "A1")
    assert (series.columns["vut_closing"] < 0.0).all()
    assert (series.columns["entity_closing"] == 0.0).all()
    ev = evaluate_run(t, RuleSet())
    v = ev.verdict("lateral_clearance[A1]")
    assert v.outcome == FAIL
    assert v.attribution == ATTR_VUT
    assert not ev.passed


def test_collision_always_fails():
    from vistakit.model import BoundingShape
    vut = straight_vut_series(3, speed=5.0)
    box = BoundingShape("vcs", (VcsPosition(1.0, -0.5), VcsPosition(3.0, -0.5),
                                VcsPosition(3.0, 0.5), VcsPosition(1.0, 0.5)))
    recs = tuple(ActorState(time=k * 0.1, step=k, actor_id="A1",
                            actor_type="tsv", pos=VcsPosition(2.0, 0.0),
                            bbox_true=box, speed=13.0, vel_lat=0.0,
                            vel_long=13.0, acc_lat=0.0, acc_long=0.0,
                            ttc=0.0, heading=0.0)
                 for k in range(3))
    t = Trace("TC-COLL-01", 1, vut, actors={"A1": recs})
    ev = evaluate_run(t, RuleSet())
    assert not ev.passed
    assert any(v.outcome == FAIL for v in ev.verdicts
               if v.rule.startswith(("lateral", "longitudinal")))


def test_speed_limit_tolerance():
    def run_with_speed(s):
        vut = tuple(simple_vut(k, k * 0.1, speed=s) for k in range(3))
        return evaluate_run(Trace("TC-SPD-01", 1, vut), RuleSet())

    limit = RuleSet().speed_limit
    assert run_with_speed(limit).verdict("speed_limit").outcome == PASS
    assert run_with_speed(limit + 0.09).verdict("speed_limit").outcome == PASS
    over = run_with_speed(limit + 0.2)
    v = over.verdict("speed_limit")
    assert v.outcome == FAIL
    assert v.measured == pytest.approx(limit + 0.2)
    assert not over.passed


def test_hard_deceleration_warns_never_fails():
    def run_with_decel(a):
        vut = tuple(simple_vut(k, k * 0.1, acc_long=a) for k in range(3))
        return evaluate_run(Trace("TC-DEC-01", 1, vut), RuleSet())

    soft = run_with_decel(-7.9).verdict("hard_deceleration")
    assert soft.outcome == PASS
    hard = run_with_decel(-8.0)
    v = hard.verdict("hard_deceleration")
    assert v.outcome == WARNING
    assert hard.passed
    assert v.offending_steps


def test_traffic_light_verdicts():
    frame = LocalFrame.at(BASE)
    vut = straight_vut_series(10, speed=5.0)  # crosses n=2.5 between steps
    line = StopLine(pos=frame.from_local(0.0, 2.5), heading_deg=0.0)

    def with_phase(phase):
        ctrl = tuple(TrafficControllerState(time=k * 0.1, step=k,
                                            controller_id="TL1", phase=phase)
                     for k in range(10))
        return Trace("TC-SIG-01", 1, vut, controllers={"TL1": ctrl})

    rules = RuleSet(stop_lines={"TL1": line})
    red = evaluate_run(with_phase("stop"), rules)
    v = red.verdict("signal_compliance[TL1]")
    assert v.outcome == FAIL
    assert v.attribution == ATTR_VUT

    green = evaluate_run(with_phase("go"), rules)
    assert green.verdict("signal_compliance[TL1]").outcome == PASS

    unconfigured = evaluate_run(with_phase("stop"), RuleSet())
    v = unconfigured.verdict("signal_compliance[TL1]")
    assert v.outcome == NOT_APPLICABLE
    assert unconfigured.passed


def test_no_controllers_is_not_applicable():
    t = Trace("TC-SIG-02", 1, straight_vut_series(3))
    ev = evaluate_run(t, RuleSet())
    assert all(not v.rule.startswith("signal") for v in ev.verdicts)


def test_fixed_infrastructure_skipped_with_note():
    frame = LocalFrame.at(BASE)
    vut = straight_vut_series(2)
    poly = geo_quad(frame, 1.2, 3.0, 0.2, 0.2)
    recs = tuple(
        ObstacleState(time=k * 0.1, step=k, obstacle_id="KERB",
                      obst_type=620, pos=frame.from_local(1.2, 3.0),
                      poly_true=poly, ntd=math.inf)
        for k in range(2)
    )
    t = Trace("TC-FIX-01", 1, vut, obstacles={"KERB": recs})
    ev = evaluate_run(t, RuleSet())
    assert ev.passed
    assert all("KERB" not in v.rule for v in ev.verdicts)
    assert any("KERB" in n for n in ev.notes)


def test_threshold_monotonicity(rng):
    # Raising a clearance threshold can only move outcomes toward fail.
    order = {PASS: 0, WARNING: 1, FAIL: 2}
    for _ in range(25):
        gap = float(rng.uniform(0.1, 2.5))
        t = _abreast_trace(round(gap, 3))
        lo = float(rng.uniform(0.2, 1.8))
        hi = lo + float(rng.uniform(0.05, 0.8))
        out = {}
        for thr in (lo, hi):
            rules = RuleSet(lateral_thresholds={
                **RuleSet().lateral_thresholds,
                STOPPED_VEHICLE: thr})
            v = evaluate_run(t, rules).verdict("lateral_clearance[A1]")
            out[thr] = v.outcome
        assert order[out[hi]] >= order[out[lo]]


def test_aggregate_pass_and_shortfall():
    runs = [evaluate_run(_abreast_trace(1.53, run_id=i), RuleSet())
            for i in range(1, 11)]
    case = aggregate(runs, n_required=10)
    assert case.passed
    assert case.run_count == 10

    # Same runs, one too few.
    short = aggregate(runs[:9], n_required=10)
    assert not short.passed
    assert not short.enough_runs

    mixed = runs[:9] + [evaluate_run(_abreast_trace(0.52, run_id=10),
                                     RuleSet())]
    case = aggregate(mixed, n_required=10)
    assert not case.passed
    spread = {s.rule: s for s in case.spreads()}["lateral_clearance[A1]"]
    assert spread.minimum == pytest.approx(0.52, abs=1e-9)
    assert spread.maximum == pytest.approx(1.53, abs=1e-9)


def test_aggregate_rejects_mixed_testcases():
    a = evaluate_run(_abreast_trace(1.53, testcase_id="TC-A"), RuleSet())
    b = evaluate_run(_abreast_trace(1.53, testcase_id="TC-B"), RuleSet())
    with pytest.raises(ValueError):
        aggregate([a, b], n_required=2)


def test_rule_overrides_from_file(tmp_path):
    payload = {
        "default": {"speed_limit_mps": 8.0},
        "TC-OVR-01": {
            "lateral_thresholds_m": {"stopped_or_parked_vehicle": 2.0},
            "n_required": 3,
        },
    }
    path = tmp_path / "rules.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    overrides = load_rules(path)

    special = ruleset_for("TC-OVR-01", overrides)
    assert special.speed_limit == 8.0
    assert special.lateral_threshold(STOPPED_VEHICLE) == 2.0
    assert special.lateral_threshold(CYCLIST) == 1.5
    assert special.n_required == 3

    other = ruleset_for("TC-ELSE-01", overrides)
    assert other.speed_limit == 8.0
    assert other.lateral_threshold(STOPPED_VEHICLE) == 1.0


@pytest.mark.parametrize("entry, message", [
    ({"stop_lines": {"L1": {"lon": 1.0, "heading_deg": 0.0}}},
     "stop_lines: missing 'lat'"),
    ({"stop_lines": {"L1": {"lat": 91.0, "lon": 1.0, "heading_deg": 0.0}}},
     "stop_lines: latitude out of range: 91.0"),
    ({"lateral_thresholds_m": [1.0]},
     "lateral_thresholds_m: 'list' object has no attribute 'items'"),
    ({"n_required": math.inf},
     "n_required: cannot convert float infinity to integer"),
    (3, "expected an object of rule overrides, got 3"),
])
def test_malformed_rule_entry_names_file_and_key(tmp_path, entry, message):
    path = tmp_path / "rules.json"
    path.write_text(json.dumps({"default": {}, "TC-OVR-01": entry}))
    with pytest.raises(MalformedRules) as exc:
        load_rules(path)
    assert str(exc.value) == f"{path}: TC-OVR-01: {message}"
    # Library callers that pass overrides straight in get the same check.
    with pytest.raises(MalformedRules) as exc:
        ruleset_for("TC-OVR-01", {"TC-OVR-01": entry})
    assert str(exc.value) == f"TC-OVR-01: {message}"


def test_render_text_mentions_verdicts():
    runs = [evaluate_run(_abreast_trace(0.52, run_id=i), RuleSet())
            for i in range(1, 3)]
    text = render_text(aggregate(runs, n_required=2))
    assert "TC-R-01" in text
    assert "lateral_clearance[A1]" in text
    assert "fail" in text.lower()
