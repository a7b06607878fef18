"""Scenario generator: targets, feasibility, and perturbation."""

import math

import numpy as np
import pytest

from vistakit.clearance import all_clearance_series, clearance_series
from vistakit.errors import InfeasibleSpec
from vistakit.integrity import check_frequency
from vistakit.model import GeoPosition, Trace
from vistakit.rules import RuleSet, evaluate_run
from vistakit.synth import (
    CASE_PARAMS,
    ScenarioSpec,
    perturb,
    synthesize,
    synthesize_runs,
)
from vistakit.trace_io import parse_trace, write_trace

import synth_reference


@pytest.mark.parametrize("case,target", [(1, 0.21), (2, 0.52), (3, 1.53)])
def test_case_minima_hit_targets(case, target):
    t = synthesize(case=case)
    s = clearance_series(t, "TSV-01")
    assert s.min_lateral() == pytest.approx(target, abs=0.01)


def test_case_verdicts():
    rules = RuleSet()
    outcomes = {}
    for case in (1, 2, 3):
        ev = evaluate_run(synthesize(case=case), rules)
        outcomes[case] = ev.verdict("lateral_clearance[TSV-01]").outcome
        # Every case brakes hard enough to trip the advisory.
        assert ev.verdict("hard_deceleration").outcome == "warning"
    assert outcomes == {1: "fail", 2: "fail", 3: "pass"}


def test_speed_cap_respected():
    for case in (1, 2, 3):
        t = synthesize(case=case)
        vmax = max(r.speed for r in t.vut)
        assert vmax <= 11.11 + 1e-9


def test_zero_target_touches():
    t = synthesize(case=3, target_clearance=0.0)
    s = clearance_series(t, "TSV-01")
    assert min(x.euclidean_min for x in s.samples) == pytest.approx(0.0,
                                                                    abs=1e-6)


def test_infeasible_target_raises():
    with pytest.raises(InfeasibleSpec):
        synthesize(case=3, target_clearance=20.0)


def test_trace_is_structurally_clean():
    t = synthesize(case=2)
    assert check_frequency(t, f_min=10.0) == []
    assert t.vut[0].time == 0.0
    steps = [r.step for r in t.vut]
    assert steps == list(range(len(steps)))


def test_travelled_matches_speed_integral():
    t = synthesize(case=3)
    dt = 1.0 / t.declared_frequency
    approx = 0.0
    worst = 0.0
    prev = t.vut[0]
    for r in t.vut[1:]:
        approx += 0.5 * (prev.speed + r.speed) * dt
        worst = max(worst, abs(approx - r.travelled))
        prev = r
    assert worst < 0.05


def test_indicators_cover_both_lane_changes():
    t = synthesize(case=3)
    rights = [r.step for r in t.vut if "right_front" in r.indicators]
    lefts = [r.step for r in t.vut if "left_front" in r.indicators]
    assert rights and lefts
    assert min(rights) < min(lefts)


def test_case2_includes_full_stop():
    t = synthesize(case=2)
    assert min(r.speed for r in t.vut) == 0.0
    # Case 3 never stops.
    assert min(r.speed for r in synthesize(case=3).vut) > 0.0


def test_braking_reaches_design_decel():
    for case in (1, 2, 3):
        t = synthesize(case=case)
        peak = min(r.acc_long for r in t.vut)
        assert -8.6 < peak <= -8.0


def test_round_trip_preserves_evaluation(tmp_path):
    t = synthesize(case=1)
    p = write_trace(t, tmp_path, layout="flat")
    back, rep = parse_trace(p)
    assert rep.ok
    assert back == t
    s = clearance_series(back, "TSV-01")
    assert s.min_lateral() == pytest.approx(0.21, abs=0.01)


def test_synthesize_runs_ids_and_count():
    runs = synthesize_runs(case=3, count=4, start_run=2)
    assert [t.run_id for t in runs] == [2, 3, 4, 5]
    assert len({t.testcase_id for t in runs}) == 1
    # Without noise all runs are kinematically identical.
    assert runs[0].vut == runs[1].vut


def test_synthesize_runs_with_noise_differ():
    runs = synthesize_runs(case=3, count=2, speed_noise=0.05, seed=9)
    assert runs[0].vut != runs[1].vut
    again = synthesize_runs(case=3, count=2, speed_noise=0.05, seed=9)
    assert runs[0] == again[0] and runs[1] == again[1]


def test_perturb_identity_and_determinism():
    t = synthesize(case=3)
    assert perturb(t) == t
    a = perturb(t, pos_sigma=0.1, speed_sigma=0.05, time_shift=0.3, seed=5)
    b = perturb(t, pos_sigma=0.1, speed_sigma=0.05, time_shift=0.3, seed=5)
    assert a == b
    c = perturb(t, pos_sigma=0.1, speed_sigma=0.05, time_shift=0.3, seed=6)
    assert a != c
    assert a.vut[0].time == pytest.approx(t.vut[0].time + 0.3)


def test_custom_scenario_spec():
    spec = ScenarioSpec(testcase_id="SLOW-PASS", sample_rate=20.0,
                        speed_limit=8.0)
    t = synthesize(spec, case=3)
    assert t.testcase_id == "SLOW-PASS"
    assert t.declared_frequency == 20.0
    assert max(r.speed for r in t.vut) <= 8.0 + 1e-9
    s = clearance_series(t, "TSV-01")
    assert s.min_lateral() == pytest.approx(CASE_PARAMS[3].target, abs=0.01)


def _outcome(fn, *args, **kw):
    try:
        return repr(fn(*args, **kw))
    except Exception as exc:  # compared by type and text
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("rate", [5.0, 10.0, 25.0, 100.0])
@pytest.mark.parametrize("case", [1, 2, 3])
def test_synthesize_matches_step_reference(case, rate):
    # Every record by repr: float bits, signed zeros and types count.
    spec = ScenarioSpec(sample_rate=rate)
    got = synthesize(spec, case, run_id=7)
    assert repr(got) == repr(synth_reference.synthesize(spec, case, 7))
    assert got.declared_frequency == round(rate, 6)


def test_overrides_and_errors_match_step_reference():
    rng = np.random.default_rng(15)
    settings = []
    for k in range(12):
        spec = ScenarioSpec(
            sample_rate=float(rng.choice([5.0, 10.0, 25.0, 100.0])),
            speed_limit=float(rng.uniform(2.0, 12.0)) if k % 2 else 40 / 3.6)
        target = float(rng.uniform(0.0, 1.7)) if k % 3 else None
        settings.append((spec, 1 + k % 3, target))
    settings += [
        (ScenarioSpec(), 1, 3.0),                       # past the kerb
        (ScenarioSpec(), 3, -0.1),
        (ScenarioSpec(speed_limit=0.0), 1, None),
        (ScenarioSpec(decel_peak=0.5), 2, None),        # no room to stop
        (ScenarioSpec(), 4, None),
        # The VUT's later fixes lie past the pole: its records raise.
        (ScenarioSpec(origin=GeoPosition(89.99905, 0.0)), 3, None),
    ]
    outcomes = []
    for spec, case, target in settings:
        want = _outcome(synth_reference.synthesize, spec, case,
                        target_clearance=target)
        assert _outcome(synthesize, spec, case,
                        target_clearance=target) == want
        outcomes.append(want.split(":")[0] if "Error" in want
                        or "Infeasible" in want else "trace")
    assert outcomes.count("trace") == 12
    assert outcomes[12:] == ["InfeasibleSpec"] * 4 + ["ValueError"] * 2
