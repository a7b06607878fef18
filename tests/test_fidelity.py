import math

import numpy as np
import pytest

from vistakit import fidelity
from vistakit.errors import ExtentExceeded, InsufficientOverlap
from vistakit.fidelity import (
    ALIGN_STEP,
    ALIGN_WINDOW,
    FidelityTolerances,
    _MARGIN,
    _STRIDE,
    _admissible,
    _best,
    _bounds,
    _channels,
    _strided_grid,
    align,
    compare,
    select_recalibration_subset,
)
from vistakit.frames import LocalFrame
from vistakit.model import GeoPosition, Trace, VutState
from vistakit.synth import perturb, synthesize

from conftest import BASE, random_trace


def _cruise_trace(duration=6.0, rate=10.0, run_id=1,
                  speed_fn=None) -> Trace:
    """Straight-north drive with a bumpy speed profile for alignment."""
    frame = LocalFrame.at(BASE)
    if speed_fn is None:
        def speed_fn(t):
            return 5.0 + 1.5 * math.sin(1.3 * t) + 0.8 * math.sin(3.1 * t)
    n = int(duration * rate) + 1
    dt = 1.0 / rate
    recs = []
    travelled = 0.0
    north = 0.0
    prev_v = speed_fn(0.0)
    for k in range(n):
        t = k * dt
        v = speed_fn(t)
        if k:
            north += 0.5 * (prev_v + v) * dt
            travelled += 0.5 * (prev_v + v) * dt
        prev_v = v
        recs.append(VutState(
            time=t, step=k, pos=frame.from_local(0.0, north),
            travelled=travelled, speed=v, acc_lat=0.0, acc_long=0.0,
            yaw_rate=0.0, heading=0.0, indicators=frozenset(),
            throttle=0.3, brake=0.0, steering_angle=0.0,
            drive_status="autonomous", special_op="normal"))
    return Trace("TC-FID-01", run_id, tuple(recs), declared_frequency=rate)


def _shifted(trace: Trace, shift: float) -> Trace:
    recs = tuple(
        VutState(time=r.time + shift, step=r.step, pos=r.pos,
                 travelled=r.travelled, speed=r.speed, acc_lat=r.acc_lat,
                 acc_long=r.acc_long, yaw_rate=r.yaw_rate,
                 heading=r.heading, indicators=r.indicators,
                 throttle=r.throttle, brake=r.brake,
                 steering_angle=r.steering_angle,
                 drive_status=r.drive_status, special_op=r.special_op)
        for r in trace.vut
    )
    return Trace(trace.testcase_id, trace.run_id, recs,
                 declared_frequency=trace.declared_frequency)


def test_align_identical_is_zero():
    t = _cruise_trace()
    assert align(t, t) == 0.0


def test_align_recovers_half_second_shift():
    t = _cruise_trace()
    # The reference starts 0.5 s later on the wall clock.
    ref = _shifted(t, 0.5)
    assert align(t, ref) == pytest.approx(0.5, abs=0.01)
    assert align(ref, t) == pytest.approx(-0.5, abs=0.01)


def test_align_with_speed_noise():
    t = _cruise_trace(duration=8.0)
    ref = _shifted(perturb(t, speed_sigma=0.05, seed=7), 0.5)
    assert align(t, ref) == pytest.approx(0.5, abs=0.05)


def _loop_scores(virtual, reference, window=ALIGN_WINDOW, step=ALIGN_STEP):
    """The scan ``align`` ran before its offsets shared the virtual-side
    interpolation: each offset interpolates both sides on its own grid."""
    tv = np.array([r.time for r in virtual.vut])
    vv = np.array([r.speed for r in virtual.vut])
    tr = np.array([r.time for r in reference.vut])
    vr = np.array([r.speed for r in reference.vut])
    min_overlap = max(1.0, 0.25 * min(tv[-1] - tv[0], tr[-1] - tr[0]))
    scores = []
    n = int(round(window / step))
    for k in range(-n, n + 1):
        offset = k * step
        lo = max(tv[0], tr[0] - offset)
        hi = min(tv[-1], tr[-1] - offset)
        if hi - lo < min_overlap:
            continue
        ts = np.arange(lo, hi + 1e-12, step)
        dv = np.interp(ts, tv, vv) - np.interp(ts + offset, tr, vr)
        scores.append((offset, float(np.mean(dv * dv))
                       + 1e-9 * offset * offset))
    return scores


def _search(virtual, reference, window=ALIGN_WINDOW):
    return _best(*_channels(virtual), *_channels(reference), window,
                 ALIGN_STEP)


def _loop_best(virtual, reference, window=ALIGN_WINDOW):
    return min(_loop_scores(virtual, reference, window),
               key=lambda pair: pair[1])


@pytest.mark.parametrize("rate", [10.0, 100.0])
def test_scores_match_loop_reference(rate):
    # Seeded twins of a run: the run itself, shifted clocks, and shifted
    # clocks with position and speed noise; each pair both ways round.
    base = synthesize(case=2) if rate == 10.0 else _cruise_trace(rate=rate)
    twins = [base] + [perturb(base, time_shift=shift, seed=seed,
                              pos_sigma=sigma, speed_sigma=sigma)
                      for seed, (shift, sigma) in enumerate(
                          [(0.5, 0.0), (1.37, 0.0), (2.5, 0.05),
                           (0.21, 0.1)])]
    for virtual in twins[:3]:
        for reference in twins:
            want = _loop_best(virtual, reference)
            assert _search(virtual, reference) == want
            assert align(virtual, reference) == want[0]


def _plateaus(t):
    return 4.0 if t < 4.0 else 6.0 if t < 9.0 else 5.0


def test_search_matches_loop_reference_property():
    """The pruned search picks the loop reference's offset and score,
    ``==``, over seeded pairs: constant and piecewise-constant speeds
    (where the penalty decides among equal fits), a 10 Hz virtual run
    against a 100 Hz reference, shifts at and beyond the window's edge,
    and speed noise up to sigma 1.0, each pair both ways round."""
    rng = np.random.default_rng(19)
    profiles = [lambda t: 5.0, _plateaus, None]
    for case in range(12):
        speed_fn = profiles[case % 3]
        virtual = _cruise_trace(duration=12.0, rate=10.0, speed_fn=speed_fn)
        fine = _cruise_trace(duration=12.0, rate=100.0 if case % 2 else 10.0,
                             speed_fn=speed_fn)
        shift = float(rng.choice([ALIGN_WINDOW, 4.99, 5.37,
                                  rng.uniform(0.0, 4.0)]))
        sigma = float(rng.choice([0.0, 0.05, 0.3, 1.0]))
        reference = perturb(fine, time_shift=shift, speed_sigma=sigma,
                            seed=case)
        for pair in ((virtual, reference), (reference, virtual)):
            want = _loop_scores(*pair)
            assert _search(*pair) == min(want, key=lambda p: p[1]), (
                case, shift, sigma)
            tv, vv = _channels(pair[0])
            tr, vr = _channels(pair[1])
            offsets, lo, hi = _admissible(tv, tr, ALIGN_WINDOW, ALIGN_STEP)
            bounds = _bounds(tv, vv, tr, vr, offsets, lo, hi, ALIGN_STEP)
            assert offsets.tolist() == [o for o, _ in want]
            assert all(b <= score * (1.0 + _MARGIN)
                       for b, (_, score) in zip(bounds, want))
    steady = _cruise_trace(duration=12.0, speed_fn=lambda t: 5.0)
    assert _search(steady, _shifted(steady, 1.0)) == (0.0, 0.0)


def test_strided_grid_is_arange_bit_for_bit():
    """The bound samples each offset at the very times, and divides by the
    very count, of the exact score's ``np.arange``."""
    rng = np.random.default_rng(7)
    lo = np.concatenate([rng.uniform(0.0, 30.0, 200),
                         rng.uniform(0.0, 1e-3, 50),
                         np.round(rng.uniform(0.0, 30.0, 50), 2)])
    hi = lo + rng.uniform(1.0, 30.0, len(lo))
    ts, kept, counts = _strided_grid(lo, hi, ALIGN_STEP)
    for row in range(len(lo)):
        want = np.arange(lo[row], hi[row] + 1e-12, ALIGN_STEP)
        assert counts[row] == len(want)
        assert ts[row][kept[row]].tobytes() == want[::_STRIDE].tobytes()


def test_search_scores_few_offsets_on_a_clean_shift(monkeypatch):
    """A clean time-shifted 100 Hz pair is decided by its lower bounds:
    only a handful of offsets is scored exactly, not the whole window."""
    calls = []
    score = fidelity._score
    monkeypatch.setattr(fidelity, "_score",
                        lambda *args: calls.append(args[4]) or score(*args))
    base = _cruise_trace(duration=25.0, rate=100.0)
    reference = perturb(base, time_shift=1.37, pos_sigma=0.05, seed=4)
    assert align(base, reference) == pytest.approx(1.37, abs=1e-9)
    assert 1 <= len(calls) <= 3


def test_window_beyond_the_traces_costs_nothing():
    """Offsets whose overlap cannot be long enough are never generated,
    so a huge window admits the same offsets as one that reaches just the
    farthest offset at which the traces overlap at all, and picks the
    same offset with the same score."""
    virtual = _cruise_trace(duration=8.0)
    reference = perturb(virtual, time_shift=1.2, speed_sigma=0.1, seed=5)
    tv, tr = _channels(virtual)[0], _channels(reference)[0]
    covering = max(abs(tr[0] - tv[-1]), abs(tr[-1] - tv[0]))
    huge = _admissible(tv, tr, 1e9, ALIGN_STEP)
    assert len(huge[0]) < 2000
    assert all(a.tobytes() == b.tobytes() for a, b in zip(
        huge, _admissible(tv, tr, covering, ALIGN_STEP)))
    assert _search(virtual, reference, 1e9) == _search(virtual, reference,
                                                       covering)
    assert _search(virtual, reference, 1e9) == _loop_best(
        virtual, reference, covering)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ExtentExceeded as exc:
        return str(exc)


def test_local_xy_matches_to_local():
    """One numpy pass over the VUT columns gives what ``to_local`` gives
    each position, bit for bit, and raises its error at the first one
    beyond the frame's extent."""
    def loop(trace, frame):
        xy = np.array([frame.to_local(r.pos) for r in trace.vut])
        return xy[:, 0], xy[:, 1]

    for seed in range(20):
        trace = random_trace(np.random.default_rng(seed))
        frame = LocalFrame.at(trace.vut[seed % len(trace.vut)].pos)
        got = frame.to_local_all(trace.channels("vut"))
        want = loop(trace, frame)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    far = tuple(
        VutState(**{**{f: getattr(r, f) for f in r.__slots__},
                    "pos": GeoPosition(r.pos.lat + k % 2, r.pos.lon)})
        if k in (3, 5) else r for k, r in enumerate(_cruise_trace().vut))
    trace = Trace("TC-FID-01", 1, far)
    frame = LocalFrame.at(BASE)
    vut = trace.channels("vut")
    assert _outcome(frame.to_local_all, vut) == _outcome(loop, trace, frame)
    assert "lies" in _outcome(frame.to_local_all, vut)


def test_align_rejects_disjoint_spans():
    t = _cruise_trace(duration=4.0)
    far = _shifted(t, 60.0)
    with pytest.raises(InsufficientOverlap):
        align(t, far)


def test_compare_self_is_zero():
    t = _cruise_trace()
    rep = compare(t, t)
    assert rep.offset == 0.0
    assert rep.position_rmse == 0.0
    assert rep.speed_rmse == 0.0
    assert rep.heading_rmse == 0.0
    assert rep.max_position_deviation == 0.0
    assert rep.passed
    assert not rep.recalibration_needed
    assert rep.sample_count > 0


def test_compare_lateral_offset_copy():
    t = _cruise_trace()
    frame = LocalFrame.at(BASE)
    moved = tuple(
        VutState(time=r.time, step=r.step,
                 pos=_offset_east(frame, r.pos, 0.30),
                 travelled=r.travelled, speed=r.speed, acc_lat=r.acc_lat,
                 acc_long=r.acc_long, yaw_rate=r.yaw_rate,
                 heading=r.heading, indicators=r.indicators,
                 throttle=r.throttle, brake=r.brake,
                 steering_angle=r.steering_angle,
                 drive_status=r.drive_status, special_op=r.special_op)
        for r in t.vut
    )
    ref = Trace(t.testcase_id, t.run_id, moved,
                declared_frequency=t.declared_frequency)
    rep = compare(t, ref)
    assert rep.position_rmse == pytest.approx(0.30, abs=0.01)
    assert rep.max_position_deviation == pytest.approx(0.30, abs=0.01)
    assert rep.speed_rmse == pytest.approx(0.0, abs=1e-9)
    assert rep.passed


def _offset_east(frame, pos, metres):
    e, n = frame.to_local(pos)
    return frame.from_local(e + metres, n)


def test_compare_rmse_symmetry():
    t = _cruise_trace()
    ref = perturb(t, pos_sigma=0.05, speed_sigma=0.05, seed=3)
    a = compare(t, ref, offset=0.0)
    b = compare(ref, t, offset=0.0)
    assert a.position_rmse == pytest.approx(b.position_rmse, rel=1e-9)
    assert a.speed_rmse == pytest.approx(b.speed_rmse, rel=1e-9)
    assert a.heading_rmse == pytest.approx(b.heading_rmse, rel=1e-9)


def test_compare_flags_out_of_tolerance():
    t = _cruise_trace()
    frame = LocalFrame.at(BASE)
    moved = tuple(
        VutState(time=r.time, step=r.step,
                 pos=_offset_east(frame, r.pos, 0.8),
                 travelled=r.travelled, speed=r.speed, acc_lat=r.acc_lat,
                 acc_long=r.acc_long, yaw_rate=r.yaw_rate, heading=r.heading,
                 indicators=r.indicators, throttle=r.throttle, brake=r.brake,
                 steering_angle=r.steering_angle,
                 drive_status=r.drive_status, special_op=r.special_op)
        for r in t.vut
    )
    ref = Trace(t.testcase_id, t.run_id, moved,
                declared_frequency=t.declared_frequency)
    rep = compare(t, ref, FidelityTolerances(position_rmse=0.5))
    assert not rep.position_ok
    assert not rep.passed
    assert rep.recalibration_needed


def test_compare_synth_twin_within_default_tolerances():
    t = synthesize(case=3)
    twin = perturb(t, pos_sigma=0.05, speed_sigma=0.05,
                   time_shift=0.2, seed=11)
    rep = compare(t, twin)
    assert rep.offset == pytest.approx(0.2, abs=0.05)
    assert rep.passed


def test_heading_rmse_wraps_around_north():
    # 359 vs 1 degree must count as 2 degrees, not 358.
    frame = LocalFrame.at(BASE)

    def mk(heading):
        recs = tuple(
            VutState(time=k * 0.1, step=k, pos=frame.from_local(0, k * 0.5),
                     travelled=k * 0.5, speed=5.0, acc_lat=0.0, acc_long=0.0,
                     yaw_rate=0.0, heading=heading, indicators=frozenset(),
                     throttle=0.3, brake=0.0, steering_angle=0.0,
                     drive_status="autonomous", special_op="normal")
            for k in range(31)
        )
        return Trace("TC-FID-02", 1, recs, declared_frequency=10.0)

    rep = compare(mk(359.0), mk(1.0), offset=0.0)
    assert rep.heading_rmse == pytest.approx(2.0, abs=1e-6)


def test_subset_sizes_and_determinism():
    ids = [f"TC-{i:02d}" for i in range(1, 11)]
    sub = select_recalibration_subset(ids, fraction=0.20, seed=0)
    assert len(sub) == 2
    assert select_recalibration_subset(ids, fraction=0.20, seed=0) == sub
    assert select_recalibration_subset(["ONLY"], fraction=0.25) == ("ONLY",)
    assert len(select_recalibration_subset(ids, fraction=0.25, seed=4)) == 3

    different = select_recalibration_subset(ids, fraction=0.5, seed=1)
    assert set(different) <= set(ids)
    with pytest.raises(ValueError):
        select_recalibration_subset(ids, fraction=0.0)
    with pytest.raises(ValueError):
        select_recalibration_subset(ids, fraction=1.2)
