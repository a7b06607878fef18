"""``synth.perturb`` against the row-by-row loop it replaced.

``_loop_perturb`` is the loop ``perturb`` ran before it worked per
channel, with the VUT elevation kept, as the reference the channel pass
must match exactly: the same records (compared by ``repr``, so signed
zeros and float bits count) and the same errors.
"""

import functools
import itertools
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from vistakit import model, synth, trace_io
from vistakit.frames import LocalFrame
from vistakit.model import (
    ActorState,
    BoundingShape,
    GeoPosition,
    ObstacleState,
    Trace,
    TrafficControllerState,
    VcsPosition,
    VutState,
)

from conftest import random_trace, simple_vut


def _loop_perturb(trace, pos_sigma=0.0, speed_sigma=0.0, time_shift=0.0,
                  seed=0):
    rng = np.random.default_rng(seed)
    frame = LocalFrame.at(trace.vut[0].pos)
    new_vut = []
    for r in trace.vut:
        e, n = frame.to_local(r.pos)
        e += float(rng.normal(0.0, 1.0)) * pos_sigma
        n += float(rng.normal(0.0, 1.0)) * pos_sigma
        speed = max(0.0, r.speed + float(rng.normal(0.0, 1.0)) * speed_sigma)
        new_vut.append(replace(r, time=r.time + time_shift,
                               pos=frame.from_local(e, n, r.pos.elev),
                               speed=speed))

    def _shift(records):
        return tuple(replace(r, time=r.time + time_shift) for r in records)

    return Trace(
        testcase_id=trace.testcase_id, run_id=trace.run_id,
        vut=tuple(new_vut),
        actors={k: _shift(v) for k, v in trace.actors.items()},
        obstacles={k: _shift(v) for k, v in trace.obstacles.items()},
        controllers={k: _shift(v) for k, v in trace.controllers.items()},
        declared_frequency=trace.declared_frequency,
    )


def _outcome(fn, *args, **kw):
    try:
        return repr(fn(*args, **kw))
    except Exception as exc:  # compared by type and text
        return f"{type(exc).__name__}: {exc}"


@functools.lru_cache(maxsize=None)
def _case(case, rate):
    return synth.synthesize(synth.ScenarioSpec(sample_rate=rate), case)


SETTINGS = [dict(speed_sigma=0.05),
            dict(pos_sigma=0.05, time_shift=1.37),
            dict(pos_sigma=0.0),
            dict(speed_sigma=50.0)]     # clamps about half the speeds


@pytest.mark.parametrize("rate", [10.0, 100.0])
@pytest.mark.parametrize("case", [1, 2, 3])
def test_cases_match_loop_reference(case, rate):
    trace = _case(case, rate)
    for seed, kw in enumerate(SETTINGS):
        want = _loop_perturb(trace, seed=seed, **kw)
        assert repr(synth.perturb(trace, seed=seed, **kw)) == repr(want), kw
    assert sum(r.speed == 0.0 for r in want.vut) > len(want.vut) // 4


def test_random_traces_match_loop_reference():
    # VCS actors, obstacles, controllers, elevations, pitch/roll rates.
    for seed in range(50):
        trace = random_trace(np.random.default_rng(seed))
        kw = SETTINGS[seed % 4]
        assert repr(synth.perturb(trace, seed=seed, **kw)) == \
            repr(_loop_perturb(trace, seed=seed, **kw)), seed


def _trace(vut, **kw):
    return Trace(testcase_id="TC-PERTURB", run_id=1, vut=tuple(vut), **kw)


def test_negative_zero_speed_clamps_to_zero():
    # With no speed noise, -0.0 + -0.0 stays -0.0, and max(0.0, -0.0)
    # is 0.0; np.maximum would return -0.0.
    trace = _trace(simple_vut(k, k * 0.1, speed=-0.0) for k in range(40))
    for sigma in (0.0, 50.0):
        got = synth.perturb(trace, speed_sigma=sigma, seed=3)
        assert repr(got) == repr(_loop_perturb(trace, speed_sigma=sigma,
                                               seed=3))
        assert {repr(r.speed) for r in got.vut} >= {"0.0"}
        assert "-0.0" not in {repr(r.speed) for r in got.vut}


def test_unshifted_environment_records_are_kept_only_when_unchanged():
    base = _case(3, 10.0)
    twin = synth.perturb(base, speed_sigma=0.05)
    assert all(a is b for a, b in zip(twin.actors["TSV-01"],
                                      base.actors["TSV-01"]))
    # r.time + 0.0 turns -0.0 into 0.0 and an int into a float.
    odd = tuple(replace(r, time=(-0.0, 1)[k] if k < 2 else r.time)
                for k, r in enumerate(base.actors["TSV-01"]))
    trace = replace(base, actors={"TSV-01": odd})
    got = synth.perturb(trace, time_shift=0.0)
    assert [repr(r.time) for r in got.actors["TSV-01"][:2]] == \
        ["0.0", "1.0"]
    for shift in (0.0, -0.0, 0):
        assert repr(synth.perturb(trace, time_shift=shift)) == \
            repr(_loop_perturb(trace, time_shift=shift)), shift


def test_vut_elevation_is_kept():
    trace = _trace(simple_vut(k, k * 0.1, lat=1.354 + k * 1e-5)
                   for k in range(5))
    trace = replace(trace, vut=tuple(
        replace(r, pos=GeoPosition(r.pos.lat, r.pos.lon, 12.5))
        for r in trace.vut))
    got = synth.perturb(trace, pos_sigma=0.1, speed_sigma=0.1, seed=1)
    assert [r.pos.elev for r in got.vut] == [12.5] * 5
    assert repr(got) == repr(_loop_perturb(trace, pos_sigma=0.1,
                                           speed_sigma=0.1, seed=1))


def _far(trace, *steps_km):
    """trace with VUT records moved north by the given kilometres."""
    moved = dict(steps_km)
    return replace(trace, vut=tuple(
        replace(r, pos=GeoPosition(r.pos.lat + moved[r.step] / 111.0,
                                   r.pos.lon))
        if r.step in moved else r for r in trace.vut))


def _late_actor(trace):
    """trace with one more actor whose records sit at t = 1e308."""
    recs = tuple(ActorState(
        time=1e308, step=r.step, actor_id="LATE", actor_type="tsv",
        pos=r.pos, bbox_true=None, speed=0.0, vel_lat=0.0, vel_long=0.0,
        acc_lat=0.0, acc_long=0.0, ttc=math.inf) for r in trace.vut[:3])
    return replace(trace, actors={**trace.actors, "LATE": recs})


@pytest.mark.parametrize("make, kw", [
    (lambda t: t, dict(time_shift=-100.0)),
    (lambda t: t, dict(time_shift=-0.25, speed_sigma=0.05)),
    (lambda t: t, dict(time_shift=math.inf)),
    (lambda t: t, dict(pos_sigma=1e9)),
    (lambda t: t, dict(pos_sigma=math.nan)),
    (lambda t: t, dict(speed_sigma=math.inf)),
    (lambda t: _far(t, (7, 200.0)), dict(speed_sigma=0.05)),
    # Two failing rows: the first one's error wins.
    (lambda t: _far(t, (9, 300.0), (4, 200.0)), dict()),
    (lambda t: _far(t, (3, 60.0), (12, 200.0)), dict(pos_sigma=0.05)),
    (_late_actor, dict(time_shift=1e308)),
    # A shift that rounds close VUT times into one fails the trace check.
    (lambda t: _trace(simple_vut(k, k * 1e-17) for k in range(3)),
     dict(time_shift=1.0)),
])
def test_errors_match_loop_reference(make, kw):
    trace = make(_case(1, 10.0))
    want = _outcome(_loop_perturb, trace, seed=4, **kw)
    assert not want.startswith("Trace("), want
    assert _outcome(synth.perturb, trace, seed=4, **kw) == want


@pytest.mark.parametrize("make, kw, most", [
    (lambda: synth.synthesize(synth.ScenarioSpec(), 1),
     dict(time_shift=math.inf), 1),
    (lambda: _trace(simple_vut(k, k * 1e-17) for k in range(3)),
     dict(time_shift=1.0), 0),
], ids=["infinite shift", "clock collision"])
def test_errors_build_at_most_the_failing_row(monkeypatch, make, kw, most):
    # A refused row is checked on its own: the trace's other records are
    # not built to raise its error, nor any to raise the clock's.
    trace, rows = make(), []
    assemble = model._assemble
    monkeypatch.setattr(model, "_assemble", lambda cls, columns: rows.append(
        len(columns["step"])) or assemble(cls, columns))
    with pytest.raises(ValueError):
        synth.perturb(trace, seed=4, **kw)
    assert sum(rows) <= most


RECORD_TYPES = (GeoPosition, VcsPosition, BoundingShape, VutState,
                ActorState, ObstacleState, TrafficControllerState)


@pytest.mark.parametrize("cls", RECORD_TYPES, ids=lambda c: c.__name__)
def test_record_types_are_slotted(cls):
    # No record holds a dict of its own (or a weak reference slot).
    assert cls.__slots__ == tuple(f.name for f in fields(cls))
    assert cls.__dictoffset__ == 0 and cls.__weakrefoffset__ == 0


def _constructed(value):
    """value rebuilt through the record constructors, nested records and
    outline vertices included."""
    if isinstance(value, tuple):
        return tuple(map(_constructed, value))
    if isinstance(value, RECORD_TYPES):
        return type(value)(**{f.name: _constructed(getattr(value, f.name))
                              for f in fields(value)})
    return value


def _assert_as_constructed(trace):
    tables = (trace.vut, *trace.actors.values(), *trace.obstacles.values(),
              *trace.controllers.values())
    for rec in itertools.chain(*tables):
        twin = _constructed(rec)
        assert repr(rec) == repr(twin)          # values, float bits, types
        assert [type(getattr(rec, f.name)) for f in fields(rec)] == \
            [type(getattr(twin, f.name)) for f in fields(twin)]
        assert not hasattr(rec, "__dict__")


def test_built_records_equal_constructed_ones(tmp_path):
    # synthesize and perturb build their records in bulk, as the reader
    # does; each must equal the record its constructor makes.
    _assert_as_constructed(_case(2, 10.0))
    _assert_as_constructed(synth.perturb(_case(1, 10.0), pos_sigma=0.05,
                                         speed_sigma=0.05, time_shift=0.5))
    rng = np.random.default_rng(7)
    for i in range(6):
        trace = random_trace(rng)
        for layout in ("flat", "distributed"):
            back, rep = trace_io.parse_trace(trace_io.write_trace(
                trace, tmp_path / f"{layout}{i}", layout))
            assert rep.ok
            _assert_as_constructed(back)
