"""``synth.perturb`` against the row-by-row loop it replaced.

``_loop_perturb`` is the loop ``perturb`` ran before it worked per
channel, with the VUT elevation kept, as the reference the channel pass
must match exactly: the same records (compared by ``repr``, so signed
zeros and float bits count) and the same errors.
"""

import functools
import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from vistakit import synth, trace_io
from vistakit.frames import LocalFrame
from vistakit.model import ActorState, GeoPosition, Trace

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
])
def test_errors_match_loop_reference(make, kw):
    trace = make(_case(1, 10.0))
    want = _outcome(_loop_perturb, trace, seed=4, **kw)
    assert not want.startswith("Trace("), want
    assert _outcome(synth.perturb, trace, seed=4, **kw) == want


_SIZES = """
import sys
from dataclasses import replace
from vistakit import synth, trace_io
if sys.argv[1] == "perturb":
    # The first VUT and actor records this interpreter makes are the
    # reader's, then perturb's.
    trace, _ = trace_io.parse_trace(sys.argv[2])
    trace = synth.perturb(trace, pos_sigma=0.05, speed_sigma=0.05,
                          time_shift=0.5)
    recs = trace.vut[-1], trace.vut[-1].pos, trace.actors["TSV-01"][-1]
else:
    trace = synth.synthesize(case=1)
    recs = [replace(r) for r in (trace.vut[-1], trace.vut[-1].pos,
                                 trace.actors["TSV-01"][-1])]
print([sys.getsizeof(r.__dict__) for r in recs])
"""


def _sizes(*args):
    return subprocess.run([sys.executable, "-c", _SIZES, *args], check=True,
                          capture_output=True, text=True).stdout


def test_built_records_share_instance_keys(tmp_path):
    # A record whose class never got its attribute keys registered holds
    # a dict of its own, about 400 bytes more per record.
    path = trace_io.write_flat(_case(1, 10.0), tmp_path)
    assert _sizes("perturb", str(path)) == _sizes("construct")
    twin = synth.perturb(_case(1, 10.0), speed_sigma=0.05)
    for rec in twin.vut[-1], twin.vut[-1].pos, twin.actors["TSV-01"][-1]:
        assert sys.getsizeof(rec.__dict__) == \
            sys.getsizeof(replace(rec).__dict__)
