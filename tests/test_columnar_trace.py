"""Traces held as columns, with records built only when something reads
them.

The readers and the synthesizer make a ``Trace`` from ``Channel``
columns, and ``trace.vut`` and the entity tables build their records on
first read.  Such a trace must be indistinguishable from the same trace
made from records (equality, ``repr``, ``dataclasses.replace`` and the
type of every field), and ``validate``, ``fidelity`` and ``evaluate``
must build no record at all.
"""

import collections
import itertools
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from vistakit import cli, model, synth, trace_io
from vistakit.model import (
    ActorState,
    BoundingShape,
    Channel,
    GeoPosition,
    ObstacleState,
    Trace,
    TrafficControllerState,
    VcsPosition,
    VutState,
)
from vistakit.trace_io import parse_trace, write_trace

from conftest import random_trace
from predicates import obstacle_from_actor
from test_perturb import RECORD_TYPES, _constructed, _loop_perturb

RECORDS = (VutState, ActorState, ObstacleState, TrafficControllerState)
TABLES = ("vut", "actors", "obstacles", "controllers")


def _types(value):
    """The type of a value and, for a record, position or outline, of
    each of its fields, nested ones included."""
    if isinstance(value, tuple):
        return tuple(map(_types, value))
    if isinstance(value, RECORD_TYPES):
        return type(value), tuple(_types(getattr(value, f.name))
                                  for f in fields(value))
    return type(value)


def _record_types(trace):
    return [_types(trace.vut)] + [
        sorted((eid, _types(recs)) for eid, recs in getattr(trace, t).items())
        for t in TABLES[1:]]


def _channels(trace) -> list:
    return [trace.channels("vut")] + [
        c for t in TABLES[1:] for c in trace.channels(t).values()]


def _columns_only(trace) -> bool:
    """Whether no record of the trace has been built yet."""
    return all(c._records is None for c in _channels(trace))


def assert_equivalent(columnar, constructed):
    """columnar, a trace of columns, is the trace constructed from
    records: by ==, repr, replace and the type of every record field."""
    assert _columns_only(columnar)
    assert columnar.vut_steps == constructed.vut_steps
    assert columnar == constructed and constructed == columnar
    assert repr(columnar) == repr(constructed)
    a, b = replace(columnar, run_id=7), replace(constructed, run_id=7)
    assert a == b and repr(a) == repr(b)
    assert _record_types(columnar) == _record_types(constructed)


def _from_columns(trace) -> Trace:
    """trace made again from fresh channels of its columns."""
    def fresh(channel):
        return Channel(channel.type, dict(channel.columns))
    return Trace._checked(
        trace.testcase_id, trace.run_id, fresh(trace.channels("vut")),
        *({k: fresh(c) for k, c in trace.channels(t).items()}
          for t in TABLES[1:]), trace.declared_frequency)


SEEDS = range(40)


def test_random_traces_from_columns_equal_constructed():
    seen = collections.Counter()
    for seed in SEEDS:
        trace = random_trace(np.random.default_rng(seed))
        assert_equivalent(_from_columns(trace), trace)
        actors = list(itertools.chain(*trace.actors.values()))
        seen.update(vcs=any(isinstance(r.pos, VcsPosition) for r in actors),
                    perceived=any(r.bbox_perceived for r in actors))
    assert min(seen.values()) >= 4, seen


@pytest.mark.parametrize("layout", ["flat", "distributed"])
def test_parsed_random_traces_equal_constructed(tmp_path, layout):
    """The readers' traces, VCS actors and perceived overlays included."""
    for seed in SEEDS:
        trace = random_trace(np.random.default_rng(seed))
        back, rep = parse_trace(write_trace(trace, tmp_path / str(seed),
                                            layout))
        assert rep.ok
        assert_equivalent(back, _reordered(trace, back))


def _reordered(trace, parsed) -> Trace:
    """trace made from its records with the entity order and declared
    frequency of its parse, which a write does not keep."""
    return Trace(trace.testcase_id, trace.run_id, trace.vut,
                 *({k: getattr(trace, t)[k] for k in parsed.channels(t)}
                   for t in TABLES[1:]), parsed.declared_frequency)


def _obstacle_coded(trace) -> Trace:
    """trace with one more actor that is an obstacle in disguise."""
    recs = tuple(ActorState(
        time=r.time, step=r.step, actor_id="CONE-9", actor_type="150",
        pos=r.pos, bbox_true=BoundingShape("wgs84", (
            GeoPosition(r.pos.lat, r.pos.lon),
            GeoPosition(r.pos.lat + 1e-5, r.pos.lon),
            GeoPosition(r.pos.lat, r.pos.lon + 1e-5))),
        speed=0.0, vel_lat=0.0, vel_long=0.0, acc_lat=0.0, acc_long=0.0,
        ttc=math.inf if r.step % 2 else 1.5) for r in trace.vut[::2])
    return replace(trace, actors={**trace.actors, "CONE-9": recs})


@pytest.mark.parametrize("layout", ["flat", "distributed"])
def test_obstacle_coded_actor_moves_as_constructed(tmp_path, layout):
    for seed in range(10):
        trace = random_trace(np.random.default_rng(seed))
        if any(isinstance(r.pos, VcsPosition)
               for r in itertools.chain(*trace.actors.values())):
            continue            # one table cannot hold both frames
        trace = _obstacle_coded(trace)
        back, rep = parse_trace(write_trace(trace, tmp_path / str(seed),
                                            layout))
        assert rep.ok and "CONE-9" in back.channels("obstacles")
        actors = dict(trace.actors)
        cone = tuple(map(obstacle_from_actor, actors.pop("CONE-9")))
        assert_equivalent(back, _reordered(replace(
            trace, actors=actors,
            obstacles={**trace.obstacles, "CONE-9": cone}), back))


@pytest.mark.parametrize("shift", [1.25, -0.0, 0.0])
def test_perturbed_traces_equal_constructed(shift):
    # A channel the shift leaves as it is stays shared with the input,
    # which here is made of columns.
    for seed in SEEDS:
        trace = random_trace(np.random.default_rng(seed))
        assert_equivalent(synth.perturb(_from_columns(trace),
                                        time_shift=shift, seed=seed),
                          _loop_perturb(trace, time_shift=shift, seed=seed))


def test_synthesized_trace_equals_constructed():
    trace = synth.synthesize(synth.ScenarioSpec(), 2)
    twin = synth.synthesize(synth.ScenarioSpec(), 2)
    assert_equivalent(trace, Trace(
        twin.testcase_id, twin.run_id, _constructed(twin.vut),
        *({k: _constructed(v) for k, v in getattr(twin, t).items()}
          for t in TABLES[1:]), twin.declared_frequency))


def test_setting_a_channel_replaces_its_columns():
    trace = random_trace(np.random.default_rng(3))
    vut = trace.vut[:2]
    object.__setattr__(trace, "vut", vut)
    assert trace.channels("vut").columns["step"] == [0, 1]
    assert trace.vut is vut and "vut" not in trace.__dict__


@pytest.mark.parametrize("made", ["parsed", "synthesized", "perturbed"])
def test_reading_records_keeps_the_columns(tmp_path, made):
    """A channel's columns are the same dict of the same lists before and
    after its records are built, and the trace holds the records only in
    its channels."""
    trace = synth.synthesize(synth.ScenarioSpec(), 2)
    if made == "parsed":
        trace, _ = parse_trace(write_trace(trace, tmp_path, "distributed"))
    elif made == "perturbed":
        trace = synth.perturb(trace, pos_sigma=0.1, speed_sigma=0.1,
                              time_shift=0.5, seed=4)
    held = [(c.columns, dict(c.columns)) for c in _channels(trace)]
    assert _columns_only(trace) and len(held) == 2
    assert trace.vut and all(map(len, trace.actors.values()))
    for channel, (columns, lists) in zip(_channels(trace), held):
        assert channel._records is not None
        assert channel.columns is columns
        assert columns.keys() == lists.keys()
        assert all(columns[name] is lists[name] for name in lists)
    assert set(trace.__dict__) == {
        "testcase_id", "run_id", "declared_frequency",
        *(f"_{t}" for t in TABLES)}


# --- what builds records ----------------------------------------------------

@pytest.fixture(scope="module")
def run100(tmp_path_factory):
    """A clean 100 Hz case-2 run written once per layout."""
    root = tmp_path_factory.mktemp("run100")
    run = synth.synthesize_runs(synth.ScenarioSpec(sample_rate=100.0), 2,
                                count=1)[0]
    return {"flat": trace_io.write_flat(run, root),
            "distributed": trace_io.write_distributed(run, root)}


@pytest.fixture
def builds(monkeypatch):
    """Counter of the records built, by record type, in model and
    trace_io alike."""
    built = collections.Counter()

    def counting(build):
        def wrapper(cls, n, *values):
            if cls in RECORDS:
                built[cls.__name__] += 1
            return build(cls, n, *values)
        return wrapper
    for module in (model, trace_io):
        monkeypatch.setattr(module, "_build", counting(module._build))
    return built


@pytest.mark.parametrize("layout", ["flat", "distributed"])
def test_validate_and_fidelity_build_no_record(run100, builds, capsys,
                                               layout):
    path = str(run100[layout])
    assert cli.main(["validate", path]) == 0
    other = str(run100["flat" if layout == "distributed" else
                       "distributed"])
    assert cli.main(["fidelity", path, other]) == 0
    assert builds == {}


def test_evaluate_builds_each_channel_once(tmp_path, builds, capsys):
    for case, verdict in ((1, 1), (2, 1), (3, 0)):
        runs = tmp_path / f"runs{case}"
        assert cli.main(["generate", "--case", str(case), "--runs", "3",
                         "--out", str(runs)]) == 0
        assert builds == {}
        assert cli.main(["evaluate", str(runs), "--n-required", "3", "--out",
                         str(tmp_path / f"out{case}"), "--series"]) == verdict
    # Clearance and the rules read the columns of the runs' VUT and actor
    # channels; --series builds only the clearance samples.
    assert builds == {}


def test_flat_clock_is_decoded_once(tmp_path, monkeypatch):
    """The flat readers share one decoding of the clock columns: on a
    case-2 file (one VUT and one actor group) each column is decoded
    once."""
    trace = synth.synthesize(synth.ScenarioSpec(), 2)
    path = trace_io.write_flat(trace, tmp_path)
    decoded = collections.Counter()
    bulk = trace_io._bulk

    def counting(cells, name):
        decoded[name] += 1
        return bulk(cells, name)
    monkeypatch.setattr(trace_io, "_bulk", counting)
    back, rep = parse_trace(path)
    assert rep.findings == [] and back == trace
    assert decoded["Time"] == decoded["Step_number"] == 1
    assert set(decoded.values()) == {1}
