"""Float channels are read-only float64 arrays, NaN for no value, and
the records and files made from them are those of Python floats.

Seeded traces with world and VCS actors (one frame per actor: a table
holding both is refused by the distributed writer), optional columns
absent or filled on some rows only, signed zeros and infinite TTCs.
"""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

from vistakit.frames import LocalFrame
from vistakit.model import FLOATS, ActorState, BoundingShape, VcsPosition
from vistakit.trace_io import parse_trace, write_trace

from conftest import BASE, random_trace

SEEDS = range(12)
FRAME = LocalFrame.at(BASE)


def _actor(rng, vut, eid, vcs):
    """An actor on every other VUT step, in one frame."""
    zeros = [-0.0, 0.0]
    rows = []
    for k, r in enumerate(vut[::2]):
        if vcs:
            pos = VcsPosition(float(rng.uniform(5, 30)), zeros[k % 2],
                              None if k % 3 else float(rng.uniform(0, 2)))
            box = BoundingShape("vcs", tuple(
                VcsPosition(pos.x + dx, pos.y + dy)
                for dx, dy in ((-1, -1), (1, -1), (1, 1), (-1, 1))))
        else:
            pos = FRAME.from_local(float(rng.uniform(-20, 20)),
                                   float(rng.uniform(5, 30)))
            box = None
        rows.append(ActorState(
            time=r.time, step=r.step, actor_id=eid, actor_type="tsv",
            pos=pos, bbox_true=box, speed=zeros[k % 2],
            vel_lat=zeros[(k + 1) % 2], vel_long=float(rng.uniform(0, 9)),
            acc_lat=-0.0, acc_long=0.0,
            ttc=(math.inf, -0.0, 0.0, float(rng.uniform(0, 9)))[k % 4],
            heading=None if k % 2 else float(rng.uniform(0, 360))))
    return tuple(rows)


def _in_row_order(trace):
    """trace with its entities in the order a reader meets them: by first
    step, then as they stand."""
    return replace(trace, **{t: dict(sorted(
        getattr(trace, t).items(), key=lambda item: item[1][0].step))
        for t in ("actors", "obstacles", "controllers")})


def _traces():
    """(layout, trace) pairs."""
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        trace = random_trace(rng)
        vcs = any(isinstance(r.pos, VcsPosition)
                  for recs in trace.actors.values() for r in recs)
        one = {"F1": _actor(rng, trace.vut, "F1", vcs)}
        yield "distributed", _in_row_order(replace(
            trace, actors={**one, **trace.actors}))
        yield "flat", _in_row_order(replace(trace, actors={
            **one, "F2": _actor(rng, trace.vut, "F2", not vcs),
            **trace.actors}))


def _files(path):
    paths = sorted(path.iterdir()) if path.is_dir() else [path]
    return {p.name: p.read_bytes() for p in paths}


def _channels(trace):
    return [trace.channels("vut")] + [
        c for t in ("actors", "obstacles", "controllers")
        for c in trace.channels(t).values()]


def _float_values(record):
    for f in fields(record):
        value = getattr(record, f.name)
        if f.name == "pos":
            yield from (getattr(value, g.name) for g in fields(value))
        elif f.name in FLOATS[type(record)]:
            yield value


@pytest.mark.parametrize("k", range(2 * len(SEEDS)))
def test_float_columns_round_trip_as_python_floats(tmp_path, k):
    layout, trace = list(_traces())[k]
    first = write_trace(trace, tmp_path / "a", layout)
    back, rep = parse_trace(first)
    assert rep.ok, [f.render() for f in rep.findings]
    assert back == trace
    second = write_trace(back, tmp_path / "b", layout)
    assert _files(second) == _files(first)
    for text in map(bytes.decode, _files(first).values()):
        cells = text.replace("\n", ",").split(",")
        assert not {c for c in cells if c.lower() == "nan"}
    for channel in _channels(back):
        for record in channel.records:
            assert {type(v) for v in _float_values(record)} <= {
                float, type(None)}
        for name in FLOATS[channel.type]:
            column = channel.columns[name]
            assert column.dtype == np.float64 and column.ndim == 1
            with pytest.raises(ValueError):
                column[0] = 1.0
