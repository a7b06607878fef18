"""The column-wise trace writers against the row-wise writers they replaced.

``_rowwise_flat`` and ``_rowwise_distributed`` build one {column: value}
dict per record and format every cell on its own with ``_fmt``, row by
row, as the writers did before they gathered and formatted by column;
each is the reference its writer must match byte for byte.  The traces
are built by hand to reach what ``random_trace`` and
``generate`` never write: signed zeros, subnormals, large and non-finite
floats, numpy scalars and plain ints in float fields, columns filled on
some rows only, equal but distinct outline objects, and records missing
from or off the VUT clock.
"""

import csv
import math
from dataclasses import replace

import numpy as np
import pytest

from vistakit import schema, trace_io
from vistakit.frames import LocalFrame
from vistakit.model import (
    ActorState,
    BoundingShape,
    GeoPosition,
    ObstacleState,
    Trace,
    TrafficControllerState,
    VcsPosition,
)
from vistakit.positions import shape_to_array

from conftest import BASE, geo_quad, random_trace, simple_vut
from test_golden import edge_trace


def _fmt(v) -> str:
    cls = v.__class__
    if cls is float:
        return "inf" if math.isinf(v) else repr(v)
    if cls is str:
        return v
    if cls is bool:
        return "1" if v else "0"
    if v is None:
        return ""
    if isinstance(v, BoundingShape):
        return shape_to_array(v)
    if isinstance(v, float):
        return "inf" if math.isinf(v) else repr(float(v))
    return str(v)


def _vut_values(r) -> dict:
    v = {col: getattr(r, field)
         for col, field in trace_io._FIELDS["vut"].items()}
    v.update(VUT_pos_lat=r.pos.lat, VUT_pos_lon=r.pos.lon,
             VUT_pos_z=r.pos.elev)
    for col, flag in trace_io._INDICATORS:
        v[col] = flag in r.indicators
    return v


def _entity_value(group, r) -> dict:
    v = {col: getattr(r, field)
         for col, field in trace_io._FIELDS[group].items()}
    if group == "actor":
        p = r.pos
        geo = isinstance(p, GeoPosition)
        v.update(Actor_pos_true_lat=p.lat if geo else None,
                 Actor_pos_true_lon=p.lon if geo else None,
                 Actor_pos_true_x=None if geo else p.x,
                 Actor_pos_true_y=None if geo else p.y,
                 Actor_pos_true_z=p.elev if geo else p.z)
    elif group == "obstacle":
        v.update(Obst_pos_lat=r.pos.lat, Obst_pos_lon=r.pos.lon)
    return v


def _entity_values(trace, group) -> list:
    """[(record, values)] of one group, entity by entity."""
    table = {"actor": trace.actors, "obstacle": trace.obstacles,
             "controller": trace.controllers}[group]
    return [[(r, _entity_value(group, r)) for r in recs]
            for recs in table.values()]


def _columns(candidates, rows, always=()) -> list:
    cols = [c for c in candidates
            if schema.BY_NAME[c].required == "yes" or c in always
            or any(r[c] is not None for r in rows)]
    pos = [c for c in cols if schema.BY_NAME[c].required == "alt_pos"]
    assert len(pos) <= 2
    if not pos and "Actor_pos_true_lat" in candidates:
        cols = [c for c in candidates if c in cols or c in (
            "Actor_pos_true_lat", "Actor_pos_true_lon")]
    return cols


def _write_rows(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _rowwise_flat(trace, directory):
    directory.mkdir(parents=True)
    path = directory / schema.flat_filename(trace.testcase_id, trace.run_id)
    vut = [_vut_values(r) for r in trace.vut]
    vut_cols = _columns(schema.ROLE_COLUMNS[schema.ROLE_VUT], vut)
    segments = []
    for group in trace_io._ENTITY_GROUPS:
        for entity in _entity_values(trace, group):
            cols = _columns(schema.column_names(group),
                                     [v for _, v in entity])
            segments.append((cols, {r.step: v for r, v in entity}))
    rows = []
    for rec, values in zip(trace.vut, vut):
        row = [_fmt(values[c]) for c in vut_cols]
        for cols, by_step in segments:
            ent = by_step.get(rec.step)
            row += [""] * len(cols) if ent is None else \
                [_fmt(ent[c]) for c in cols]
        rows.append(row)
    _write_rows(path, vut_cols + [c for cols, _ in segments for c in cols],
                rows)
    return path


def _rowwise_distributed(trace, directory):
    root = directory / schema.dir_name(trace.testcase_id, trace.run_id)
    root.mkdir(parents=True)
    values = {group: [rv for entity in _entity_values(trace, group)
                      for rv in entity] for group in trace_io._ENTITY_GROUPS}
    vut = [_vut_values(r) for r in trace.vut]
    cols = _columns(schema.ROLE_COLUMNS[schema.ROLE_VUT], vut)
    _write_rows(root / schema.ROLE_VUT, cols,
                [[_fmt(v[c]) for c in cols] for v in vut])
    roles = [(role, values[group], ())
             for role, group in trace_io._TRUE_ROLES]
    roles += [(role, [(r, v) for r, v in values[group]
                      if field is not None and getattr(r, field) is not None],
               (column,))
              for role, (group, column, field) in trace_io._OVERLAYS.items()]
    for role, records, always in roles:
        cols = _columns(schema.ROLE_COLUMNS[role],
                                 [v for _, v in records], always)
        by_step = {}
        for r, v in records:
            by_step.setdefault(r.step, []).append(v)
        _write_rows(root / role, cols,
                    [[_fmt(v[c]) for c in cols]
                     for rec in trace.vut for v in by_step.get(rec.step, ())])
    return root


def _files(path):
    paths = sorted(path.iterdir()) if path.is_dir() else [path]
    return {p.name: p.read_bytes() for p in paths}


def _assert_same_bytes(trace, tmp_path):
    for layout, reference in (("flat", _rowwise_flat),
                              ("distributed", _rowwise_distributed)):
        want = _files(reference(trace, tmp_path / f"{layout}-rowwise"))
        got = _files(trace_io.write_trace(trace, tmp_path / layout, layout))
        assert got == want, layout


FRAME = LocalFrame.at(BASE)
ODD_FLOATS = [-0.0, 5e-324, 1e16, 1e22, np.float64(0.1), 3, -2.5e-7, 0.0]


def _vut(n=8):
    return [simple_vut(
        k, k * 0.1, lat=BASE.lat + k * 1e-5, speed=float(k % 3),
        acc_lat=ODD_FLOATS[k % len(ODD_FLOATS)],
        yaw_rate=np.float64(k * 0.7),           # numpy scalars throughout
        steering_angle=k * 2,                   # plain ints throughout
        travelled=[0, 1.5, 2, 1e16][k % 4],     # ints and floats mixed
        pitch_rate=-0.0 if k % 3 == 0 else None,
        indicators=frozenset({"brake"} if k % 2 else ()),
        pos=GeoPosition(BASE.lat + k * 1e-5, BASE.lon,
                        12.5 if k % 2 else None))
        for k in range(n)]


def _world_trace():
    vut = _vut()
    box = geo_quad(FRAME, 0.0, 20.0, 1.0, 2.0)
    twin = geo_quad(FRAME, 0.0, 20.0, 1.0, 2.0)      # equal, not the same
    assert box == twin and box is not twin
    a1 = tuple(ActorState(
        time=r.time, step=r.step, actor_id="A1", actor_type="tsv",
        pos=FRAME.from_local(0.0, 20.0), bbox_true=(box, twin)[k % 2],
        speed=ODD_FLOATS[k % 4] if k % 4 != 0 else 0.0, vel_lat=1e22,
        vel_long=np.float64(-0.0), acc_lat=0, acc_long=5e-324,
        ttc=math.inf if k % 3 else 2.5,
        heading=None if k % 2 else 90.0,           # None on some rows
        bbox_perceived=twin if k == 2 else None)
        for k, r in enumerate(vut) if k not in (1, 4, 5))
    a2 = tuple(ActorState(
        time=r.time, step=r.step, actor_id="A2", actor_type="vru_cyclist",
        pos=FRAME.from_local(3.0, 5.0, elev=-0.0), bbox_true=None,
        speed=1.0, vel_lat=0.0, vel_long=1.0, acc_lat=0.0, acc_long=0.0,
        ttc=math.inf, heading=None)                # None on every row
        for r in vut[3:6])
    poly = geo_quad(FRAME, -4.0, 30.0, 0.5, 0.5)
    obstacles = {"CONE": tuple(ObstacleState(
        time=r.time, step=r.step, obstacle_id="CONE", obst_type=100 + k,
        pos=FRAME.from_local(-4.0, 30.0), poly_true=poly,
        ntd=math.inf if k % 2 else 1e16,
        poly_perceived=poly if k % 3 == 0 else None)
        for k, r in enumerate(vut[::2]))}
    controllers = {"TL1": tuple(TrafficControllerState(
        time=r.time, step=r.step, controller_id="TL1",
        phase=("go", "stop")[k % 2]) for k, r in enumerate(vut[1:6]))}
    trace = Trace(testcase_id="TC-COLS-01", run_id=3, vut=tuple(vut),
                  actors={"A1": a1, "A2": a2}, obstacles=obstacles,
                  controllers=controllers)
    # An actor record off the VUT clock, which Trace itself refuses.
    off = replace(a1[-1], step=99, time=9.9, bbox_perceived=box)
    object.__setattr__(trace, "actors", {**trace.actors, "A1": a1 + (off,)})
    return trace


def _vcs_trace():
    vut = _vut(6)
    shape = BoundingShape("vcs", (
        VcsPosition(1.0, -1.0, 0.5), VcsPosition(3.0, -1.0, 0.5),
        VcsPosition(3.0, 1.0, -0.0), VcsPosition(1.0, 1.0, 1e22)))
    actors = {"V1": tuple(ActorState(
        time=r.time, step=r.step, actor_id="V1", actor_type="tsv",
        pos=VcsPosition(2.0, 0.0, 0.25 if k % 2 else None),
        bbox_true=shape, bbox_perceived=shape if k > 2 else None,
        speed=2.0, vel_lat=-0.0, vel_long=2.0, acc_lat=0.0, acc_long=0.0,
        ttc=math.inf, heading=np.float64(45.0))
        for k, r in enumerate(vut) if k != 2)}
    return Trace(testcase_id="TC-COLS-02", run_id=1, vut=tuple(vut),
                 actors=actors)


def _non_finite_trace():
    # The record types refuse these values, but _fmt writes them (-inf as
    # "inf"), so a record changed after its checks writes them too.
    vut = _vut(4)
    for r, v in zip(vut, (math.inf, -math.inf, math.nan, 1.0)):
        object.__setattr__(r, "acc_long", v)
    return Trace(testcase_id="TC-COLS-03", run_id=1, vut=tuple(vut))


@pytest.mark.parametrize("make", [_world_trace, _vcs_trace,
                                  _non_finite_trace, edge_trace])
def test_column_writers_match_rowwise_reference(make, tmp_path):
    _assert_same_bytes(make(), tmp_path)


def test_random_traces_match_rowwise_reference(tmp_path):
    for seed in range(20):
        _assert_same_bytes(random_trace(np.random.default_rng(seed)),
                           tmp_path / str(seed))


def test_each_outline_object_is_formatted_once(tmp_path, monkeypatch):
    calls = []

    def counted(shape):
        calls.append(shape)
        return shape_to_array(shape)

    monkeypatch.setattr(trace_io, "shape_to_array", counted)
    # A1's outlines alternate between two equal but distinct objects, A2
    # has none, and one object is the obstacle's true and perceived one.
    trace = _world_trace()
    trace_io.write_distributed(trace, tmp_path)
    assert len(calls) == 3
    calls.clear()
    trace_io.write_flat(trace, tmp_path)
    assert len(calls) == 3
