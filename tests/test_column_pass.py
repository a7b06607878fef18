"""The readers' column pass against the row decoder.

``parse_trace`` decodes each file column by column, and the column pass
reports every finding itself, those of the perceived overlays included.
:func:`row_by_row` parses with the row decoder of ``row_decoder`` in
place of ``_Reader.read_columns`` and ``_attach``, so every row goes
through it: that is the reference, and the column pass must give the
same findings, in the same order, and the same trace.
"""

import csv
import dataclasses
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

from vistakit import schema, synth, trace_io
from vistakit.errors import VistaError
from vistakit.frames import LocalFrame
from vistakit.model import (
    ActorState,
    GeoPosition,
    ObstacleState,
    TrafficControllerState,
)
from vistakit.positions import shape_from_array
from vistakit.trace_io import parse_trace, write_distributed, write_flat

import row_decoder
import test_io_golden
from conftest import BASE, geo_quad, random_trace, simple_vut
from test_io_golden import ACTOR_OK
from test_trace_io import MIN_HEADER, ROW0, ROW1


def row_by_row(path, monkeypatch):
    """parse_trace with every row read by the row decoder."""
    with monkeypatch.context() as m:
        m.setattr(trace_io._Reader, "read_columns", row_decoder.read_columns)
        m.setattr(trace_io, "_attach", row_decoder.attach)
        return parse_trace(path)


def outcome(path, monkeypatch=None):
    """The rendered findings and the repr of the trace of one parse."""
    trace, rep = (row_by_row(path, monkeypatch) if monkeypatch
                  else parse_trace(path))
    return [f.render() for f in rep.findings], repr(trace)


def assert_same_as_row_decoder(path, monkeypatch):
    """The column pass's (findings, trace), once they are checked to be
    the row decoder's."""
    trace, rep = parse_trace(path)
    findings = [f.render() for f in rep.findings]
    assert (findings, repr(trace)) == outcome(path, monkeypatch)
    return findings, trace


# --- a 100 Hz case-2 run in both layouts -----------------------------------

@pytest.fixture(scope="module")
def run100():
    spec = synth.ScenarioSpec(sample_rate=100.0)
    return synth.synthesize_runs(spec, 2, count=1)[0]


@pytest.fixture(scope="module")
def written(run100, tmp_path_factory):
    """The run written once per layout."""
    root = tmp_path_factory.mktemp("run100")
    return {"flat": write_flat(run100, root),
            "distributed": write_distributed(run100, root)}


def _edited(written, root, edits):
    """A copy of a written run with cells set: (role file, data row,
    column, text)."""
    if written.is_file():
        path = Path(shutil.copy(written, root))
    else:
        path = Path(shutil.copytree(written, root / written.name))
    for role in dict.fromkeys(role for role, *_ in edits):
        p = path if path.is_file() else path / role
        with open(p, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        for _, row, column, text in (e for e in edits if e[0] == role):
            rows[row + 1][rows[0].index(column)] = text
        with open(p, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
    return path


VUT = schema.ROLE_VUT
ACTORS = schema.ROLE_ACTORS_TRUE
BOWTIE = "|1.3541 103.6959|1.3543 103.6961|1.3541 103.6961|1.3543 103.6959|"

EDITS = {
    "one bad cell deep in the file": [(VUT, 1500, "VUT_speed", "fast")],
    "two bad rows": [(ACTORS, 1200, "Actor_vel_abs", "x"),
                     (VUT, 1800, "VUT_heading", "inf")],
    "bad outlines": [(ACTORS, 1600, "Actor_bbox_true", "|1 2|3 4|"),
                     (ACTORS, 1601, "Actor_bbox_true", BOWTIE),
                     (ACTORS, 1602, "Actor_bbox_true", "|1.3541 199|")],
    "values the bounds reject": [(VUT, 1500, "VUT_throttle", "1.5"),
                                 (VUT, 1700, "VUT_pos_lat", "99"),
                                 (ACTORS, 1750, "Actor_pos_true_lat", "99"),
                                 (ACTORS, 1760, "Actor_TTC", "nan"),
                                 (VUT, 1900, "Step_number", "-1"),
                                 (VUT, 1950, "VUT_acc_lat", "inf")],
    # Accepted by both paths, though not in the writer's form: the column
    # pass decodes them once more, alone, or leaves them to
    # shape_from_array.
    "other grammar": [(VUT, 10, "VUT_heading", "370.0"),
                      (VUT, 11, "VUT_speed", " 5.0 "),
                      (VUT, 12, "VUT_ind_brake", "true"),
                      (ACTORS, 13, "Actor_heading", "-90"),
                      (ACTORS, 14, "Actor_bbox_true",
                       "< 4 |1.3541 103.6959|1.3543 103.6959|"
                       "1.3543 103.6961|1.3541 103.6961|>"),
                      (ACTORS, 15, "Actor_bbox_true",
                       "|1.3541 103.6959|1.3543 103.6959|1.3543 103.6961|"
                       "1.3541 103.6961|1.3541 103.6959|"),
                      (ACTORS, 16, "Actor_bbox_true",
                       "|1.3541 103.6959 4|1.3543 103.6959|"
                       "1.3543 103.6961|")],
}


@pytest.mark.parametrize("layout", ["flat", "distributed"])
@pytest.mark.parametrize("case", sorted(EDITS))
def test_column_pass_matches_row_decoder(written, tmp_path, monkeypatch,
                                         layout, case):
    path = _edited(written[layout], tmp_path, EDITS[case])
    findings, trace = assert_same_as_row_decoder(path, monkeypatch)
    assert (findings == []) == (case == "other grammar")
    assert (trace is None) != (case == "other grammar")


def test_rows_findings_stay_in_file_order(written, tmp_path):
    path = _edited(written["flat"], tmp_path,
                   [(None, 1800, "VUT_heading", "inf"),
                    (None, 1200, "Actor_vel_abs", "x")])
    findings, _ = outcome(path)
    assert [f.split()[2] for f in findings] == [
        f"{path.name}:1202", f"{path.name}:1802"]


@pytest.mark.parametrize("layout", ["flat", "distributed"])
def test_clean_run_needs_no_row_decoder(run100, written, monkeypatch,
                                        layout):
    """A clean run checks no record through its constructors and parses
    no outline on its own: no row is decoded as a row decoder would."""
    path = written[layout]
    calls = []
    monkeypatch.setattr(trace_io, "_checked",
                        lambda rec: calls.append(rec) or rec)
    monkeypatch.setattr(trace_io, "shape_from_array",
                        lambda *a, **k: calls.append(a) or None)
    trace, rep = parse_trace(path)
    assert rep.ok and trace == run100
    assert calls == []


# Both position pairs in one actor header, as the writers never write it.
BOTH_PAIRS = ("Actor_Id,Actor_type,Actor_pos_true_lat,Actor_pos_true_lon,"
              "Actor_pos_true_x,Actor_pos_true_y,Actor_bbox_true,"
              "Actor_vel_abs,Actor_vel_lat,Actor_vel_long,Actor_acc_lat,"
              "Actor_acc_long,Actor_heading,Actor_TTC")
BOX = "|1.3539 103.6959|1.3539 103.6961|1.3541 103.6961|1.3541 103.6959|"
# A VCS actor, and an outline that is valid in the VCS frame only.
VCS_ACTOR = test_io_golden._actor(
    Actor_pos_true_lat="", Actor_pos_true_lon="", Actor_pos_true_x="10",
    Actor_pos_true_y="0", Actor_bbox_true="")
VCS_BOX = "|100 -1|102 -1|102 1|100 1|"
_folder, _role = test_io_golden._folder, test_io_golden._role
_actors_true = test_io_golden._actors_true
ACTORS_P = "Actor_Id,Actor_bbox_perceived"
OBSTACLES_P = "Obst_Id,Obst_poly_perceived"
OBSTACLES = _role(test_io_golden.OBST_HEADER,
                  f"0.0,0,{test_io_golden.OBST_OK}")
CTRL = test_io_golden.CTRL_HEADER
CORPUS = dict(test_io_golden.CORPUS, **{
    "flat half world pair beside a whole VCS pair": test_io_golden._flat(
        f"{ROW0},A1,tsv,1.354,,10,0,,2,0,2,0,0,90,inf",
        f"{ROW1},A1,tsv,1.354,103.696,,,,2,0,2,0,0,90,inf",
        header=f"{MIN_HEADER},{BOTH_PAIRS}"),
    "flat one outline text in both frames": test_io_golden._flat(
        f"{ROW0},A1,tsv,1.354,103.696,,,{BOX},2,0,2,0,0,90,inf",
        f"{ROW1},A1,tsv,,,10,0,{BOX},2,0,2,0,0,90,inf",
        header=f"{MIN_HEADER},{BOTH_PAIRS}"),
    # The alt_pos rule comes before every other cell but the clock's.
    "flat alt_pos rule before the other cells": test_io_golden._flat_actor(
        test_io_golden._actor(Actor_pos_true_lon="", Actor_vel_abs="x"),
        test_io_golden._actor(Actor_type="", Actor_pos_true_lat="",
                              Actor_pos_true_lon="")),
    # The perceived overlays.
    "dist perceived outline valid in the VCS frame only": _folder(
        actors=_actors_true(f"0.0,0,{VCS_ACTOR}", f"0.1,1,{ACTOR_OK}"),
        actors_p=_role(ACTORS_P, f"0.0,0,A1,{VCS_BOX}",
                       f"0.1,1,A1,{VCS_BOX}")),
    "dist perceived orphan with a bad outline": _folder(
        actors=_actors_true(f"0.0,0,{ACTOR_OK}"),
        actors_p=_role(ACTORS_P, "0.1,1,A1,|1 2|", f"0.0,0,A1,{BOX}"),
        obstacles=OBSTACLES,
        obstacles_p=_role(OBSTACLES_P, "0.1,1,CONE,|1 2|3|",
                          "0.0,0,CONE,|1 2|3|")),
    "dist perceived empty id, bad step and bad outline": _folder(
        actors=_actors_true(f"0.0,0,{ACTOR_OK}"),
        actors_p=_role(ACTORS_P, "0.0,x,,|1 2|", "0.0,,A1,|1 2|",
                       "0.0,-1,A1,|1 2|"),
        obstacles=OBSTACLES,
        obstacles_p=_role(OBSTACLES_P, "0.0,x, ,|1 2|")),
    "dist perceived short and long rows": _folder(
        actors=_actors_true(f"0.0,0,{ACTOR_OK}", f"0.1,1,{ACTOR_OK}"),
        actors_p=_role(ACTORS_P, "0.0,0,A1", f"0.1,1,A1,{BOX},extra",
                       "0.1", "0.1,1,A1,|1 2|,x"),
        obstacles=OBSTACLES,
        obstacles_p=_role(OBSTACLES_P, "0.0,0", "0.0,0,CONE,,,")),
    "dist perceived bad time": _folder(
        actors=_actors_true(f"0.0,0,{ACTOR_OK}", f"0.1,1,{ACTOR_OK}"),
        actors_p=_role(ACTORS_P, f"x,0,A1,{BOX}", f",1,A1,{BOX}"),
        obstacles=OBSTACLES,
        obstacles_p=_role(OBSTACLES_P,
                          f"-1,0,CONE,{test_io_golden.POLY}")),
    "dist perceived lights empty phase and negative step": _folder(
        lights=_role(CTRL, "0.0,0,TL1,go", "0.1,1,TL1,go"),
        lights_p=_role(CTRL, "0.0,0,TL1,", "0.1,-1,TL1,go", "0.1,1,TL1",
                       "-0.1,1,TL1,go,x", "0.1,1,,")),
})


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_malformed_inputs_match_row_decoder(tmp_path, monkeypatch, name):
    for fname, body in CORPUS[name].items():
        p = tmp_path / fname
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(body, encoding="utf-8")
    assert_same_as_row_decoder(
        tmp_path / next(iter(CORPUS[name])).split("/")[0], monkeypatch)


@pytest.mark.parametrize("seed", range(50))
def test_random_traces_match_row_decoder(tmp_path, monkeypatch, seed):
    trace = random_trace(np.random.default_rng(seed))
    for path in (write_flat(trace, tmp_path / "flat"),
                 write_distributed(trace, tmp_path / "dist")):
        findings, parsed = assert_same_as_row_decoder(path, monkeypatch)
        assert findings == [] and parsed == trace


def test_repeated_outline_shares_one_shape(written):
    trace, _ = parse_trace(written["distributed"])
    boxes = {id(r.bbox_true) for r in trace.actors["TSV-01"]}
    texts = {trace_io.shape_to_array(r.bbox_true)
             for r in trace.actors["TSV-01"]}
    assert len(boxes) == len(texts)


# --- the schema bounds and the record constructors -------------------------

def _records():
    """One valid record per group."""
    vut = simple_vut(0, 0.0)
    box = geo_quad(LocalFrame.at(BASE), 0.0, 20.0, 1.0, 2.0)
    return {
        "vut": vut,
        "actor": ActorState(time=0.0, step=0, actor_id="A1",
                            actor_type="tsv", pos=BASE, bbox_true=box,
                            speed=1.0, vel_lat=0.0, vel_long=1.0,
                            acc_lat=0.0, acc_long=0.0, ttc=math.inf,
                            heading=0.0),
        "obstacle": ObstacleState(time=0.0, step=0, obstacle_id="O1",
                                  obst_type=100, pos=BASE, poly_true=box,
                                  ntd=math.inf),
        "controller": TrafficControllerState(time=0.0, step=0,
                                             controller_id="TL1",
                                             phase="go"),
    }


def _construct(spec, group, value):
    """Build the record (or position) that holds value in spec's column."""
    if spec.name.endswith("_lat"):
        return GeoPosition(value, 0.0)
    if spec.name.endswith("_lon"):
        return GeoPosition(0.0, value)
    field = trace_io._FIELDS[group][spec.name]
    return dataclasses.replace(_records()[group], **{field: value})


def _outside(spec):
    """Values just outside the column's bounds."""
    if spec.normalised:
        return [360.0, math.nextafter(0.0, -1.0)]
    step = (lambda v, d: v + d) if spec.kind in ("int", "code") \
        else (lambda v, d: math.nextafter(v, d * math.inf))
    return ([step(spec.min, -1)] if spec.min is not None else []) + \
        ([step(spec.max, 1)] if spec.max is not None else [])


def _cast(spec, value):
    return int(value) if spec.kind in ("int", "code") else value


BOUNDED = [c for c in schema.COLUMNS
           if c.min is not None or c.max is not None or c.normalised]


def test_bounded_columns_are_the_expected_ones():
    assert {c.name for c in BOUNDED} == {
        "Time", "Step_number", "VUT_pos_lat", "VUT_pos_lon",
        "VUT_travelled", "VUT_speed", "VUT_heading", "VUT_throttle",
        "VUT_brake", "Actor_pos_true_lat", "Actor_pos_true_lon",
        "Actor_vel_abs", "Actor_heading", "Actor_TTC", "Obst_type",
        "Obst_pos_lat", "Obst_pos_lon", "Obst_NTD"}


@pytest.mark.parametrize("spec", BOUNDED, ids=lambda c: c.name)
def test_schema_bounds_match_constructors(spec):
    """Each bound is accepted, and a value just outside it rejected, by
    the constructor of the column's record, so the schema (the column
    pass's bounds) and model.py (the messages) cannot drift apart.

    The clock columns are common to every group.  Every record type
    accepts their bounds; VutState rejects a value outside them, the
    other types accept a negative time, so there the column pass is
    stricter than the constructor: it has the constructor check such a
    row, which keeps its record.
    """
    groups = list(trace_io._FIELDS) if spec.group == "common" \
        else [spec.group]
    inside = [spec.min, spec.max] if not spec.normalised \
        else [0.0, math.nextafter(360.0, 0.0)]
    for group in groups:
        for value in inside:
            if value is not None:
                _construct(spec, group, _cast(spec, value))
    for value in _outside(spec):
        with pytest.raises(ValueError):
            _construct(spec, groups[0], _cast(spec, value))
    if spec.name == "Step_number":
        for group in groups:
            with pytest.raises(ValueError):
                _construct(spec, group, -1)


# --- the bulk outline check against the record constructors -------------

def _outline_populations(rng):
    """(population, outline stacks) pairs: a few hundred outlines of 3 to
    6 vertices per population, in file component order (lat, lon for
    wgs84)."""
    # On a 4 x 4 grid bowties, collinear triples, repeated vertices and
    # vertices touching an edge come up often.
    grid = [rng.integers(0, 4, (120, n, 2)).astype(float) for n in (3, 4, 5)]
    lat = np.array([-90.0, -89.5, 89.5, 90.0])
    lon = np.array([-180.0, -179.5, 179.5, 180.0])
    beyond = []
    for g in grid:
        o = g.copy()
        rows = np.arange(len(o))
        at = rng.integers(0, o.shape[1], len(o))
        # One component of one vertex just past its bound.
        o[rows, at, 0] = np.where(rows % 2, np.nextafter(90.0, np.inf),
                                  np.nextafter(-90.0, -np.inf))
        o[rows[::3], at[::3], :] = (0.0, np.nextafter(180.0, np.inf))
        beyond.append(o)
    return [
        ("grid", grid),
        ("general position", [rng.uniform(-1.0, 1.0, g.shape) for g in grid]),
        ("closed ring", [np.concatenate([g, g[:, :1]], axis=1)
                         for g in grid]),
        ("negative zero", [np.where(rng.random(g.shape) < 0.5, -g, g)
                           for g in grid]),
        ("tiny", [g * 1e-300 for g in grid] + [g * 5e-324 for g in grid]),
        ("huge", [g * 1e300 for g in grid]),
        ("at the bounds", [np.stack([lat[g[..., 0].astype(int)],
                                     lon[g[..., 1].astype(int)]], axis=-1)
                           for g in grid]),
        ("beyond the bounds", beyond),
    ]


def _constructors_accept(outline, frame) -> bool:
    """Whether shape_from_array accepts the outline's plain array cell
    and its first vertex is not repeated last."""
    text = "|" + "|".join(f"{a!r} {b!r}" for a, b in outline.tolist()) + "|"
    try:
        shape_from_array(text, frame)
    except (ValueError, TypeError, VistaError):
        return False
    return not (outline[0] == outline[-1]).all()


@pytest.mark.parametrize("frame", ["wgs84", "vcs"])
def test_standing_matches_shape_from_array(frame):
    """``_standing`` stands in for ``shape_from_array`` on plain outline
    cells; it must accept exactly the outlines that one accepts, less
    closed rings (those go to shape_from_array, which drops the
    repeat)."""
    rng = np.random.default_rng(61 if frame == "wgs84" else 67)
    outcomes = {}
    for name, stacks in _outline_populations(rng):
        for stack in stacks:
            got = trace_io._standing(stack, frame).tolist()
            want = [_constructors_accept(o, frame) for o in stack]
            assert got == want, name
            outcomes.setdefault(name, set()).update(want)
    refused = {"closed ring"}
    if frame == "wgs84":
        refused |= {"huge", "beyond the bounds"}
    for name, seen in outcomes.items():
        assert seen == ({False} if name in refused else {True, False}), name
