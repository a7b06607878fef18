import math

import pytest

from vistakit import synth
from vistakit.clearance import (
    DEFAULT_FOOTPRINTS,
    SERIES_COLUMNS,
    ClearanceSeries,
    all_clearance_series,
    clearance_series,
    series_columns,
)
from vistakit.errors import UnknownEntity
from vistakit.frames import LocalFrame
from vistakit.geometry import rect
from vistakit.model import (
    ActorState,
    BoundingShape,
    GeoPosition,
    ObstacleState,
    Trace,
    VcsPosition,
)
from vistakit.rules import evaluate_run

from clearance_reference import series_rows
from conftest import BASE, geo_quad, straight_vut_series


def _vcs_actor(step, y, actor_type="vru_cyclist", x=0.0, bbox=None,
               heading=None, speed=0.0, vel_long=0.0):
    return ActorState(time=step * 0.1, step=step, actor_id="A1",
                      actor_type=actor_type, pos=VcsPosition(x, y),
                      bbox_true=bbox, speed=speed, vel_lat=0.0,
                      vel_long=vel_long, acc_lat=0.0, acc_long=0.0,
                      ttc=math.inf, heading=heading)


def test_abreast_cyclist_exact_gap():
    vut = straight_vut_series(5)
    gap = 1.25
    y = 0.9 + gap + DEFAULT_FOOTPRINTS["vru_cyclist"][1] / 2.0
    t = Trace("TC-CL-01", 1, vut,
              actors={"A1": tuple(_vcs_actor(k, y) for k in range(5))})
    s = clearance_series(t, "A1")
    assert len(s.samples) == 5
    assert s.min_lateral() == pytest.approx(gap, abs=1e-9)
    assert all(x.lateral_side == 1 for x in s.samples)
    assert all(math.isinf(x.longitudinal) for x in s.samples)
    assert any("default footprint" in n for n in s.notes)


def test_single_step_trace_single_sample():
    vut = straight_vut_series(1)
    t = Trace("TC-CL-02", 1, vut, actors={"A1": (_vcs_actor(0, 3.0),)})
    s = clearance_series(t, "A1")
    assert len(s.samples) == 1


def test_unknown_entity_raises():
    t = Trace("TC-CL-03", 1, straight_vut_series(2))
    with pytest.raises(UnknownEntity):
        clearance_series(t, "GHOST")


def test_stationary_pedestrian_ahead():
    vut = straight_vut_series(5, speed=5.0)
    frame = LocalFrame.at(BASE)
    centre_n = 2.2 + 20.0 + 0.25
    recs = []
    for k in range(5):
        pos = frame.from_local(0.0, centre_n)
        bbox = geo_quad(frame, 0.0, centre_n, 0.25, 0.25)
        recs.append(ActorState(
            time=k * 0.1, step=k, actor_id="P1",
            actor_type="vru_pedestrian", pos=pos, bbox_true=bbox,
            speed=0.0, vel_lat=0.0, vel_long=0.0, acc_lat=0.0,
            acc_long=0.0, ttc=math.inf))
    t = Trace("TC-CL-04", 1, vut, actors={"P1": tuple(recs)})
    s = clearance_series(t, "P1")
    first = s.samples[0]
    assert first.longitudinal == pytest.approx(20.0, abs=1e-5)
    assert first.longitudinal_side == 1
    assert math.isinf(first.lateral)
    assert first.ntd == pytest.approx(4.0, abs=1e-3)
    assert first.vut_closing == pytest.approx(5.0, abs=1e-3)
    assert first.entity_closing == pytest.approx(0.0, abs=1e-9)
    # The gap shrinks by the distance driven between steps.
    assert s.samples[4].longitudinal == pytest.approx(18.0, abs=1e-5)
    assert s.min_longitudinal() == pytest.approx(18.0, abs=1e-5)


def test_moving_actor_without_heading_noted():
    vut = straight_vut_series(3)
    recs = tuple(_vcs_actor(k, 5.0, speed=3.0, vel_long=3.0)
                 for k in range(3))
    t = Trace("TC-CL-05", 1, vut, actors={"A1": recs})
    s = clearance_series(t, "A1")
    assert any("heading" in n for n in s.notes)
    assert all(x.entity_closing == 0.0 for x in s.samples)



def test_touching_entity_zero_euclidean():
    vut = straight_vut_series(2)
    bbox = rect(2.2 + 1.0, 0.0, 2.0, 1.0)
    verts = tuple(VcsPosition(float(x), float(y)) for x, y in bbox)
    from vistakit.model import BoundingShape
    shape = BoundingShape("vcs", verts)
    recs = tuple(_vcs_actor(k, 0.0, x=3.2, bbox=shape) for k in range(2))
    t = Trace("TC-CL-07", 1, vut, actors={"A1": recs})
    s = clearance_series(t, "A1")
    assert s.samples[0].euclidean_min == 0.0
    assert s.samples[0].ntd == 0.0


def test_obstacle_series_uses_polygon():
    vut = straight_vut_series(3, speed=5.0)
    frame = LocalFrame.at(BASE)
    poly = geo_quad(frame, 0.0, 9.0, 1.0, 1.0)
    recs = tuple(
        ObstacleState(time=k * 0.1, step=k, obstacle_id="OBS1",
                      obst_type=100, pos=frame.from_local(0.0, 9.0),
                      poly_true=poly, ntd=math.inf)
        for k in range(3)
    )
    t = Trace("TC-CL-08", 1, vut, obstacles={"OBS1": recs})
    s = clearance_series(t, "OBS1")
    # Near edge sits 8 m north; the nose starts at 2.2 m and gains
    # 0.5 m per step.
    assert s.samples[0].longitudinal == pytest.approx(8.0 - 2.2, abs=1e-5)
    assert s.samples[2].longitudinal == pytest.approx(8.0 - 2.2 - 1.0,
                                                      abs=1e-5)
    assert math.isinf(s.samples[0].lateral)


def test_all_series_skips_fixed_infrastructure():
    vut = straight_vut_series(3)
    frame = LocalFrame.at(BASE)

    def obs(oid, code, e):
        poly = geo_quad(frame, e, 8.0, 0.5, 0.5)
        return tuple(
            ObstacleState(time=k * 0.1, step=k, obstacle_id=oid,
                          obst_type=code, pos=frame.from_local(e, 8.0),
                          poly_true=poly, ntd=math.inf)
            for k in range(3)
        )

    t = Trace("TC-CL-09", 1, vut,
              actors={"A1": tuple(_vcs_actor(k, 4.0) for k in range(3))},
              obstacles={"CONE": obs("CONE", 100, 4.0),
                         "WALL": obs("WALL", 510, -4.0)})
    default = all_clearance_series(t)
    assert sorted(s.entity_id for s in default) == ["A1", "CONE"]


def test_series_rows_export():
    vut = straight_vut_series(2)
    t = Trace("TC-CL-10", 1, vut,
              actors={"A1": tuple(_vcs_actor(k, 3.0) for k in range(2))})
    series = clearance_series(t, "A1")
    header, columns = series_columns([series])
    assert "samples" not in series.__dict__
    rows = [header, *map(list, zip(*columns))]
    assert rows == series_rows([series])
    assert rows[0] == list(SERIES_COLUMNS)
    assert SERIES_COLUMNS == ("step", "time", "entity_id", "lateral",
                              "longitudinal", "euclidean_min", "ntd")
    assert len(rows) == 3
    first = dict(zip(SERIES_COLUMNS, rows[1]))
    assert first["step"] == "0"
    assert first["entity_id"] == "A1"
    assert float(first["lateral"]) == pytest.approx(3.0 - 0.9 - 0.3)
    assert float(first["ntd"]) == math.inf


def test_series_columns_match_the_sample_rows():
    """Every stock case's series, and a series made from its samples,
    format as the sample-by-sample reference does."""
    series = [s for case in (1, 2, 3) for s in all_clearance_series(
        synth.synthesize(synth.ScenarioSpec(), case))]
    header, columns = series_columns(series)
    rows = [header, *map(list, zip(*columns))]
    assert rows == series_rows(series)
    made = [ClearanceSeries(s.entity_id, s.samples, s.notes) for s in series]
    assert series_columns(made) == (header, columns)


def test_concave_outline_noted_once():
    """An L-shaped obstacle is noted at its first concave step, whose
    axis gaps cover it by its overall span; a rectangle is not noted."""
    vut = straight_vut_series(3)
    frame = LocalFrame.at(BASE)
    ell = BoundingShape("wgs84", tuple(frame.from_local(e, n) for e, n in (
        (3.0, 8.0), (5.0, 8.0), (5.0, 9.0), (4.0, 9.0), (4.0, 10.0),
        (3.0, 10.0))))
    box = geo_quad(frame, 4.0, 9.0, 1.0, 1.0)

    def obs(oid, polys):
        return tuple(
            ObstacleState(time=k * 0.1, step=k, obstacle_id=oid,
                          obst_type=100, pos=frame.from_local(4.0, 9.0),
                          poly_true=poly, ntd=math.inf)
            for k, poly in enumerate(polys))

    t = Trace("TC-CL-11", 1, vut, obstacles={
        "ELL": obs("ELL", (box, ell, ell)), "BOX": obs("BOX", (box,) * 3)})
    assert clearance_series(t, "ELL").notes == (
        "ELL: concave outline at step 1; axis gaps use its overall span "
        "and may read short",)
    assert clearance_series(t, "BOX").notes == ()
    assert [n for n in evaluate_run(t).notes if "concave" in n] == [
        "ELL: concave outline at step 1; axis gaps use its overall span "
        "and may read short"]
