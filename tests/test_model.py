import math

import numpy as np
import pytest

from vistakit.model import (
    ActorState,
    BoundingShape,
    GeoPosition,
    ObstacleState,
    Trace,
    VcsPosition,
    VehicleProfile,
    VutState,
    default_footprint,
    is_fixed_infrastructure,
    normalize_heading,
)

from conftest import simple_vut
from predicates import actor_mimics_obstacle, obstacle_from_actor


def test_normalize_heading_wraps():
    assert normalize_heading(0.0) == 0.0
    assert normalize_heading(360.0) == 0.0
    assert normalize_heading(-90.0) == 270.0
    assert normalize_heading(725.0) == 5.0
    assert normalize_heading(359.999) == pytest.approx(359.999)


def test_normalize_heading_rejects_non_finite():
    with pytest.raises(ValueError):
        normalize_heading(math.nan)
    with pytest.raises(ValueError):
        normalize_heading(math.inf)


def test_geo_position_range_checks():
    GeoPosition(90.0, 180.0)
    GeoPosition(-90.0, -180.0, elev=-10.0)
    with pytest.raises(ValueError):
        GeoPosition(90.001, 0.0)
    with pytest.raises(ValueError):
        GeoPosition(0.0, 180.5)
    with pytest.raises(ValueError):
        GeoPosition(math.nan, 0.0)


def test_bounding_shape_rejects_bad_input():
    tri = (VcsPosition(0, 0), VcsPosition(1, 0), VcsPosition(0, 1))
    BoundingShape("vcs", tri)
    with pytest.raises(ValueError):
        BoundingShape("enu", tri)
    with pytest.raises(ValueError):
        BoundingShape("vcs", tri[:2])
    # A bow-tie outline crosses itself.
    bow = (VcsPosition(0, 0), VcsPosition(2, 2),
           VcsPosition(2, 0), VcsPosition(0, 2))
    with pytest.raises(ValueError):
        BoundingShape("vcs", bow)


def test_bounding_shape_frame_vertex_mismatch():
    with pytest.raises(TypeError):
        BoundingShape("vcs", (GeoPosition(1, 2), GeoPosition(1, 3),
                              GeoPosition(2, 3)))


def test_vut_state_validation():
    ok = simple_vut(0, 0.0)
    assert ok.heading == 0.0
    with pytest.raises(ValueError):
        simple_vut(0, 0.0, heading=360.0)
    with pytest.raises(ValueError):
        simple_vut(0, 0.0, speed=-1.0)
    with pytest.raises(ValueError):
        simple_vut(0, 0.0, throttle=1.2)
    with pytest.raises(ValueError):
        simple_vut(0, 0.0, indicators=frozenset({"left_front", "bogus"}))
    with pytest.raises(ValueError):
        simple_vut(-1, 0.0)


def test_vut_state_accepts_extension_tags():
    # Unknown enum-like strings are carried, not rejected.
    rec = simple_vut(0, 0.0, drive_status="x_remote_assist",
                     special_op="x_depot_run")
    assert rec.drive_status == "x_remote_assist"


def test_actor_ttc_validation():
    kw = dict(time=0.0, step=0, actor_id="A1", actor_type="tsv",
              pos=VcsPosition(5.0, 0.0), bbox_true=None, speed=1.0,
              vel_lat=0.0, vel_long=1.0, acc_lat=0.0, acc_long=0.0)
    ActorState(ttc=math.inf, **kw)
    ActorState(ttc=0.0, **kw)
    with pytest.raises(ValueError):
        ActorState(ttc=-1.0, **kw)
    with pytest.raises(ValueError):
        ActorState(ttc=math.nan, **kw)


def test_obstacle_code_space():
    assert not is_fixed_infrastructure(100)
    assert not is_fixed_infrastructure(499)
    assert is_fixed_infrastructure(500)
    poly = BoundingShape("wgs84", (GeoPosition(1, 2), GeoPosition(1, 2.001),
                                   GeoPosition(1.001, 2)))
    with pytest.raises(ValueError):
        ObstacleState(time=0.0, step=0, obstacle_id="O", obst_type=99,
                      pos=GeoPosition(1, 2), poly_true=poly, ntd=math.inf)


def test_default_footprint_centred():
    fp = default_footprint(4.4, 1.8)
    xs = [v.x for v in fp.vertices]
    ys = [v.y for v in fp.vertices]
    assert max(xs) == pytest.approx(2.2) and min(xs) == pytest.approx(-2.2)
    assert max(ys) == pytest.approx(0.9) and min(ys) == pytest.approx(-0.9)


def test_vehicle_profile_rejects_offset_footprint():
    shifted = BoundingShape("vcs", (VcsPosition(1, 1), VcsPosition(5, 1),
                                    VcsPosition(5, 3), VcsPosition(1, 3)))
    with pytest.raises(ValueError):
        VehicleProfile(footprint=shifted)


def test_trace_master_clock_enforced():
    vut = (simple_vut(0, 0.0), simple_vut(1, 0.1))
    actor = ActorState(time=0.2, step=2, actor_id="A1", actor_type="tsv",
                       pos=VcsPosition(5, 0), bbox_true=None, speed=0.0,
                       vel_lat=0.0, vel_long=0.0, acc_lat=0.0, acc_long=0.0,
                       ttc=math.inf)
    with pytest.raises(ValueError):
        Trace("TC", 1, vut, actors={"A1": (actor,)})


def test_trace_time_must_increase():
    with pytest.raises(ValueError):
        Trace("TC", 1, (simple_vut(0, 0.0), simple_vut(1, 0.0)))
    with pytest.raises(ValueError):
        Trace("TC", 1, (simple_vut(0, 0.1), simple_vut(0, 0.2)))


@pytest.mark.parametrize("testcase_id, run_id, vut, message", [
    ("", 1, (simple_vut(0, 0.0),), "testcase_id must be non-empty"),
    ("TC", 0, (simple_vut(0, 0.0),), "run_id must be a positive int, got 0"),
    ("TC", 1, (), "trace must contain at least one VUT record"),
], ids=["no test case id", "run id zero", "no VUT record"])
def test_trace_run_checks(testcase_id, run_id, vut, message):
    with pytest.raises(ValueError) as exc:
        Trace(testcase_id, run_id, vut)
    assert str(exc.value) == message


def test_trace_equality_ignores_declared_frequency():
    vut = (simple_vut(0, 0.0), simple_vut(1, 0.1))
    a = Trace("TC", 1, vut, declared_frequency=10.0)
    b = Trace("TC", 1, vut, declared_frequency=0.0)
    assert a == b
    assert a.duration == pytest.approx(0.1)
    assert a.vut_steps == (0, 1)


def test_obstacle_coded_actor_detection():
    kw = dict(time=0.0, step=0, actor_id="X", pos=GeoPosition(1.354, 103.696),
              speed=0.0, vel_lat=0.0, vel_long=0.0, acc_lat=0.0, acc_long=0.0,
              ttc=math.inf)
    poly = BoundingShape("wgs84", (GeoPosition(1.354, 103.696),
                                   GeoPosition(1.354, 103.6961),
                                   GeoPosition(1.3541, 103.696)))
    still = ActorState(actor_type="205", bbox_true=poly, **kw)
    assert actor_mimics_obstacle(still)
    named = ActorState(actor_type="tsv", bbox_true=poly, **kw)
    assert not actor_mimics_obstacle(named)
    moving = ActorState(actor_type="205", bbox_true=poly,
                        **{**kw, "speed": 0.5})
    assert not actor_mimics_obstacle(moving)

    converted = obstacle_from_actor(still)
    assert converted.obst_type == 205
    assert converted.obstacle_id == "X"
    assert converted.poly_true == poly


def test_obstacle_conversion_needs_geo_polygon():
    kw = dict(time=0.0, step=0, actor_id="X", actor_type="300",
              pos=VcsPosition(3, 0), speed=0.0, vel_lat=0.0, vel_long=0.0,
              acc_lat=0.0, acc_long=0.0, ttc=math.inf)
    vcs_poly = BoundingShape("vcs", (VcsPosition(2, -1), VcsPosition(4, -1),
                                     VcsPosition(4, 1), VcsPosition(2, 1)))
    rec = ActorState(bbox_true=vcs_poly, **kw)
    # Code and stillness match, but a VCS record cannot become an
    # obstacle row, so conversion refuses and the actor is kept as-is.
    assert actor_mimics_obstacle(rec)
    with pytest.raises(ValueError):
        obstacle_from_actor(rec)


def test_random_vut_records_always_valid(rng):
    # The validators must accept anything the conftest builder emits.
    for _ in range(50):
        h = float(rng.uniform(0, 360)) % 360.0
        rec = simple_vut(int(rng.integers(0, 100)),
                         float(rng.uniform(0, 10)),
                         speed=float(rng.uniform(0, 30)),
                         heading=h)
        assert 0.0 <= rec.heading < 360.0
