"""Shared builders for the test suite."""

from __future__ import annotations

import math

import numpy as np
import pytest

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

BASE = GeoPosition(1.354, 103.696)

DRIVE = ("autonomous", "manual", "teleoperation")
SPECIAL = ("normal", "environmental_service")
ACTOR_TYPES = ("tsv", "vru_pedestrian", "vru_cyclist", "vru_pmd")
PHASES = ("go", "stop", "go_exclusive")
INDICATORS = ("left_front", "left_rear", "right_front", "right_rear",
              "brake", "reverse", "hazard")


def simple_vut(step: int, t: float, lat=1.354, lon=103.696, speed=5.0,
               heading=0.0, **kw) -> VutState:
    defaults = dict(
        time=t, step=step, pos=GeoPosition(lat, lon), travelled=speed * t,
        speed=speed, acc_lat=0.0, acc_long=0.0, yaw_rate=0.0,
        heading=heading, indicators=frozenset(), throttle=0.3, brake=0.0,
        steering_angle=0.0, drive_status="autonomous", special_op="normal",
    )
    defaults.update(kw)
    return VutState(**defaults)


def straight_vut_series(count: int, dt: float = 0.1, speed: float = 5.0,
                        heading: float = 0.0) -> tuple:
    """VUT records driving north from the base point at constant speed."""
    from vistakit.frames import LocalFrame

    frame = LocalFrame.at(BASE)
    recs = []
    for k in range(count):
        t = k * dt
        pos = frame.from_local(0.0, speed * t)
        recs.append(VutState(
            time=t, step=k, pos=pos, travelled=speed * t, speed=speed,
            acc_lat=0.0, acc_long=0.0, yaw_rate=0.0, heading=heading,
            indicators=frozenset(), throttle=0.3, brake=0.0,
            steering_angle=0.0, drive_status="autonomous",
            special_op="normal",
        ))
    return tuple(recs)


def geo_quad(frame, centre_e: float, centre_n: float, half_x: float,
             half_y: float) -> BoundingShape:
    """Axis-aligned rectangle as a wgs84 shape around a local point."""
    corners = [
        (centre_e - half_x, centre_n - half_y),
        (centre_e + half_x, centre_n - half_y),
        (centre_e + half_x, centre_n + half_y),
        (centre_e - half_x, centre_n + half_y),
    ]
    return BoundingShape(
        "wgs84", tuple(frame.from_local(e, n) for e, n in corners))


def _rand_heading(rng) -> float:
    h = float(rng.uniform(0.0, 360.0))
    return h if h < 360.0 else 0.0


def _rand_geo(rng) -> GeoPosition:
    lat = BASE.lat + float(rng.uniform(-0.002, 0.002))
    lon = BASE.lon + float(rng.uniform(-0.002, 0.002))
    elev = float(rng.uniform(-5.0, 60.0)) if rng.random() < 0.3 else None
    return GeoPosition(lat, lon, elev)


def _rand_shape(rng, frame_tag: str, around) -> BoundingShape:
    """A small convex quad near a position, in the given frame."""
    w = float(rng.uniform(0.3, 3.0))
    h = float(rng.uniform(0.3, 3.0))
    if frame_tag == "vcs":
        cx, cy = around.x, around.y
        verts = (
            VcsPosition(cx - w, cy - h), VcsPosition(cx + w, cy - h),
            VcsPosition(cx + w, cy + h), VcsPosition(cx - w, cy + h),
        )
        return BoundingShape("vcs", verts)
    dlat = h / 110_574.0
    dlon = w / 111_320.0
    verts = (
        GeoPosition(around.lat - dlat, around.lon - dlon),
        GeoPosition(around.lat - dlat, around.lon + dlon),
        GeoPosition(around.lat + dlat, around.lon + dlon),
        GeoPosition(around.lat + dlat, around.lon - dlon),
    )
    return BoundingShape("wgs84", verts)


def random_trace(rng, testcase_id: str | None = None,
                 run_id: int | None = None) -> Trace:
    """A structurally varied, always-valid trace for round-trip tests."""
    if testcase_id is None:
        tag = "".join(rng.choice(list("ABCDEFGHJK")) for _ in range(3))
        testcase_id = f"TC-{tag}-{int(rng.integers(1, 99)):02d}"
    if run_id is None:
        run_id = int(rng.integers(1, 999))
    rate = float(rng.choice([10.0, 20.0, 50.0]))
    dt = 1.0 / rate
    count = int(rng.integers(2, 25))
    with_elev = rng.random() < 0.3
    with_pitch = rng.random() < 0.2

    vut = []
    travelled = 0.0
    for k in range(count):
        speed = float(rng.uniform(0.0, 15.0))
        travelled += speed * dt
        elev = float(rng.uniform(0.0, 40.0)) if with_elev else None
        vut.append(VutState(
            time=k * dt, step=k,
            pos=GeoPosition(BASE.lat + float(rng.uniform(-0.001, 0.001)),
                            BASE.lon + float(rng.uniform(-0.001, 0.001)),
                            elev),
            travelled=travelled, speed=speed,
            acc_lat=float(rng.uniform(-4.0, 4.0)),
            acc_long=float(rng.uniform(-9.0, 4.0)),
            yaw_rate=float(rng.uniform(-30.0, 30.0)),
            heading=_rand_heading(rng),
            indicators=frozenset(
                n for n in INDICATORS if rng.random() < 0.15),
            throttle=float(rng.uniform(0.0, 1.0)),
            brake=float(rng.uniform(0.0, 1.0)),
            steering_angle=float(rng.uniform(-540.0, 540.0)),
            drive_status=str(rng.choice(DRIVE)),
            special_op=str(rng.choice(SPECIAL)),
            pitch_rate=float(rng.uniform(-2, 2)) if with_pitch else None,
            roll_rate=float(rng.uniform(-2, 2)) if with_pitch else None,
        ))
    vut = tuple(vut)
    steps = [r.step for r in vut]

    actor_frame = "vcs" if rng.random() < 0.3 else "wgs84"
    actors = {}
    for i in range(int(rng.integers(0, 3))):
        aid = f"A{i + 1}"
        atype = str(rng.choice(ACTOR_TYPES))
        n_recs = int(rng.integers(1, len(steps) + 1))
        chosen = sorted(rng.choice(steps, size=n_recs, replace=False))
        with_bbox = rng.random() < 0.7
        with_perceived = with_bbox and rng.random() < 0.4
        recs = []
        for s in chosen:
            if actor_frame == "vcs":
                pos = VcsPosition(float(rng.uniform(-40, 40)),
                                  float(rng.uniform(-40, 40)))
            else:
                pos = _rand_geo(rng)
            bbox = _rand_shape(rng, actor_frame, pos) if with_bbox else None
            perceived = (_rand_shape(rng, actor_frame, pos)
                         if with_perceived and rng.random() < 0.8 else None)
            heading = _rand_heading(rng) if rng.random() < 0.8 else None
            ttc = math.inf if rng.random() < 0.2 else float(
                rng.uniform(0.0, 60.0))
            recs.append(ActorState(
                time=float(s * dt), step=int(s), actor_id=aid,
                actor_type=atype,
                pos=pos, bbox_true=bbox,
                speed=float(rng.uniform(0, 20)),
                vel_lat=float(rng.uniform(-5, 5)),
                vel_long=float(rng.uniform(-5, 5)),
                acc_lat=float(rng.uniform(-4, 4)),
                acc_long=float(rng.uniform(-4, 4)),
                ttc=ttc, heading=heading, bbox_perceived=perceived,
            ))
        actors[aid] = tuple(recs)

    obstacles = {}
    for i in range(int(rng.integers(0, 3))):
        oid = f"OBS{i + 1}"
        code = int(rng.choice([100, 101, 205, 499, 500, 730]))
        n_recs = int(rng.integers(1, len(steps) + 1))
        chosen = sorted(rng.choice(steps, size=n_recs, replace=False))
        with_perceived = rng.random() < 0.3
        recs = []
        for s in chosen:
            pos = _rand_geo(rng)
            if pos.elev is not None:
                # The obstacle table has no elevation column.
                pos = GeoPosition(pos.lat, pos.lon)
            recs.append(ObstacleState(
                time=float(s * dt), step=int(s), obstacle_id=oid,
                obst_type=code,
                pos=pos, poly_true=_rand_shape(rng, "wgs84", pos),
                ntd=math.inf if rng.random() < 0.2 else float(
                    rng.uniform(0.0, 60.0)),
                poly_perceived=(_rand_shape(rng, "wgs84", pos)
                                if with_perceived and rng.random() < 0.8
                                else None),
            ))
        obstacles[oid] = tuple(recs)

    controllers = {}
    for i in range(int(rng.integers(0, 3))):
        cid = f"TL{i + 1}"
        n_recs = int(rng.integers(1, len(steps) + 1))
        chosen = sorted(rng.choice(steps, size=n_recs, replace=False))
        controllers[cid] = tuple(
            TrafficControllerState(time=float(s * dt), step=int(s),
                                   controller_id=cid,
                                   phase=str(rng.choice(PHASES)))
            for s in chosen
        )

    return Trace(testcase_id=testcase_id, run_id=run_id, vut=vut,
                 actors=actors, obstacles=obstacles, controllers=controllers,
                 declared_frequency=rate)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
