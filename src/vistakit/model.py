"""Domain types for ViSTA result traces.

Conventions used throughout the toolkit:

* World positions are WGS84 latitude/longitude in decimal degrees,
  elevation in metres (optional).
* Vehicle coordinate system (VCS): origin at the geometric centre of the
  vehicle under test, x forward, y to the right, z down, following the
  usual road-vehicle axis convention.  Yaw/heading is measured from North,
  clockwise positive, in degrees and normalized to [0, 360).
* Speeds are m/s, accelerations m/s^2, angular rates deg/s, times seconds.
* A value of ``float("inf")`` is the "never" sentinel for time-to-X
  metrics (TTC, nearest temporal distance).

All types are plain frozen dataclasses: construct them fully, then treat
them as values.  Construction validates the cheap per-record invariants
and raises ``ValueError``/``TypeError`` on violations.
"""

from __future__ import annotations

import collections
import itertools
import math
from dataclasses import dataclass, field, fields

INDICATOR_NAMES = frozenset(
    {"left_front", "left_rear", "right_front", "right_rear",
     "brake", "reverse", "hazard"}
)

VEHICLE_CLASSES = ("class3", "class4", "aesv_class3", "aesv_class4")

# Numeric obstacle type codes.  Codes below FIXED_INFRA_CODE_MIN are
# portable objects that take part in clearance evaluation; codes at or
# above it are fixed roadside infrastructure, which is exempt from the
# clearance rules (``rules.evaluate_run`` notes each one it skips).
OBSTACLE_CODE_MIN = 100
FIXED_INFRA_CODE_MIN = 500


def is_fixed_infrastructure(code: int) -> bool:
    return code >= FIXED_INFRA_CODE_MIN


def normalize_heading(deg: float) -> float:
    """Fold an angle in degrees into [0, 360)."""
    if not math.isfinite(deg):
        raise ValueError(f"heading must be finite, got {deg!r}")
    h = math.fmod(deg, 360.0)
    if h < 0.0:
        h += 360.0
    # fmod can land exactly on 360.0 after the correction for tiny
    # negative inputs; fold that back to zero.
    return 0.0 if h == 360.0 else h


def _check_finite(name: str, value: float) -> None:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise TypeError(f"{name} must be a number, got {type(value).__name__}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class GeoPosition:
    """A WGS84 position in decimal degrees, elevation in metres."""

    lat: float
    lon: float
    elev: float | None = None

    def __post_init__(self):
        _check_finite("lat", self.lat)
        _check_finite("lon", self.lon)
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude out of range: {self.lat}")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude out of range: {self.lon}")
        if self.elev is not None:
            _check_finite("elev", self.elev)


@dataclass(frozen=True)
class VcsPosition:
    """A position in the vehicle coordinate system, metres."""

    x: float
    y: float
    z: float | None = None

    def __post_init__(self):
        _check_finite("x", self.x)
        _check_finite("y", self.y)
        if self.z is not None:
            _check_finite("z", self.z)


def _shape_points_2d(frame: str, vertices) -> list[tuple[float, float]]:
    """Planar view of shape vertices for the simplicity check.

    Degrees are fine here: the check is affine-invariant apart from the
    aspect ratio, which cannot create or remove a self-intersection.
    """
    if frame == "wgs84":
        return [(v.lon, v.lat) for v in vertices]
    return [(v.x, v.y) for v in vertices]


def _segments_properly_cross(p1, p2, q1, q2) -> bool:
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1 = orient(q1, q2, p1)
    d2 = orient(q1, q2, p2)
    d3 = orient(p1, p2, q1)
    d4 = orient(p1, p2, q2)
    # Strict signs only: touching at an endpoint is not a proper cross.
    return d1 * d2 < 0 and d3 * d4 < 0


@dataclass(frozen=True)
class BoundingShape:
    """A simple polygon outline, stored open (no repeated last vertex).

    ``frame`` is "wgs84" or "vcs" and fixes the vertex type.  Vertices
    wind in file order; no particular orientation is required.
    """

    frame: str
    vertices: tuple

    def __post_init__(self):
        if self.frame not in ("wgs84", "vcs"):
            raise ValueError(f"unknown shape frame {self.frame!r}")
        want = GeoPosition if self.frame == "wgs84" else VcsPosition
        for v in self.vertices:
            if not isinstance(v, want):
                raise TypeError(
                    f"{self.frame} shape vertex must be {want.__name__}, "
                    f"got {type(v).__name__}"
                )
        pts = _shape_points_2d(self.frame, self.vertices)
        if len(set(pts)) < 3:
            raise ValueError("polygon needs at least 3 distinct vertices")
        n = len(pts)
        for i in range(n):
            a1, a2 = pts[i], pts[(i + 1) % n]
            for j in range(i + 1, n):
                b1, b2 = pts[j], pts[(j + 1) % n]
                if _segments_properly_cross(a1, a2, b1, b2):
                    raise ValueError("polygon outline self-intersects")


@dataclass(frozen=True)
class VutState:
    """One logged sample of the vehicle under test."""

    time: float
    step: int
    pos: GeoPosition
    travelled: float
    speed: float
    acc_lat: float
    acc_long: float
    yaw_rate: float
    heading: float
    indicators: frozenset
    throttle: float
    brake: float
    steering_angle: float
    drive_status: str
    special_op: str
    pitch_rate: float | None = None
    roll_rate: float | None = None

    def __post_init__(self):
        _check_finite("time", self.time)
        if self.time < 0.0:
            raise ValueError(f"time must be >= 0, got {self.time}")
        if not isinstance(self.step, int) or self.step < 0:
            raise ValueError(f"step must be a non-negative int, got {self.step!r}")
        _check_finite("travelled", self.travelled)
        if self.travelled < 0.0:
            raise ValueError("travelled must be >= 0")
        _check_finite("speed", self.speed)
        if self.speed < 0.0:
            raise ValueError("speed must be >= 0")
        for name in ("acc_lat", "acc_long", "yaw_rate", "heading",
                     "steering_angle"):
            _check_finite(name, getattr(self, name))
        if normalize_heading(self.heading) != self.heading:
            raise ValueError(f"heading not normalized to [0, 360): {self.heading}")
        unknown = set(self.indicators) - INDICATOR_NAMES
        if unknown:
            raise ValueError(f"unknown indicator flags: {sorted(unknown)}")
        for name in ("throttle", "brake"):
            val = getattr(self, name)
            _check_finite(name, val)
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {val}")
        for name in ("pitch_rate", "roll_rate"):
            val = getattr(self, name)
            if val is not None:
                _check_finite(name, val)
        if not self.drive_status:
            raise ValueError("drive_status must be non-empty")
        if not self.special_op:
            raise ValueError("special_op must be non-empty")


def _check_ttc(name: str, value: float) -> None:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise TypeError(f"{name} must be a number")
    if math.isnan(value) or value < 0.0:
        raise ValueError(f"{name} must be >= 0 or +inf, got {value!r}")


@dataclass(frozen=True)
class ActorState:
    """One logged sample of a dynamic environment actor.

    ``pos`` may be world (GeoPosition) or vehicle-relative (VcsPosition);
    the bounding shape, when present, uses the same frame.  ``heading``
    may be None when the source did not log one.
    """

    time: float
    step: int
    actor_id: str
    actor_type: str
    pos: object
    bbox_true: BoundingShape | None
    speed: float
    vel_lat: float
    vel_long: float
    acc_lat: float
    acc_long: float
    ttc: float
    heading: float | None = None
    bbox_perceived: BoundingShape | None = None

    def __post_init__(self):
        _check_finite("time", self.time)
        if not isinstance(self.step, int) or self.step < 0:
            raise ValueError(f"step must be a non-negative int, got {self.step!r}")
        if not self.actor_id:
            raise ValueError("actor_id must be non-empty")
        if not self.actor_type:
            raise ValueError("actor_type must be non-empty")
        if not isinstance(self.pos, (GeoPosition, VcsPosition)):
            raise TypeError("pos must be GeoPosition or VcsPosition")
        _check_finite("speed", self.speed)
        if self.speed < 0.0:
            raise ValueError("speed must be >= 0")
        for name in ("vel_lat", "vel_long", "acc_lat", "acc_long"):
            _check_finite(name, getattr(self, name))
        _check_ttc("ttc", self.ttc)
        if self.heading is not None:
            _check_finite("heading", self.heading)
            if normalize_heading(self.heading) != self.heading:
                raise ValueError("heading not normalized to [0, 360)")
        if self.bbox_true is not None and not isinstance(self.bbox_true, BoundingShape):
            raise TypeError("bbox_true must be a BoundingShape")
        if self.bbox_perceived is not None and not isinstance(
            self.bbox_perceived, BoundingShape
        ):
            raise TypeError("bbox_perceived must be a BoundingShape")

    @property
    def pos_frame(self) -> str:
        return "wgs84" if isinstance(self.pos, GeoPosition) else "vcs"


@dataclass(frozen=True)
class ObstacleState:
    """One logged sample of a (non-actor) obstacle."""

    time: float
    step: int
    obstacle_id: str
    obst_type: int
    pos: GeoPosition
    poly_true: BoundingShape
    ntd: float
    poly_perceived: BoundingShape | None = None

    def __post_init__(self):
        _check_finite("time", self.time)
        if not isinstance(self.step, int) or self.step < 0:
            raise ValueError(f"step must be a non-negative int, got {self.step!r}")
        if not self.obstacle_id:
            raise ValueError("obstacle_id must be non-empty")
        if not isinstance(self.obst_type, int) or isinstance(self.obst_type, bool):
            raise TypeError("obst_type must be an integer code")
        if self.obst_type < OBSTACLE_CODE_MIN:
            raise ValueError(
                f"obstacle type codes start at {OBSTACLE_CODE_MIN}, "
                f"got {self.obst_type}"
            )
        if not isinstance(self.pos, GeoPosition):
            raise TypeError("obstacle pos must be a GeoPosition")
        if not isinstance(self.poly_true, BoundingShape):
            raise TypeError("poly_true must be a BoundingShape")
        _check_ttc("ntd", self.ntd)


@dataclass(frozen=True)
class TrafficControllerState:
    """One logged sample of a traffic light / controller."""

    time: float
    step: int
    controller_id: str
    phase: str

    def __post_init__(self):
        _check_finite("time", self.time)
        if not isinstance(self.step, int) or self.step < 0:
            raise ValueError(f"step must be a non-negative int, got {self.step!r}")
        if not self.controller_id:
            raise ValueError("controller_id must be non-empty")
        if not self.phase:
            raise ValueError("phase must be non-empty")


_NAMES = {cls: tuple(f.name for f in fields(cls))
          for cls in (GeoPosition, VcsPosition, BoundingShape, VutState,
                      ActorState, ObstacleState, TrafficControllerState)}


def _build(cls, n, *values) -> list:
    """n records of cls from one value sequence per field, in field order.

    ``__post_init__`` does not run: the caller has checked every value
    against the bounds the constructors check (the trace reader's column
    pass, ``synth.perturb``'s bulk checks) or runs the checks itself (the
    column pass, on a row with a cell its bounds flag).  Fields are set as
    the dataclass ``__init__`` sets them, one C-level pass per field.
    """
    if not n:
        return []
    names, values = _NAMES[cls], [iter(v) for v in values]
    # One whole record first: CPython shares a class's attribute keys
    # between its instances, but only once an instance has registered
    # them; instances made in bulk before that get a dict each.
    first = object.__new__(cls)
    for name, column in zip(names, values):
        object.__setattr__(first, name, next(column))
    rest = list(map(object.__new__, itertools.repeat(cls, n - 1)))
    for name, column in zip(names, values):
        collections.deque(map(object.__setattr__, rest,
                              itertools.repeat(name), column), maxlen=0)
    return [first] + rest


def default_footprint(length: float = 4.4, width: float = 1.8) -> BoundingShape:
    """Axis-aligned rectangular footprint centred on the VCS origin."""
    hl, hw = length / 2.0, width / 2.0
    return BoundingShape(
        frame="vcs",
        vertices=(
            VcsPosition(hl, -hw),
            VcsPosition(hl, hw),
            VcsPosition(-hl, hw),
            VcsPosition(-hl, -hw),
        ),
    )


@dataclass(frozen=True)
class VehicleProfile:
    """Static facts about the vehicle under test."""

    vehicle_class: str = "class3"
    length: float = 4.4
    width: float = 1.8
    footprint: BoundingShape | None = None

    def __post_init__(self):
        if self.vehicle_class not in VEHICLE_CLASSES:
            raise ValueError(f"unknown vehicle class {self.vehicle_class!r}")
        _check_finite("length", self.length)
        _check_finite("width", self.width)
        if self.length <= 0 or self.width <= 0:
            raise ValueError("length and width must be positive")
        if self.footprint is None:
            object.__setattr__(
                self, "footprint", default_footprint(self.length, self.width)
            )
        if self.footprint.frame != "vcs":
            raise ValueError("footprint must be in the vcs frame")
        # The VCS origin sits at the geometric centre, so the footprint
        # must enclose (0, 0).
        xs = [v.x for v in self.footprint.vertices]
        ys = [v.y for v in self.footprint.vertices]
        if not (min(xs) < 0.0 < max(xs) and min(ys) < 0.0 < max(ys)):
            raise ValueError("footprint must enclose the VCS origin")


@dataclass(frozen=True)
class Trace:
    """A full single-run result: the VUT channel plus environment channels.

    ``actors``/``obstacles``/``controllers`` map entity id to the tuple of
    its per-step records, ordered by step.  Every environment record's
    step must also appear in the VUT channel, which acts as the master
    clock.  ``declared_frequency`` is carried metadata (Hz) and does not
    take part in equality.
    """

    testcase_id: str
    run_id: int
    vut: tuple
    actors: dict = field(default_factory=dict)
    obstacles: dict = field(default_factory=dict)
    controllers: dict = field(default_factory=dict)
    declared_frequency: float = field(default=0.0, compare=False)

    def __post_init__(self):
        if not self.testcase_id:
            raise ValueError("testcase_id must be non-empty")
        if not isinstance(self.run_id, int) or self.run_id < 1:
            raise ValueError(f"run_id must be a positive int, got {self.run_id!r}")
        if not self.vut:
            raise ValueError("trace must contain at least one VUT record")
        for rec in self.vut:
            if not isinstance(rec, VutState):
                raise TypeError("vut entries must be VutState records")
        times = [r.time for r in self.vut]
        steps = [r.step for r in self.vut]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("VUT time must be strictly increasing")
        if any(b <= a for a, b in zip(steps, steps[1:])):
            raise ValueError("VUT step numbers must be strictly increasing")
        vut_steps = set(steps)
        for kind, table, want in (
            ("actor", self.actors, ActorState),
            ("obstacle", self.obstacles, ObstacleState),
            ("controller", self.controllers, TrafficControllerState),
        ):
            for eid, records in table.items():
                prev = -1
                for rec in records:
                    if not isinstance(rec, want):
                        raise TypeError(f"{kind} {eid!r} holds a foreign record type")
                    if rec.step not in vut_steps:
                        raise ValueError(
                            f"{kind} {eid!r} references step {rec.step} "
                            "missing from the VUT channel"
                        )
                    if rec.step <= prev:
                        raise ValueError(f"{kind} {eid!r} steps must increase")
                    prev = rec.step

    @property
    def vut_steps(self) -> tuple:
        return tuple(r.step for r in self.vut)

    @property
    def duration(self) -> float:
        return self.vut[-1].time - self.vut[0].time


def actor_mimics_obstacle(a: ActorState) -> bool:
    """True when an actor record is an obstacle in disguise.

    Obstacles exported through the actor channel carry a numeric type
    code from the obstacle code space and show no motion at all.
    """
    try:
        code = int(a.actor_type)
    except ValueError:
        return False
    still = (
        a.speed == 0.0 and a.vel_lat == 0.0 and a.vel_long == 0.0
        and a.acc_lat == 0.0 and a.acc_long == 0.0
    )
    return still and code >= OBSTACLE_CODE_MIN


def obstacle_from_actor(a: ActorState) -> ObstacleState:
    """Re-express an obstacle-coded actor record as an ObstacleState."""
    if not actor_mimics_obstacle(a):
        raise ValueError(f"actor {a.actor_id!r} is not obstacle-coded")
    if not isinstance(a.pos, GeoPosition):
        raise ValueError("obstacle-coded actors must carry world positions")
    if a.bbox_true is None:
        raise ValueError("obstacle-coded actors must carry a true bounding shape")
    return ObstacleState(
        time=a.time,
        step=a.step,
        obstacle_id=a.actor_id,
        obst_type=int(a.actor_type),
        pos=a.pos,
        poly_true=a.bbox_true,
        poly_perceived=a.bbox_perceived,
        ntd=a.ttc,
    )
