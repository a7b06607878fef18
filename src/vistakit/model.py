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

The records are frozen dataclasses, treated as values: construction
validates the cheap per-record invariants and raises
``ValueError``/``TypeError`` on violations.  The per-sample records and
their positions and outlines are slotted: they hold no ``__dict__`` and
take no weak references.

A :class:`Trace` holds each channel (the VUT's, and each entity's) as a
:class:`Channel`: one value list per field, a position by its own
fields.  The trace readers and the synthesizer make traces from columns
they have checked, and ``Trace.vut``, ``.actors``, ``.obstacles`` and
``.controllers`` build the records on first read, once.  A trace made
from records keeps them, and gathers its columns from them when made.
A channel keeps its columns for life, so one whose records have been
read holds both.
"""

from __future__ import annotations

import collections
import itertools
import math
from dataclasses import dataclass, field, fields
from operator import attrgetter

INDICATOR_NAMES = frozenset(
    {"left_front", "left_rear", "right_front", "right_rear",
     "brake", "reverse", "hazard"}
)

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


def _check_step(step) -> None:
    if not isinstance(step, int) or step < 0:
        raise ValueError(f"step must be a non-negative int, got {step!r}")


def _check_texts(record, *names) -> None:
    for name in names:
        if not getattr(record, name):
            raise ValueError(f"{name} must be non-empty")


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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
        _check_step(self.step)
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
        _check_texts(self, "drive_status", "special_op")


def _check_ttc(name: str, value: float) -> None:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise TypeError(f"{name} must be a number")
    if math.isnan(value) or value < 0.0:
        raise ValueError(f"{name} must be >= 0 or +inf, got {value!r}")


@dataclass(frozen=True, slots=True)
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
        _check_step(self.step)
        _check_texts(self, "actor_id", "actor_type")
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


@dataclass(frozen=True, slots=True)
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
        _check_step(self.step)
        _check_texts(self, "obstacle_id")
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


@dataclass(frozen=True, slots=True)
class TrafficControllerState:
    """One logged sample of a traffic light / controller."""

    time: float
    step: int
    controller_id: str
    phase: str

    def __post_init__(self):
        _check_finite("time", self.time)
        _check_step(self.step)
        _check_texts(self, "controller_id", "phase")


_NAMES = {cls: tuple(f.name for f in fields(cls))
          for cls in (GeoPosition, VcsPosition, BoundingShape, VutState,
                      ActorState, ObstacleState, TrafficControllerState)}
# Per record type, the slot setter of each field, in field order.
_SETTERS = {cls: tuple(getattr(cls, name).__set__ for name in names)
            for cls, names in _NAMES.items()}


def _build(cls, n, *values) -> list:
    """n records of cls from one value sequence per field, in field order.

    ``__post_init__`` does not run: the maker of the values has checked
    them as :class:`Channel` says, each flagged row by :func:`_check_row`.
    Each field is set through its slot, one C-level pass per field.
    """
    records = list(map(object.__new__, itertools.repeat(cls, n)))
    for setter, column in zip(_SETTERS[cls], values):
        collections.deque(map(setter, records, column), maxlen=0)
    return records


# Per record type, the position types its ``pos`` may have.  A row's
# position is in the first type whose first field (lat, x) it fills.
_POSITIONS = {VutState: (GeoPosition,),
              ActorState: (GeoPosition, VcsPosition),
              ObstacleState: (GeoPosition,),
              TrafficControllerState: ()}
# Per record type, the columns of a Channel: its fields in order, with
# ``pos`` given by the fields of each of its position types.
COLUMNS = {cls: tuple(itertools.chain.from_iterable(
    [name for t in _POSITIONS[cls] for name in _NAMES[t]] if name == "pos"
    else [name] for name in _NAMES[cls])) for cls in _POSITIONS}


def _column_of(cls, records, name) -> list:
    """The column ``name`` (see COLUMNS) of records of type cls."""
    for t in _POSITIONS[cls]:
        if name in _NAMES[t]:
            return [getattr(p, name) if isinstance(p, t) else None
                    for p in map(attrgetter("pos"), records)]
    return list(map(attrgetter(name), records))


def _assemble(cls, columns) -> list:
    """The records of type cls held by columns, built in bulk."""
    n = len(columns["step"])
    values = dict(columns, pos=[None] * n)
    for t in _POSITIONS[cls]:
        parts = [columns[name] for name in _NAMES[t]]
        rows = [k for k, v in enumerate(parts[0]) if v is not None]
        for k, p in zip(rows, _build(t, len(rows), *(
                [part[k] for k in rows] for part in parts))):
            values["pos"][k] = p
    return _build(cls, n, *(values[name] for name in _NAMES[cls]))


class Channel:
    """The records of one channel, the VUT's or one entity's, as columns:
    one value list per name of ``COLUMNS[type]``, in row order.  A
    position column holds None in the rows whose position is in another
    frame, and a column not given holds None throughout.

    The columns are set once, when the channel is made, and kept for its
    life; a channel made from records gathers them from the records.
    The records are built from the columns on first read, once, without
    their checks: whoever made the columns has checked every value
    against the bounds the constructors check (the trace reader's column
    pass, ``synth``'s bulk checks), and each row they flag with
    :func:`_check_row`.  They are then held beside the columns, so a
    caller that reads records holds both.  No value is changed once
    made, so traces may share a channel.
    """

    __slots__ = ("type", "columns", "_records")

    def __init__(self, type, columns=None, records=None):
        self.type = type
        self._records = records
        if records is not None:
            columns = {name: _column_of(type, records, name)
                       for name in COLUMNS[type]}
        none = [None] * len(columns["step"])
        self.columns = {name: columns.get(name, none)
                        for name in COLUMNS[type]}

    def __len__(self) -> int:
        return len(self.columns["step"])

    @property
    def records(self) -> tuple:
        if self._records is None:
            self._records = tuple(_assemble(self.type, self.columns))
        return self._records

    def position(self, k):
        """The position of row k, made on its own."""
        for t in _POSITIONS[self.type]:
            parts = [self.columns[name][k] for name in _NAMES[t]]
            if parts[0] is not None:
                return t(*parts)
        return None


def _check_row(cls, columns, k) -> None:
    """Raise the first error that constructing row k of columns (see
    :class:`Channel`) as a cls would raise, its position's checks first."""
    rec = Channel(cls, {name: [values[k]]
                        for name, values in columns.items()}).records[0]
    if getattr(rec, "pos", None) is not None:
        rec.pos.__post_init__()
    rec.__post_init__()


# A passenger car's (length, width) in metres: the default footprint of
# the vehicle under test, of a target vehicle, and of an entity of
# unknown type.
CAR_SIZE = (4.4, 1.8)


def default_footprint(length: float = CAR_SIZE[0],
                      width: float = CAR_SIZE[1]) -> BoundingShape:
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
    """The size of the vehicle under test and its footprint in the VCS."""

    length: float = CAR_SIZE[0]
    width: float = CAR_SIZE[1]
    footprint: BoundingShape | None = None

    def __post_init__(self):
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


# Trace's channel fields and the record type of each.
_TABLES = {"vut": VutState, "actors": ActorState, "obstacles": ObstacleState,
           "controllers": TrafficControllerState}


@dataclass(frozen=True)
class Trace:
    """A full single-run result: the VUT channel plus environment channels.

    ``actors``/``obstacles``/``controllers`` map entity id to the tuple of
    its per-step records, ordered by step.  Every environment record's
    step must also appear in the VUT channel, which acts as the master
    clock.  ``declared_frequency`` is carried metadata (Hz) and does not
    take part in equality.

    Each channel is held as a :class:`Channel` (see :meth:`channels`),
    and only as one: ``vut`` and the entity tables are their channels'
    records.  A trace made by the readers or the synthesizer has only
    the columns, and builds the records on first read, once.
    """

    testcase_id: str
    run_id: int
    vut: tuple
    actors: dict = field(default_factory=dict)
    obstacles: dict = field(default_factory=dict)
    controllers: dict = field(default_factory=dict)
    declared_frequency: float = field(default=0.0, compare=False)

    def __post_init__(self):
        self._check_run()
        vut = self.channels("vut").columns
        times, steps = vut["time"], vut["step"]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("VUT time must be strictly increasing")
        if any(b <= a for a, b in zip(steps, steps[1:])):
            raise ValueError("VUT step numbers must be strictly increasing")
        vut_steps = set(steps)
        for table in ("actors", "obstacles", "controllers"):
            for eid, channel in self.channels(table).items():
                steps = channel.columns["step"]
                for prev, step in zip([-1, *steps], steps):
                    if step not in vut_steps:
                        raise ValueError(
                            f"{table[:-1]} {eid!r} references step {step} "
                            "missing from the VUT channel"
                        )
                    if step <= prev:
                        raise ValueError(
                            f"{table[:-1]} {eid!r} steps must increase")

    def _check_run(self):
        if not self.testcase_id:
            raise ValueError("testcase_id must be non-empty")
        if not isinstance(self.run_id, int) or self.run_id < 1:
            raise ValueError(
                f"run_id must be a positive int, got {self.run_id!r}")
        if not len(self.channels("vut")):
            raise ValueError("trace must contain at least one VUT record")

    @classmethod
    def _checked(cls, testcase_id, run_id, vut, actors, obstacles,
                 controllers, declared_frequency) -> "Trace":
        """A Trace of channels (``vut`` a Channel, each entity table
        {entity id: Channel}) whose maker has made ``__post_init__``'s
        per-record checks itself (the trace reader, ``synth.perturb`` and
        ``synth.synthesize``): only the run checks run again."""
        trace = object.__new__(cls)
        trace.__dict__.update(
            testcase_id=testcase_id, run_id=run_id,
            declared_frequency=declared_frequency, _vut=vut, _actors=actors,
            _obstacles=obstacles, _controllers=controllers)
        trace._check_run()
        return trace

    def channels(self, table):
        """The Channel of the VUT (``table`` "vut"), or {entity id:
        Channel} of an entity table ("actors", "obstacles",
        "controllers")."""
        return self.__dict__["_" + table]

    def _renumbered(self, run_id) -> "Trace":
        """This trace under another run id, sharing its channels."""
        return Trace._checked(self.testcase_id, run_id,
                              *map(self.channels, _TABLES),
                              self.declared_frequency)

    @property
    def vut_steps(self) -> tuple:
        return tuple(self.channels("vut").columns["step"])

    @property
    def duration(self) -> float:
        times = self.channels("vut").columns["time"]
        return times[-1] - times[0]


def _channel(cls, records, what) -> Channel:
    """The channel of records, each of which must be a cls."""
    if not all(map(isinstance, records, itertools.repeat(cls))):
        raise TypeError(what)
    return Channel(cls, records=records)


def _records_of(table):
    """Trace's ``table`` field: the records of its channels.  Records
    given, as the dataclass ``__init__`` gives them, are held as
    channels."""
    cls = _TABLES[table]

    def get(self):
        held = self.__dict__["_" + table]
        return held.records if table == "vut" else {
            eid: channel.records for eid, channel in held.items()}

    def put(self, records):
        self.__dict__["_" + table] = _channel(
            cls, records, "vut entries must be VutState records") \
            if table == "vut" else {eid: _channel(
                cls, recs, f"{table[:-1]} {eid!r} holds a foreign record type")
                for eid, recs in records.items()}

    return property(get, put)


for _table in _TABLES:
    setattr(Trace, _table, _records_of(_table))


# What an obstacle exported through the actor channel shows: a numeric
# type code from the obstacle code space, and no motion at all.
_DISGUISE = ("actor_type", "speed", "vel_lat", "vel_long", "acc_lat",
             "acc_long")
# ObstacleState field -> the ActorState field it is taken from.
_AS_OBSTACLE = {"time": "time", "step": "step", "obstacle_id": "actor_id",
                "pos": "pos", "poly_true": "bbox_true", "ntd": "ttc",
                "poly_perceived": "bbox_perceived"}


def _obstacle_code(actor_type, speed, vel_lat, vel_long, acc_lat,
                   acc_long):
    """The obstacle type code of an actor sample that is an obstacle in
    disguise, else None."""
    try:
        code = int(actor_type)
    except ValueError:
        return None
    still = (
        speed == 0.0 and vel_lat == 0.0 and vel_long == 0.0
        and acc_lat == 0.0 and acc_long == 0.0
    )
    return code if still and code >= OBSTACLE_CODE_MIN else None


def _obstacle_columns(columns) -> dict | None:
    """An actor channel's columns as an obstacle's, when every row is an
    obstacle in disguise with a world position and a true outline; None
    otherwise."""
    codes = []
    for values in zip(*map(columns.get, _DISGUISE)):
        codes.append(_obstacle_code(*values))
        if codes[-1] is None:
            return None
    if not codes or None in columns["lat"] or None in columns["bbox_true"]:
        return None
    out = {name: columns[source] for name, source in _AS_OBSTACLE.items()
           if name != "pos"}
    out.update((name, columns[name]) for name in _NAMES[GeoPosition])
    out["obst_type"] = codes
    return out
