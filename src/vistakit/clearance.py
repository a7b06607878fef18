"""Per-step clearance metrics between the VUT and environment entities.

Every metric is evaluated in the VUT's vehicle coordinate system at each
step where the entity has a record: the entity outline is projected into
the VCS, then measured against the vehicle footprint.  Entities without a
logged outline get a default footprint for their type (noted on the
series).

A series is computed from the channel columns of the entity and of the
VUT, every step at once, and builds no record.  It holds its metrics as
arrays, which the rules read, and builds its samples on first read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat

import numpy as np

from . import geometry
from .errors import UnknownEntity
from .frames import MAX_EXTENT_M, LocalFrame, enu_to_vcs, scales
from .model import (
    CAR_SIZE,
    ActorState,
    Trace,
    VehicleProfile,
    is_fixed_infrastructure,
)
from .trace_io import _cells

NTD_HORIZON = 30.0

# Fallback footprints (length, width) in metres per actor type.
DEFAULT_FOOTPRINTS = {
    "vru_pedestrian": (0.5, 0.5),
    "vru_cyclist": (1.8, 0.6),
    "vru_pmd": (1.2, 0.6),
    "tsv": CAR_SIZE,
}
FALLBACK_FOOTPRINT = CAR_SIZE


@dataclass(frozen=True)
class _Unread:
    """What the sample fields no rule reads are computed from: shared by
    the samples of one series, indexed by sample."""

    footprint: np.ndarray
    groups: list        # (sample indices, outline stack) per vertex count
    rel_vels: np.ndarray

    @cached_property
    def measured(self) -> tuple:
        """(separations, NTDs) of every sample, as lists: one
        :func:`geometry.separations_and_contact_times` call per vertex
        count."""
        seps, ntds = (np.empty(len(self.rel_vels)) for _ in range(2))
        for idx, stack in self.groups:
            seps[idx], ntds[idx] = geometry.separations_and_contact_times(
                self.footprint, stack, self.rel_vels[idx], horizon=NTD_HORIZON)
        return seps.tolist(), ntds.tolist()


@dataclass(frozen=True)
class ClearanceSample:
    """All clearance metrics for one entity at one step.

    ``lateral``/``longitudinal`` are the axis gaps (+inf when the bodies
    do not overlap on the orthogonal axis, negative when they
    interpenetrate); the side fields locate the entity (+1 right/ahead,
    -1 left/behind, 0 straddling).  The closing speeds are the velocity
    components of each party toward the other, used for attribution.
    ``euclidean_min`` and ``ntd`` feed no rule, so both are computed on
    the first read of either, for every sample of the series at once, and
    then kept.
    """

    step: int
    time: float
    entity_id: str
    lateral: float
    longitudinal: float
    lateral_side: int
    longitudinal_side: int
    vut_closing: float
    entity_closing: float
    _unread: _Unread = field(repr=False, compare=False)
    _index: int = field(repr=False, compare=False)

    @property
    def euclidean_min(self) -> float:
        return self._unread.measured[0][self._index]

    @property
    def ntd(self) -> float:
        return self._unread.measured[1][self._index]


# The ClearanceSample fields a series holds as arrays, in field order.
_METRICS = ("lateral", "longitudinal", "lateral_side", "longitudinal_side",
            "vut_closing", "entity_closing")


def _finite_min(values: np.ndarray) -> float:
    """The first smallest finite value, as min() finds it, else +inf."""
    finite = values[np.isfinite(values)]
    return finite[finite.argmin()].item() if len(finite) else math.inf


@dataclass(frozen=True)
class ClearanceSeries:
    """One entity's clearance samples, in step order, and the notes on how
    they were measured.

    :func:`clearance_series` makes a series of ``columns``, {field:
    values} of its samples with each of ``_METRICS`` an array, and builds
    the ``samples`` from them on first read.  A series made from samples
    gathers its columns from them on first use.
    """

    entity_id: str
    samples: tuple
    notes: tuple

    @cached_property
    def columns(self) -> dict:
        def column(name):
            return [getattr(s, name) for s in self.samples]
        return {"step": column("step"), "time": column("time"), **{
            name: np.array(column(name), dtype=float) for name in _METRICS}}

    def min_lateral(self) -> float:
        return _finite_min(self.columns["lateral"])

    def min_longitudinal(self) -> float:
        return _finite_min(self.columns["longitudinal"])


def _samples(series: ClearanceSeries) -> tuple:
    c = series.columns
    return tuple(map(
        ClearanceSample, c["step"], c["time"], repeat(series.entity_id),
        *(c[name].tolist() for name in _METRICS),
        repeat(series.__dict__["_unread"]), range(len(c["step"]))))


# Built on first read unless given, as the dataclass __init__ gives them.
ClearanceSeries.samples = cached_property(_samples)
ClearanceSeries.samples.__set_name__(ClearanceSeries, "samples")


def entities(trace: Trace) -> tuple:
    """(actor and portable obstacle ids, fixed infrastructure ids)."""
    obstacles = trace.channels("obstacles")
    fixed = [oid for oid, channel in obstacles.items() if len(channel)
             and is_fixed_infrastructure(channel.columns["obst_type"][0])]
    return [*trace.channels("actors"),
            *(oid for oid in obstacles if oid not in fixed)], fixed


def _projected(lon, lat, frame) -> tuple:
    """(VCS points, beyond the safe extent or not) of WGS84 points, each
    in the ``frame`` of its VUT sample: (lon, lat, metres per degree of
    lat, of lon, heading) arrays that broadcast against ``lon``.  The
    arithmetic is that of LocalFrame.to_local, then enu_to_vcs."""
    olon, olat, k_lat, k_lon, heading = frame
    ex, ny = (lon - olon) * k_lon, (lat - olat) * k_lat
    beyond = (np.abs(ex) > MAX_EXTENT_M) | (np.abs(ny) > MAX_EXTENT_M)
    # Each frame's origin is its VUT, so these are offsets from it.
    return enu_to_vcs(np.stack([ex, ny], axis=-1), heading), beyond


def _outlines(shapes) -> tuple:
    """(vertex count, WGS84 or not, place in its stack) of each row of an
    outline column (count 0: no outline), and {vertex count: stack of
    the vertices of the distinct outlines}, (lon, lat) or (x, y).  Rows
    that hold one outline object share its vertices, read once."""
    distinct = dict(zip(map(id, shapes), shapes))
    number = dict(zip(distinct, range(len(distinct))))
    of_row = np.array(list(map(number.__getitem__, map(id, shapes))),
                      dtype=int)
    vertices, count, geo, place = {}, [], [], []
    for shape in distinct.values():
        count.append(0 if shape is None else len(shape.vertices))
        geo.append(count[-1] > 0 and shape.frame == "wgs84")
        stack = vertices.setdefault(count[-1], [])
        place.append(len(stack))
        if shape is not None:
            stack.append([(v.lon, v.lat) for v in shape.vertices] if geo[-1]
                         else [(v.x, v.y) for v in shape.vertices])
    vertices.pop(0, None)
    return (np.array(count, dtype=int)[of_row], np.array(geo, bool)[of_row],
            np.array(place, dtype=int)[of_row],
            {m: np.array(v, dtype=float) for m, v in vertices.items()})


def _concave(stack: np.ndarray) -> np.ndarray:
    """Which outlines of an (m, n, 2) stack are concave: consecutive
    edges turn both ways, which is exact for simple outlines."""
    edge = np.roll(stack, -1, axis=1) - stack
    after = np.roll(edge, -1, axis=1)
    turn = edge[..., 0] * after[..., 1] - edge[..., 1] * after[..., 0]
    return (turn > 0).any(axis=1) & (turn < 0).any(axis=1)


def clearance_series(trace: Trace, entity_id: str,
                     profile: VehicleProfile | None = None) -> ClearanceSeries:
    """Clearance metrics against one entity for every step it appears in.

    All steps are measured in one pass over the channel columns.  Every
    logged outline is projected into the VCS of its step as one array and
    checked as a batch; the axis gaps of all outlines come from
    :func:`geometry.axis_clearances`, one stack per vertex count, as do
    the separations and NTDs, together, when first read.  An unusable
    actor outline falls back to the default footprint and an unusable
    obstacle outline drops the step, both with a note.  The first concave
    outline kept is noted too: the axis gaps cover it by its overall
    span, so they may read short of the true gap.  The first step that
    uses a point beyond the safe extent of its frame raises
    ExtentExceeded.
    """
    profile = profile or VehicleProfile()
    channel = {**trace.channels("obstacles"),
               **trace.channels("actors")}.get(entity_id)
    if channel is None:
        raise UnknownEntity(f"no actor or obstacle with id {entity_id!r}")
    actor = channel.type is ActorState
    col = channel.columns
    footprint = geometry.poly_array(profile.footprint)
    steps = col["step"]
    n = len(steps)
    vut = trace.channels("vut")
    at = np.searchsorted(vut.columns["step"], steps)
    lon, lat, heading, speed = (vut.columns[name][at]
                                for name in ("lon", "lat", "heading", "speed"))
    frame = (lon, lat, *scales(lat), heading)       # each row's VUT frame

    # Each row's logged outline in its VCS, one stack per vertex count,
    # and the row's place in it.
    shapes = col["bbox_true" if actor else "poly_true"]
    count, geo, place, rings = _outlines(shapes)
    usable = np.zeros(n, dtype=bool)
    beyond_at = []      # (row, 0 for an outline or 1 for a centre, point)
    for m in list(rings):
        rows = np.flatnonzero(count == m)
        rings[m] = ring = rings[m][place[rows]]
        place[rows] = np.arange(len(rows))
        g = geo[rows]
        if g.any():
            own = rows[g]
            ring[g], beyond = _projected(ring[g, :, 0], ring[g, :, 1], [
                a[own, None] for a in frame])
            if beyond.any():
                k = int(beyond.any(axis=1).argmax())
                beyond_at.append((int(own[k]), 0, shapes[own[k]].vertices[
                    int(beyond[k].argmax())]))
        usable[rows] = geometry.fault_codes(ring) == 0

    # Velocity as (v_long, v_lat, cos, sin of the heading relative to the
    # VUT's); at rest, or unknown, where no heading is logged.
    v_long, v_lat, sin_psi = np.zeros((3, n))
    cos_psi = np.ones(n)
    rects = None
    if actor:
        kept = np.arange(n)
        ids = col["actor_id"]
        missing = np.flatnonzero(count == 0).tolist()[::-1]
        notes_at = [(i, 0, f"{a}: no outline logged, default footprint used")
                    for a, i in dict(zip(map(ids.__getitem__, missing),
                                         missing)).items()]
        notes_at += [(i, 0, f"{ids[i]}: degenerate outline at step "
                      f"{steps[i]}, default footprint used")
                     for i in np.flatnonzero((count > 0) & ~usable).tolist()]
        yaw = col["heading"] - heading      # NaN without a heading
        has = ~np.isnan(yaw)
        vel_long, vel_lat = col["vel_long"], col["vel_lat"]
        moving = (col["speed"] != 0.0) | (vel_lat != 0.0) \
            | (vel_long != 0.0)
        unknown = np.flatnonzero(~has & moving)
        if len(unknown):
            notes_at.append((int(unknown[0]), 1, (
                f"{entity_id}: moving without a logged heading; velocity "
                "treated as unknown")))
        psi = list(map(math.radians, yaw[has].tolist()))
        v_long[has], v_lat[has] = vel_long[has], vel_lat[has]
        cos_psi[has] = list(map(math.cos, psi))
        sin_psi[has] = list(map(math.sin, psi))

        # The type's default footprint where no outline is usable, at
        # the actor's position in the VCS.
        rows = np.flatnonzero(~usable)
        place[rows] = np.arange(len(rows))
        if len(rows):
            x, y, plat, plon = (col[name][rows]
                                for name in ("x", "y", "lat", "lon"))
            g = ~np.isnan(plat)
            own = rows[g]
            if len(own):
                centre, beyond = _projected(plon[g], plat[g],
                                            [a[own] for a in frame])
                x[g], y[g] = centre.T
                if beyond.any():
                    row = int(own[beyond.argmax()])
                    beyond_at.append((row, 1, channel.position(row)))
            types = map(col["actor_type"].__getitem__, rows.tolist())
            length, width = zip(*(DEFAULT_FOOTPRINTS.get(
                t, FALLBACK_FOOTPRINT) for t in types))
            rects = np.array(list(map(
                geometry.rect, x.tolist(), y.tolist(), length, width,
                np.where(has[rows], yaw[rows], 0.0).tolist())))
    else:
        kept = np.flatnonzero(usable)
        ids = col["obstacle_id"]
        notes_at = [(i, 0, f"{ids[i]}: unusable outline at step {steps[i]}")
                    for i in np.flatnonzero(~usable).tolist()]
    if beyond_at:
        row, _, point = min(beyond_at, key=lambda b: b[:2])
        LocalFrame.at(vut.position(int(at[row]))).to_local(point)   # raises
    notes = [note for *_, note in sorted(notes_at, key=lambda e: e[:2])]

    # The kept rows' outlines, one stack per vertex count in order of
    # first appearance.
    k = len(kept)
    lateral, longitudinal = np.empty(k), np.empty(k)
    lat_side, lon_side = np.empty(k, dtype=int), np.empty(k, dtype=int)
    centroid = np.empty((k, 2))
    concave = np.zeros(k, dtype=bool)
    counts = np.where(usable, count, 4)[kept]
    groups = []
    for m in counts[np.sort(np.unique(counts, return_index=True)[1])]:
        idx = np.flatnonzero(counts == m)
        rows = kept[idx]
        stack = np.empty((len(idx), m, 2))
        ring = usable[rows]
        for sel, source in ((ring, rings.get(m)), (~ring, rects)):
            if sel.any():
                stack[sel] = source[place[rows[sel]]]
        groups.append((idx, stack))
        lateral[idx], longitudinal[idx], lat_side[idx], lon_side[idx] = \
            geometry.axis_clearances(footprint, stack)
        centroid[idx] = stack.mean(axis=1)
        concave[idx] = _concave(stack)
    if concave.any():
        notes.append(f"{entity_id}: concave outline at step "
                     f"{steps[kept[concave.argmax()]]}; axis gaps use "
                     "its overall span and may read short")

    # Entity velocity in the VCS: v_long along its heading plus v_lat to
    # its right, turned by its heading relative to the VUT's.
    ent_vel = np.column_stack([v_long * cos_psi + v_lat * -sin_psi,
                               v_long * sin_psi + v_lat * cos_psi])[kept]
    vut_vel = np.column_stack([speed[kept], np.zeros(k)])
    dist = np.hypot(centroid[:, 0], centroid[:, 1])
    far = dist > 1e-9
    u = centroid / np.where(far, dist, 1.0)[:, None]
    vut_closing = np.where(far, geometry._rowdot(vut_vel, u), 0.0)
    entity_closing = np.where(far, geometry._rowdot(ent_vel, -u), 0.0)

    kept = kept.tolist()
    columns = dict(zip(_METRICS, (lateral, longitudinal, lat_side, lon_side,
                                  vut_closing, entity_closing)),
                   step=list(map(steps.__getitem__, kept)),
                   time=col["time"][kept].tolist())
    series = object.__new__(ClearanceSeries)
    series.__dict__.update(
        entity_id=entity_id, notes=tuple(notes), columns=columns,
        _unread=_Unread(footprint, groups, ent_vel - vut_vel))
    return series


def all_clearance_series(trace: Trace,
                         profile: VehicleProfile | None = None) -> list:
    """Clearance series for every actor and every portable obstacle."""
    return [clearance_series(trace, eid, profile=profile)
            for eid in entities(trace)[0]]


SERIES_COLUMNS = ("step", "time", "entity_id", "lateral", "longitudinal",
                  "euclidean_min", "ntd")


def series_columns(series_list) -> tuple:
    """(header, columns) of one or more clearance series, plot-ready: each
    column's cells formatted as the trace writers format theirs, from the
    series' columns (``euclidean_min`` and ``ntd`` from their batched
    computation), building no sample."""
    columns = [[] for _ in SERIES_COLUMNS]
    for series in series_list:
        c = series.columns
        unread = series.__dict__.get("_unread")
        measured = unread.measured if unread else (
            [s.euclidean_min for s in series.samples],
            [s.ntd for s in series.samples])
        for column, values in zip(columns, (
                c["step"], c["time"], [series.entity_id] * len(c["step"]),
                c["lateral"].tolist(), c["longitudinal"].tolist(),
                *measured)):
            column += values
    return list(SERIES_COLUMNS), [_cells(v, {}) for v in columns]
