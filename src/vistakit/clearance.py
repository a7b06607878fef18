"""Per-step clearance metrics between the VUT and environment entities.

Every metric is evaluated in the VUT's vehicle coordinate system at each
step where the entity has a record: the entity outline is projected into
the VCS, then measured against the vehicle footprint.  Entities without a
logged outline get a default footprint for their type (noted on the
series).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import geometry
from .errors import UnknownEntity
from .frames import MAX_EXTENT_M, LocalFrame, enu_to_vcs
from .model import (
    CAR_SIZE,
    ActorState,
    GeoPosition,
    ObstacleState,
    Trace,
    VehicleProfile,
)
from .trace_io import _fmt

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


@dataclass(frozen=True)
class ClearanceSeries:
    entity_id: str
    samples: tuple
    notes: tuple

    def min_lateral(self) -> float:
        vals = [s.lateral for s in self.samples if math.isfinite(s.lateral)]
        return min(vals) if vals else math.inf

    def min_longitudinal(self) -> float:
        vals = [s.longitudinal for s in self.samples
                if math.isfinite(s.longitudinal)]
        return min(vals) if vals else math.inf


def _records(trace: Trace, entity_id: str) -> tuple:
    if entity_id in trace.actors:
        return trace.actors[entity_id]
    if entity_id in trace.obstacles:
        return trace.obstacles[entity_id]
    raise UnknownEntity(f"no actor or obstacle with id {entity_id!r}")


def _outline(rec):
    return rec.poly_true if isinstance(rec, ObstacleState) else rec.bbox_true


class _Projected:
    """WGS84 points in the VCS of the VUT record each one belongs to.

    The arithmetic is that of :meth:`LocalFrame.to_local` followed by
    :func:`enu_to_vcs`, done for all points at once; a point beyond the
    safe extent of its frame raises only when it is used.
    """

    def __init__(self, points: list, owners: list, vuts: list):
        self.points, self.owners = points, owners
        self.frames = local = [LocalFrame.at(v.pos) for v in vuts]
        idx = np.array(owners, dtype=int)
        olat = np.array([f.origin.lat for f in local])[idx]
        olon = np.array([f.origin.lon for f in local])[idx]
        k_lat = np.array([f.m_per_deg_lat for f in local])[idx]
        k_lon = np.array([f.m_per_deg_lon for f in local])[idx]
        ex = (np.array([p.lon for p in points]) - olon) * k_lon
        ny = (np.array([p.lat for p in points]) - olat) * k_lat
        self.beyond = ((np.abs(ex) > MAX_EXTENT_M)
                       | (np.abs(ny) > MAX_EXTENT_M)).tolist()
        headings = np.array([v.heading for v in vuts])[idx]
        # Each frame's origin is its VUT, so these are offsets from it.
        self.vcs = enu_to_vcs(np.column_stack([ex, ny]), headings)

    def check(self, sel: range) -> None:
        """Raise ExtentExceeded for the first point of ``sel`` that lies
        beyond its frame, through LocalFrame.to_local itself."""
        for j in sel:
            if self.beyond[j]:
                self.frames[self.owners[j]].to_local(self.points[j])


def _by_vertex_count(outlines: list) -> list:
    """(indices, stack) of the given outlines per vertex count; None
    entries are left out."""
    groups: dict = {}
    for i, poly in enumerate(outlines):
        if poly is not None:
            groups.setdefault(len(poly), []).append(i)
    return [(idx, np.stack([outlines[i] for i in idx]))
            for idx in groups.values()]


def _concave(stack: np.ndarray) -> np.ndarray:
    """Which outlines of an (m, n, 2) stack are concave: consecutive
    edges turn both ways, which is exact for simple outlines."""
    edge = np.roll(stack, -1, axis=1) - stack
    after = np.roll(edge, -1, axis=1)
    turn = edge[..., 0] * after[..., 1] - edge[..., 1] * after[..., 0]
    return (turn > 0).any(axis=1) & (turn < 0).any(axis=1)


def _faults(outlines: list) -> list:
    """outline_faults for each outline (None where there is no outline)."""
    faults = [None] * len(outlines)
    for idx, stack in _by_vertex_count(outlines):
        for i, fault in zip(idx, geometry.outline_faults(stack)):
            faults[i] = fault
    return faults


# (v_long, v_lat, cos, sin) of an entity at rest or of unknown velocity.
_STILL = (0.0, 0.0, 1.0, 0.0)


def _actor_velocity(rec: ActorState, vut_heading: float):
    """(v_long, v_lat, cos, sin of the heading relative to the VUT), or
    None when the velocity cannot be placed in the VCS."""
    if rec.heading is None:
        total = math.hypot(rec.vel_lat, rec.vel_long)
        if rec.speed == 0.0 and total == 0.0:
            return _STILL
        return None
    psi = math.radians(rec.heading - vut_heading)
    return rec.vel_long, rec.vel_lat, math.cos(psi), math.sin(psi)


def _default_outline(rec: ActorState, vut, centre) -> np.ndarray:
    """The actor type's default footprint at the actor's VCS position."""
    length, width = DEFAULT_FOOTPRINTS.get(rec.actor_type, FALLBACK_FOOTPRINT)
    cx, cy = centre
    yaw_rel = 0.0
    if rec.heading is not None:
        yaw_rel = rec.heading - vut.heading
    return geometry.rect(cx, cy, length, width, yaw_deg=yaw_rel)


def clearance_series(trace: Trace, entity_id: str,
                     profile: VehicleProfile | None = None) -> ClearanceSeries:
    """Clearance metrics against one entity for every step it appears in.

    All steps are measured in one pass.  Every logged outline is projected
    into the VCS of its step as one array and checked as a batch; the
    axis gaps of all outlines come from :func:`geometry.axis_clearances`,
    one stack per vertex count, as do the separations and NTDs, together,
    when first read.  An unusable actor outline falls back to the default
    footprint and an unusable obstacle outline drops the step, both with a
    note.  The first concave outline kept is noted too: the axis gaps
    cover it by its overall span, so they may read short of the true gap.
    """
    profile = profile or VehicleProfile()
    records = _records(trace, entity_id)
    vut_by_step = {r.step: r for r in trace.vut}
    vuts = [vut_by_step[r.step] for r in records]
    footprint = geometry.poly_array(profile.footprint)

    # Every WGS84 point a step may need: its outline's vertices, then the
    # actor's position for a default footprint.
    points, owners, ring_at, centre_at = [], [], [], []
    for i, rec in enumerate(records):
        shape = _outline(rec)
        first = len(points)
        if shape is not None and shape.frame == "wgs84":
            points.extend(shape.vertices)
            owners.extend([i] * len(shape.vertices))
        ring_at.append(range(first, len(points)))
        first = len(points)
        if isinstance(rec, ActorState) and isinstance(rec.pos, GeoPosition):
            points.append(rec.pos)
            owners.append(i)
        centre_at.append(range(first, len(points)))
    projected = _Projected(points, owners, vuts)

    rings = []
    for i, rec in enumerate(records):
        shape = _outline(rec)
        if shape is None:
            rings.append(None)
        elif shape.frame == "wgs84":
            rings.append(projected.vcs[ring_at[i].start:ring_at[i].stop])
        else:
            rings.append(np.array([(v.x, v.y) for v in shape.vertices],
                                  dtype=float))
    faults = _faults(rings)

    notes: list = []
    kept, outlines, vels = [], [], []
    velocity_note_emitted = False
    for i, rec in enumerate(records):
        projected.check(ring_at[i])
        poly = rings[i] if faults[i] is None else None
        if isinstance(rec, ObstacleState):
            if poly is None:
                notes.append(
                    f"{rec.obstacle_id}: unusable outline at step {rec.step}")
                continue
            vel = _STILL
        else:
            if poly is None:
                if rings[i] is None:
                    note = (f"{rec.actor_id}: no outline logged, default "
                            "footprint used")
                    if note not in notes:
                        notes.append(note)
                else:
                    notes.append(
                        f"{rec.actor_id}: degenerate outline at step "
                        f"{rec.step}, default footprint used")
                projected.check(centre_at[i])
                centre = (projected.vcs[centre_at[i].start]
                          if centre_at[i] else (rec.pos.x, rec.pos.y))
                poly = _default_outline(rec, vuts[i], centre)
            vel = _actor_velocity(rec, vuts[i].heading)
            if vel is None:
                if not velocity_note_emitted:
                    notes.append(
                        f"{entity_id}: moving without a logged heading; "
                        "velocity treated as unknown"
                    )
                    velocity_note_emitted = True
                vel = _STILL
        kept.append(i)
        outlines.append(poly)
        vels.append(vel)

    n = len(kept)
    lateral, longitudinal = np.empty(n), np.empty(n)
    lat_side, lon_side = np.empty(n, dtype=int), np.empty(n, dtype=int)
    centroid = np.empty((n, 2))
    concave = np.zeros(n, dtype=bool)
    groups = _by_vertex_count(outlines)
    for idx, stack in groups:
        lateral[idx], longitudinal[idx], lat_side[idx], lon_side[idx] = \
            geometry.axis_clearances(footprint, stack)
        centroid[idx] = stack.mean(axis=1)
        concave[idx] = _concave(stack)
    if concave.any():
        notes.append(f"{entity_id}: concave outline at step "
                     f"{records[kept[concave.argmax()]].step}; axis gaps use "
                     "its overall span and may read short")

    # Entity velocity in the VCS: v_long along its heading plus v_lat to
    # its right, turned by its heading relative to the VUT's.
    v_long, v_lat, cos_psi, sin_psi = np.array(vels).reshape(n, 4).T
    ent_vel = np.column_stack([v_long * cos_psi + v_lat * -sin_psi,
                               v_long * sin_psi + v_lat * cos_psi])
    vut_vel = np.column_stack([[vuts[i].speed for i in kept], np.zeros(n)])
    dist = np.hypot(centroid[:, 0], centroid[:, 1])
    far = dist > 1e-9
    u = centroid / np.where(far, dist, 1.0)[:, None]
    vut_closing = np.where(far, geometry._rowdot(vut_vel, u), 0.0)
    entity_closing = np.where(far, geometry._rowdot(ent_vel, -u), 0.0)

    unread = _Unread(footprint, groups, ent_vel - vut_vel)
    samples = tuple(
        ClearanceSample(
            step=records[i].step, time=records[i].time, entity_id=entity_id,
            lateral=lat, longitudinal=lon, lateral_side=ls,
            longitudinal_side=gs, vut_closing=vc, entity_closing=ec,
            _unread=unread, _index=k)
        for k, (i, lat, lon, ls, gs, vc, ec) in enumerate(zip(
            kept, lateral.tolist(), longitudinal.tolist(), lat_side.tolist(),
            lon_side.tolist(), vut_closing.tolist(), entity_closing.tolist()))
    )
    return ClearanceSeries(entity_id=entity_id, samples=samples,
                           notes=tuple(notes))


def all_clearance_series(trace: Trace,
                         profile: VehicleProfile | None = None) -> list:
    """Clearance series for every actor and every portable obstacle."""
    from .model import is_fixed_infrastructure

    out = []
    for aid in trace.actors:
        out.append(clearance_series(trace, aid, profile=profile))
    for oid, recs in trace.obstacles.items():
        if recs and is_fixed_infrastructure(recs[0].obst_type):
            continue
        out.append(clearance_series(trace, oid, profile=profile))
    return out


SERIES_COLUMNS = ("step", "time", "entity_id", "lateral", "longitudinal",
                  "euclidean_min", "ntd")


def series_rows(series_list) -> list:
    """Plot-ready rows (header first) for one or more clearance series,
    each cell formatted as the trace writers format theirs."""
    rows = [list(SERIES_COLUMNS)]
    for series in series_list:
        for s in series.samples:
            rows.append([_fmt(getattr(s, c)) for c in SERIES_COLUMNS])
    return rows
