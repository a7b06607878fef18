"""The record-walking clearance series and rules, kept as the reference
for the columnar ones in ``vistakit.clearance`` and ``vistakit.rules``.

``clearance_series`` walks the entity's records one at a time: it finds
each record's VUT sample in a step map, gathers every WGS84 vertex as a
GeoPosition and projects them through one ``LocalFrame.at`` per sample.
``evaluate_run`` applies the rules to the records of ``trace.vut`` and of
each entity, on the series of ``clearance_series`` here.  The package's
versions must agree with these ``repr`` for ``repr``, sample by sample,
verdict by verdict and note by note.  ``series_rows`` formats a series
sample by sample, cell by cell, as ``evaluate --series`` must write it.
"""

from __future__ import annotations

import math

import numpy as np

from vistakit import geometry
from vistakit.clearance import (
    DEFAULT_FOOTPRINTS,
    FALLBACK_FOOTPRINT,
    SERIES_COLUMNS,
    ClearanceSample,
    ClearanceSeries,
    _concave,
    _Unread,
)
from vistakit.errors import UnknownEntity, VistaError
from vistakit.frames import MAX_EXTENT_M, LocalFrame, enu_to_vcs
from vistakit.model import (
    ActorState,
    GeoPosition,
    ObstacleState,
    Trace,
    VehicleProfile,
    is_fixed_infrastructure,
    normalize_heading,
)
from vistakit.rules import (
    ATTR_OTHER,
    ATTR_VUT,
    CYCLIST,
    FAIL,
    MOVING_TSV,
    NO_ENTITY_NOTE,
    NOT_APPLICABLE,
    PASS,
    PED_FACING_AWAY,
    PED_FACING_TRAFFIC,
    PMD_RIDER,
    ROAD_USER_OTHER,
    STATIC_OBSTACLE,
    STOPPED_VEHICLE,
    WARNING,
    RuleSet,
    RuleVerdict,
    RunEvaluation,
    _not_evaluable,
)
from vistakit.trace_io import _fmt


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


def _faults(outlines: list) -> list:
    """Why each outline is unusable, or None (also where there is no
    outline)."""
    faults = [None] * len(outlines)
    for idx, stack in _by_vertex_count(outlines):
        for i, code in zip(idx, geometry.fault_codes(stack).tolist()):
            faults[i] = geometry.FAULTS[code]
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
    """Clearance metrics against one entity, record by record."""
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


# --- the rules, record by record -------------------------------------------

def classify_lateral_context(trace: Trace, entity_id: str,
                             rules: RuleSet | None = None):
    """Context class per step for one entity, plus classification notes."""
    rules = rules or RuleSet()
    notes = []
    if entity_id in trace.obstacles:
        ctx = {r.step: STATIC_OBSTACLE for r in trace.obstacles[entity_id]}
        return ctx, notes
    records = trace.actors[entity_id]
    vut_by_step = {r.step: r for r in trace.vut}
    ctx = {}
    atype = records[0].actor_type
    if atype == "tsv":
        moving = any(
            r.speed >= rules.stopped_speed_eps
            or math.hypot(r.vel_lat, r.vel_long) >= rules.stopped_speed_eps
            for r in records
        )
        cls = MOVING_TSV if moving else STOPPED_VEHICLE
        return {r.step: cls for r in records}, notes
    if atype == "vru_cyclist":
        return {r.step: CYCLIST for r in records}, notes
    if atype == "vru_pmd":
        return {r.step: PMD_RIDER for r in records}, notes
    if atype == "vru_pedestrian":
        warned = False
        for r in records:
            if r.heading is None:
                ctx[r.step] = PED_FACING_AWAY
                if not warned:
                    notes.append(
                        f"{entity_id}: no heading logged, treated as "
                        "facing away from traffic"
                    )
                    warned = True
                continue
            oncoming = normalize_heading(vut_by_step[r.step].heading + 180.0)
            if abs(_wrap180(r.heading - oncoming)) < 90.0:
                ctx[r.step] = PED_FACING_TRAFFIC
            else:
                ctx[r.step] = PED_FACING_AWAY
        return ctx, notes
    notes.append(f"{entity_id}: unrecognised actor type {atype!r}, "
                 "strictest road-user threshold applied")
    return {r.step: ROAD_USER_OTHER for r in records}, notes


def _wrap180(deg: float) -> float:
    return (deg + 180.0) % 360.0 - 180.0


def _offence_summary(steps: list) -> tuple:
    if not steps:
        return ()
    return (min(steps), max(steps))


def _attribute(sample) -> str:
    """Who closed the gap at this sample: the other party only when it
    closes, and faster than the VUT."""
    if sample.entity_closing > max(sample.vut_closing, 0.0) + 1e-9:
        return ATTR_OTHER
    return ATTR_VUT


def _clearance_verdict(rule: str, samples: list, gap, limit, never: str,
                       margin=None, label=lambda s: "") -> RuleVerdict:
    if not samples:
        return RuleVerdict(rule=rule, outcome=NOT_APPLICABLE, detail=never)
    worst = min(samples, key=margin or gap)
    offending = [s for s in samples if gap(s) < limit(s)]
    collision = any(gap(s) < 0.0 for s in offending)
    attribution = _attribute(offending[0]) if offending else None
    if not offending:
        outcome = PASS
    elif attribution == ATTR_OTHER and not collision:
        outcome = WARNING
    else:
        outcome = FAIL
    detail = "; ".join(filter(None, (label(worst),
                                     "bodies overlap" if collision else "")))
    return RuleVerdict(
        rule=rule, outcome=outcome, measured=gap(worst),
        threshold=limit(worst),
        offending_steps=_offence_summary([s.step for s in offending]),
        attribution=attribution, detail=detail)


def evaluate_clearances(trace: Trace, series: ClearanceSeries,
                        rules: RuleSet) -> tuple:
    eid = series.entity_id
    context, notes = classify_lateral_context(trace, eid, rules)

    def lat_limit(s):
        return rules.lateral_threshold(context[s.step])

    lat = _clearance_verdict(
        f"lateral_clearance[{eid}]",
        [s for s in series.samples if math.isfinite(s.lateral)],
        lambda s: s.lateral, lat_limit, "never abreast of the vehicle",
        margin=lambda s: s.lateral - lat_limit(s),
        label=lambda s: context[s.step])
    lon = _clearance_verdict(
        f"longitudinal_clearance[{eid}]",
        [s for s in series.samples
         if math.isfinite(s.longitudinal) and s.longitudinal_side > 0],
        lambda s: s.longitudinal, lambda s: rules.longitudinal_threshold,
        "never ahead of the vehicle")
    return (lat, lon), tuple(notes)


def evaluate_kinematics(trace: Trace, rules: RuleSet) -> tuple:
    top = max(trace.vut, key=lambda r: r.speed)
    limit = rules.speed_limit
    offending = [r.step for r in trace.vut
                 if r.speed > limit + rules.speed_tolerance]
    speed = RuleVerdict(
        rule="speed_limit", outcome=FAIL if offending else PASS,
        measured=top.speed, threshold=limit,
        offending_steps=_offence_summary(offending),
        attribution=ATTR_VUT if offending else None,
    )
    hardest = min(trace.vut, key=lambda r: r.acc_long)
    braking = [r.step for r in trace.vut if r.acc_long <= rules.decel_warning]
    decel = RuleVerdict(
        rule="hard_deceleration",
        outcome=WARNING if braking else PASS,
        measured=hardest.acc_long, threshold=rules.decel_warning,
        offending_steps=_offence_summary(braking),
        detail="hard braking is reported for review, never failed" if braking
        else "",
    )
    return speed, decel


def evaluate_traffic_lights(trace: Trace, rules: RuleSet) -> tuple:
    verdicts = []
    notes = []
    for cid, records in sorted(trace.controllers.items()):
        rule = f"signal_compliance[{cid}]"
        line = rules.stop_lines.get(cid)
        if line is None:
            verdicts.append(RuleVerdict(
                rule=rule, outcome=NOT_APPLICABLE,
                detail="no stop line configured"))
            notes.append(f"{cid}: no stop line configured, signal "
                         "compliance not checked")
            continue
        frame = LocalFrame.at(line.pos)
        h = math.radians(line.heading_deg)
        fe, fn = math.sin(h), math.cos(h)
        phase_by_step = {r.step: r.phase for r in records}
        progress = []
        try:
            for r in trace.vut:
                e, n = frame.to_local(r.pos)
                progress.append((r.step, e * fe + n * fn))
        except VistaError as exc:
            _not_evaluable([rule], cid, exc, verdicts, notes)
            continue
        crossing = None
        for (s0, p0), (s1, p1) in zip(progress, progress[1:]):
            if p0 < 0.0 <= p1:
                crossing = (s0, s1)
                break
        if crossing is None:
            verdicts.append(RuleVerdict(
                rule=rule, outcome=NOT_APPLICABLE,
                detail="stop line never crossed"))
            continue
        phase = phase_by_step.get(crossing[1])
        if phase is None:
            known = [s for s in phase_by_step if s <= crossing[1]]
            phase = phase_by_step[max(known)] if known else None
        if phase is None:
            verdicts.append(RuleVerdict(
                rule=rule, outcome=NOT_APPLICABLE,
                detail="no signal state at the crossing"))
            notes.append(f"{cid}: crossed at step {crossing[1]} with no "
                         "signal state on record")
        elif phase == "stop":
            verdicts.append(RuleVerdict(
                rule=rule, outcome=FAIL, offending_steps=crossing,
                attribution=ATTR_VUT,
                detail="crossed the stop line against the signal"))
        else:
            verdicts.append(RuleVerdict(rule=rule, outcome=PASS,
                                        detail=f"crossed during {phase}"))
    return tuple(verdicts), tuple(notes)


def evaluate_run(trace: Trace, rules: RuleSet | None = None,
                 profile: VehicleProfile | None = None) -> RunEvaluation:
    """Every rule applied to one run, record by record.  A run with no
    actor and no portable obstacle gets the package's note saying so."""
    rules = rules or RuleSet()
    profile = profile or VehicleProfile()
    verdicts = []
    notes = []
    all_series = []

    entity_ids = list(trace.actors)
    for oid, recs in trace.obstacles.items():
        if recs and is_fixed_infrastructure(recs[0].obst_type):
            notes.append(f"{oid}: fixed infrastructure, clearance rules "
                         "not applied")
            continue
        entity_ids.append(oid)
    if not entity_ids:
        notes.append(NO_ENTITY_NOTE)
    for eid in entity_ids:
        try:
            series = clearance_series(trace, eid, profile=profile)
        except VistaError as exc:
            _not_evaluable([f"{axis}_clearance[{eid}]"
                            for axis in ("lateral", "longitudinal")],
                           eid, exc, verdicts, notes)
            continue
        all_series.append(series)
        notes.extend(series.notes)
        pair, cnotes = evaluate_clearances(trace, series, rules)
        verdicts.extend(pair)
        notes.extend(cnotes)

    verdicts.extend(evaluate_kinematics(trace, rules))
    light_verdicts, light_notes = evaluate_traffic_lights(trace, rules)
    verdicts.extend(light_verdicts)
    notes.extend(light_notes)

    return RunEvaluation(testcase_id=trace.testcase_id, run_id=trace.run_id,
                         verdicts=tuple(verdicts), notes=tuple(notes),
                         series=tuple(all_series))


def series_rows(series_list) -> list:
    """Plot-ready rows (header first) for one or more clearance series,
    each cell of each sample formatted by ``_fmt``."""
    rows = [list(SERIES_COLUMNS)]
    for series in series_list:
        for s in series.samples:
            rows.append([_fmt(getattr(s, c)) for c in SERIES_COLUMNS])
    return rows
