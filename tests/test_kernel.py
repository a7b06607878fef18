"""The batched clearance kernel against per-step directional_clearance,
and the fields that are only computed when read."""

import math

import numpy as np
import pytest

from vistakit import cli, clearance, geometry, rules, synth, trace_io
from vistakit.clearance import DEFAULT_FOOTPRINTS, clearance_series
from vistakit.frames import LocalFrame, world_to_vcs
from vistakit.model import (
    ActorState,
    BoundingShape,
    GeoPosition,
    ObstacleState,
    Trace,
    VcsPosition,
    VehicleProfile,
)

from conftest import BASE, straight_vut_series

STEPS = 6
VUT_HEADING = 10.0


def _geo_ring(frame, pts):
    return BoundingShape("wgs84", tuple(frame.from_local(e, n) for e, n in pts))


def _moved(pts, de, dn):
    return [(e + de, n + dn) for e, n in pts]


QUAD = [(-0.3, -0.9), (0.3, -0.9), (0.3, 0.9), (-0.3, 0.9)]
PENTAGON = [(-0.5, -0.5), (0.5, -0.5), (0.7, 0.3), (0.0, 0.9), (-0.7, 0.3)]
# A U opening towards the VUT's lane: concave on the side that faces it.
CONCAVE = [(0.0, -1.5), (1.0, -1.5), (1.0, 1.5), (0.0, 1.5), (0.0, 1.0),
           (0.6, 1.0), (0.6, -1.0), (0.0, -1.0)]
COLLINEAR_VCS = BoundingShape("vcs", (VcsPosition(1.0, 3.0),
                                      VcsPosition(2.0, 3.0),
                                      VcsPosition(3.0, 3.0)))


def mixed_trace() -> Trace:
    """One actor and one obstacle covering every outline source.

    The cyclist has wgs84 outlines, a concave one at step 4, no outline
    at step 2 (moving with no heading) and a degenerate vcs outline at
    step 3.  The obstacle goes from 4 to 5 to 8 vertices, the last one
    concave.
    """
    vut = straight_vut_series(STEPS, heading=VUT_HEADING)
    frame = LocalFrame.at(BASE)
    cyclist = []
    for k in range(STEPS):
        de, dn = 2.2 - 0.6 * k, 1.0 + 2.0 * k
        heading = 30.0
        bbox = _geo_ring(frame, _moved(QUAD, de, dn))
        speed = 0.0
        if k == 2:
            bbox, heading, speed = None, None, 3.0
        elif k == 3:
            bbox = COLLINEAR_VCS
        elif k == 4:
            bbox = _geo_ring(frame, _moved(CONCAVE, de - 0.4, dn))
        cyclist.append(ActorState(
            time=k * 0.1, step=k, actor_id="CYC", actor_type="vru_cyclist",
            pos=frame.from_local(de, dn), bbox_true=bbox, speed=speed,
            vel_lat=0.0, vel_long=speed, acc_lat=0.0, acc_long=0.0,
            ttc=math.inf, heading=heading))
    cone = []
    for k in range(STEPS):
        shape = QUAD if k < 3 else PENTAGON if k < 5 else \
            [(-e, n) for e, n in CONCAVE]
        cone.append(ObstacleState(
            time=k * 0.1, step=k, obstacle_id="CONE", obst_type=100,
            pos=frame.from_local(-2.0 + 0.4 * k, 4.0),
            poly_true=_geo_ring(frame, _moved(shape, -2.0 + 0.4 * k, 4.0)),
            ntd=math.inf))
    return Trace("TC-KERNEL", 1, vut, actors={"CYC": tuple(cyclist)},
                 obstacles={"CONE": tuple(cone)})


def _projected_outline(rec, vut):
    """The outline the kernel should measure, one point at a time."""
    shape = rec.poly_true if isinstance(rec, ObstacleState) else rec.bbox_true
    if shape is not None and shape.frame == "wgs84":
        pts = [world_to_vcs(vut.pos, vut.heading, v) for v in shape.vertices]
        return [(p.x, p.y) for p in pts]
    length, width = DEFAULT_FOOTPRINTS[rec.actor_type]
    centre = world_to_vcs(vut.pos, vut.heading, rec.pos)
    yaw = 0.0 if rec.heading is None else rec.heading - vut.heading
    return geometry.rect(centre.x, centre.y, length, width, yaw_deg=yaw)


@pytest.mark.parametrize("entity_id", ["CYC", "CONE"])
def test_batch_equals_per_step_directional_clearance(entity_id):
    trace = mixed_trace()
    records = {**trace.actors, **trace.obstacles}[entity_id]
    vut_by_step = {r.step: r for r in trace.vut}
    footprint = VehicleProfile().footprint
    series = clearance_series(trace, entity_id)
    assert [s.step for s in series.samples] == list(range(STEPS))
    for rec, sample in zip(records, series.samples):
        want = geometry.directional_clearance(
            footprint, _projected_outline(rec, vut_by_step[rec.step]))
        got = (sample.lateral, sample.longitudinal, sample.lateral_side,
               sample.longitudinal_side)
        assert got == (want.lateral, want.longitudinal, want.lateral_side,
                       want.longitudinal_side), rec.step
    assert any(math.isfinite(s.lateral) for s in series.samples)
    assert any(math.isfinite(s.longitudinal) for s in series.samples)


def test_mixed_trace_notes_keep_their_order():
    series = clearance_series(mixed_trace(), "CYC")
    assert series.notes == (
        "CYC: no outline logged, default footprint used",
        "CYC: moving without a logged heading; velocity treated as unknown",
        "CYC: degenerate outline at step 3, default footprint used",
        "CYC: concave outline at step 4; axis gaps use its overall span "
        "and may read short",
    )
    assert clearance_series(mixed_trace(), "CONE").notes == (
        "CONE: concave outline at step 5; axis gaps use its overall span "
        "and may read short",)


def test_vcs_obstacle_outline_used_as_is():
    vut = straight_vut_series(2)
    shape = BoundingShape("vcs", tuple(
        VcsPosition(x, y) for x, y in [(5.0, -1.0), (6.0, -1.0),
                                       (6.0, 1.0), (5.0, 1.0)]))
    recs = tuple(ObstacleState(time=k * 0.1, step=k, obstacle_id="BOX",
                               obst_type=100, pos=BASE, poly_true=shape,
                               ntd=math.inf) for k in range(2))
    series = clearance_series(Trace("TC-VCS", 1, vut,
                                    obstacles={"BOX": recs}), "BOX")
    assert [s.longitudinal for s in series.samples] == [5.0 - 2.2] * 2
    assert all(s.longitudinal_side == 1 for s in series.samples)
    assert series.notes == ()


def test_degenerate_projected_outline_is_noted():
    # Three points on one parallel: distinct in degrees, collinear once
    # projected.
    vut = straight_vut_series(1)
    shape = BoundingShape("wgs84", tuple(
        GeoPosition(BASE.lat + 1e-4, BASE.lon + d) for d in (0.0, 1e-5, 2e-5)))
    rec = ObstacleState(time=0.0, step=0, obstacle_id="FLAT", obst_type=100,
                        pos=BASE, poly_true=shape, ntd=math.inf)
    series = clearance_series(Trace("TC-FLAT", 1, vut,
                                    obstacles={"FLAT": (rec,)}), "FLAT")
    assert series.samples == ()
    assert series.notes == ("FLAT: unusable outline at step 0",)


# The per-slice loop that the batched kernel replaced, kept as the
# reference it must match bit for bit: same candidates, same arithmetic.

def _loop_slice(pts, axis, c):
    a, b = pts, np.roll(pts, -1, axis=0)
    pa, pb, qa, qb = a[:, axis], b[:, axis], a[:, 1 - axis], b[:, 1 - axis]
    hits = []
    for i in np.nonzero((pa - c) * (pb - c) <= 0)[0]:
        if pa[i] == pb[i]:
            hits.extend((qa[i], qb[i]))
        else:
            t = (c - pa[i]) / (pb[i] - pa[i])
            hits.append(qa[i] + t * (qb[i] - qa[i]))
    return (min(hits), max(hits)) if hits else None


def _loop_crossings(A, B, axis):
    out = []
    for p, r in zip(A, np.roll(A, -1, axis=0) - A):
        for q, s in zip(B, np.roll(B, -1, axis=0) - B):
            denom = r[0] * s[1] - r[1] * s[0]
            if denom == 0:
                continue
            qp = q - p
            t = (qp[0] * s[1] - qp[1] * s[0]) / denom
            u = (qp[0] * r[1] - qp[1] * r[0]) / denom
            if -1e-12 <= t <= 1 + 1e-12 and -1e-12 <= u <= 1 + 1e-12:
                out.append(float(p[axis] + t * r[axis]))
    return out


def _loop_axis_gap(A, B, axis):
    other = 1 - axis
    lo = max(A[:, other].min(), B[:, other].min())
    hi = min(A[:, other].max(), B[:, other].max())
    if lo > hi:
        return math.inf
    cand = [lo, hi] + [float(v) for v in np.concatenate(
        [A[:, other], B[:, other]]) if lo <= v <= hi]
    cand += [c for c in _loop_crossings(A, B, other) if lo <= c <= hi]
    best = math.inf
    for c in sorted(set(cand)):
        sa, sb = _loop_slice(A, other, c), _loop_slice(B, other, c)
        if sa is None or sb is None:
            continue
        if sb[0] > sa[1]:
            g = sb[0] - sa[1]
        elif sa[0] > sb[1]:
            g = sa[0] - sb[1]
        else:
            g = -(min(sa[1], sb[1]) - max(sa[0], sb[0]))
        if g < best:
            best = g
    return float(best)


def _loop_side(A, B, axis):
    if B[:, axis].min() >= A[:, axis].max():
        return 1
    return -1 if B[:, axis].max() <= A[:, axis].min() else 0


def _random_outline(rng, kind):
    cx, cy = rng.uniform(-8.0, 8.0, 2)
    if kind == 0:
        return geometry.rect(cx, cy, rng.uniform(0.3, 5.0),
                             rng.uniform(0.3, 2.0), rng.uniform(0.0, 360.0))
    if kind == 3:       # axis-aligned on a 0.1 m grid: touching and ties
        return geometry.rect(round(cx, 1), round(cy, 1), 2.0, 1.0)
    # star-shaped, so concave in general; kind 2 snaps to a 0.1 m grid
    n = int(rng.integers(3, 9))
    ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    rad = rng.uniform(0.2, 3.0, n)
    pts = np.column_stack([cx + rad * np.cos(ang), cy + rad * np.sin(ang)])
    return np.round(pts, 1) if kind == 2 else pts


def _row_class(A, B, axis):
    """Which slices the kernel computes for the pair along ``axis``."""
    other = 1 - axis
    lo = max(A[:, other].min(), B[:, other].min())
    hi = min(A[:, other].max(), B[:, other].max())
    if lo > hi:
        return "empty window"
    if any(lo <= c <= hi for c in _loop_crossings(A, B, other)):
        return "crossing"
    return "no crossing"


@pytest.mark.parametrize("vut_kind", [None, 1])
def test_kernel_matches_loop_reference(vut_kind, monkeypatch):
    rng = np.random.default_rng(11)
    vut = geometry.poly_array(VehicleProfile().footprint) if vut_kind is None \
        else geometry.poly_array(_random_outline(rng, vut_kind))
    outlines = [_random_outline(rng, k % 4) for k in range(400)]
    by_count = {}
    for i, poly in enumerate(outlines):
        if geometry.fault_codes(poly[None])[0] == 0:
            by_count.setdefault(len(poly), []).append(i)
    assert sum(map(len, by_count.values())) > 350
    classes = {0: set(), 1: set()}
    # The second pass cuts the stacks into chunks of a few outlines, so
    # rows of every class share chunks and sit on both sides of their
    # edges.
    for chunk in (geometry._CHUNK_ELEMENTS, 1000):
        monkeypatch.setattr(geometry, "_CHUNK_ELEMENTS", chunk)
        for idx in by_count.values():
            got = zip(*(a.tolist() for a in geometry.axis_clearances(
                vut, np.stack([outlines[i] for i in idx]))))
            for i, row in zip(idx, got):
                B = outlines[i]
                want = (_loop_axis_gap(vut, B, 1), _loop_axis_gap(vut, B, 0),
                        _loop_side(vut, B, 1), _loop_side(vut, B, 0))
                assert repr(row) == repr(want), (chunk, i)
                for axis in classes:
                    classes[axis].add(_row_class(vut, B, axis))
    assert classes == dict.fromkeys(
        classes, {"empty window", "no crossing", "crossing"})


def _count_calls(monkeypatch, names):
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(geometry, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(geometry, name, counted)
    return counts


# Separation and NTD come from one kernel call that shares the contact
# test; the kernel that would compute NTD alone is not called.
LAZY = ("separations_and_contact_times", "_intersecting")
UNUSED = ("first_contact_times",)


def test_unread_fields_not_computed_by_evaluate(tmp_path, monkeypatch):
    trace_io.write_flat(synth.synthesize(case=1), tmp_path / "runs")
    # Chunks large enough that each kernel takes the run's 293 outlines
    # in one call, so one call is one pass.
    monkeypatch.setattr(geometry, "_CHUNK_ELEMENTS", 1 << 18)
    counts = _count_calls(monkeypatch, LAZY + UNUSED)
    argv = ["evaluate", str(tmp_path / "runs"), "--n-required", "1",
            "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 1
    assert counts == dict.fromkeys(counts, 0)
    # --series writes separation and NTD, so it does compute them: in one
    # call, with one contact test, for the one entity, whose outlines all
    # have 4 vertices.
    assert cli.main(argv + ["--series"]) == 1
    assert counts == {**dict.fromkeys(LAZY, 1), **dict.fromkeys(UNUSED, 0)}


def test_unread_fields_computed_once_on_read(monkeypatch):
    series = clearance_series(mixed_trace(), "CYC")
    counts = _count_calls(monkeypatch, LAZY + ("fault_codes",))
    assert len(series.samples) == STEPS
    assert counts == dict.fromkeys(counts, 0)
    first = series.samples[0]
    reads = [(first.ntd, first.euclidean_min) for _ in range(2)]
    assert reads[0] == reads[1]
    # Both come for the whole series at once: one call per vertex count
    # (4, including the default footprints, and the concave 8), and the
    # outlines, checked when the series was built, are not checked again.
    assert counts == {**dict.fromkeys(LAZY, 2), "fault_codes": 0}
    for _ in range(2):
        [(s.ntd, s.euclidean_min) for s in series.samples]
    assert counts == {**dict.fromkeys(LAZY, 2), "fault_codes": 0}


@pytest.mark.parametrize("entity_id", ["CYC", "CONE"])
def test_batched_ntd_equals_per_sample_first_contact_time(entity_id):
    trace = mixed_trace()
    records = {**trace.actors, **trace.obstacles}[entity_id]
    vut_by_step = {r.step: r for r in trace.vut}
    footprint = VehicleProfile().footprint
    series = clearance_series(trace, entity_id)
    for rec, sample in zip(records, series.samples):
        # Every entity of the mixed trace is at rest or of unknown
        # velocity, so only the VUT moves.
        vut = vut_by_step[rec.step]
        want = geometry.first_contact_time(
            footprint, (vut.speed, 0.0), _projected_outline(rec, vut),
            (0.0, 0.0), horizon=clearance.NTD_HORIZON)
        assert repr(sample.ntd) == repr(want), rec.step
    assert any(math.isfinite(s.ntd) for s in series.samples)


@pytest.mark.parametrize("entity_id", ["CYC", "CONE"])
def test_batched_separation_equals_per_sample_min_separation(entity_id):
    trace = mixed_trace()
    records = {**trace.actors, **trace.obstacles}[entity_id]
    vut_by_step = {r.step: r for r in trace.vut}
    footprint = VehicleProfile().footprint
    series = clearance_series(trace, entity_id)
    for rec, sample in zip(records, series.samples):
        want = geometry.min_separation(
            footprint, _projected_outline(rec, vut_by_step[rec.step]))
        assert repr(sample.euclidean_min) == repr(want), rec.step
    assert any(s.euclidean_min > 0.0 for s in series.samples)


def test_evaluate_series_measures_each_entity_once(tmp_path, monkeypatch):
    for trace in synth.synthesize_runs(case=1, count=2):
        trace_io.write_flat(trace, tmp_path / "runs")
    calls = []

    def counted(trace, entity_id, *args, _fn=clearance_series, **kwargs):
        calls.append((trace.run_id, entity_id))
        return _fn(trace, entity_id, *args, **kwargs)
    monkeypatch.setattr(clearance, "clearance_series", counted)
    monkeypatch.setattr(rules, "clearance_series", counted)
    out = tmp_path / "out"
    assert cli.main(["evaluate", str(tmp_path / "runs"), "--n-required", "2",
                     "--out", str(out), "--series"]) == 1
    assert sorted(calls) == [(1, "TSV-01"), (2, "TSV-01")]
    assert sorted(p.name for p in out.glob("*_series.csv")) == [
        "M2-CL4-S-TST-05-01_r01_series.csv",
        "M2-CL4-S-TST-05-01_r02_series.csv"]
