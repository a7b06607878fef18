"""The batched first-contact kernel against the scalar loop it replaced.

``_loop_first_contact`` is the per-vertex, per-edge loop that
``geometry.first_contact_time`` ran before the batched kernel, kept here
as the reference the kernel must match bit for bit: same candidates,
same arithmetic, same order, same errors.
"""

import math

import numpy as np
import pytest

from vistakit import geometry, synth
from vistakit.errors import DegeneratePolygon
from vistakit.model import VehicleProfile

from predicates import polygons_intersect
from test_kernel import _random_outline


def _loop_first_contact(a, vel_a, b, vel_b, horizon=30.0):
    A, B = geometry.poly_array(a), geometry.poly_array(b)
    if polygons_intersect(A, B):
        return 0.0
    w = np.asarray(vel_b, dtype=float) - np.asarray(vel_a, dtype=float)
    if not np.isfinite(w).all():
        raise ValueError("velocities must be finite")

    candidates = []

    def vertex_edge_times(points, edges_from, edges_to, vel):
        # moving point p(t) = p + vel*t against static edges
        for p in points:
            for q1, q2 in zip(edges_from, edges_to):
                d = q2 - q1
                denom = d[0] * vel[1] - d[1] * vel[0]
                num = d[0] * (p[1] - q1[1]) - d[1] * (p[0] - q1[0])
                if denom == 0.0:
                    continue
                t = -num / denom
                if t < -1e-12 or t > horizon:
                    continue
                hit = p + vel * t
                seg_len2 = float(d @ d)
                if seg_len2 == 0.0:
                    continue
                s = float((hit - q1) @ d) / seg_len2
                if -1e-9 <= s <= 1 + 1e-9:
                    candidates.append(max(t, 0.0))

    vertex_edge_times(B, A, np.roll(A, -1, axis=0), w)
    vertex_edge_times(A, B, np.roll(B, -1, axis=0), -w)

    # Vertex-on-vertex catches pure sliding along a shared line.
    w2 = float(w @ w)
    if w2 > 0.0:
        for p in B:
            for q in A:
                t = float((q - p) @ w) / w2
                if -1e-12 <= t <= horizon and \
                        float(np.hypot(*(p + w * t - q))) <= 1e-9:
                    candidates.append(max(t, 0.0))

    return float(min(candidates)) if candidates else math.inf


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except (DegeneratePolygon, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("rate", [10.0, 100.0])
def test_synthesizer_ttc_matches_loop_reference(rate, monkeypatch):
    calls = []

    def recorded(vut, outlines, rel_vels, *args):
        calls.append(outlines)
        return geometry.first_contact_times(vut, outlines, rel_vels, *args)
    monkeypatch.setattr(synth, "first_contact_times", recorded)

    footprint = VehicleProfile().footprint
    finite = 0
    for case in (1, 2, 3):
        trace = synth.synthesize(synth.ScenarioSpec(sample_rate=rate), case)
        outlines = calls.pop()
        tsv = trace.actors["TSV-01"]
        assert len(outlines) == len(trace.vut) == len(tsv)
        for vut, outline, rec in zip(trace.vut, outlines, tsv):
            want = _loop_first_contact(footprint, np.array([vut.speed, 0.0]),
                                       outline, np.zeros(2))
            assert repr(rec.ttc) == repr(want), (case, vut.step)
            finite += math.isfinite(want)
    assert finite > 0


def _random_setup(rng, k):
    """One (outline, relative velocity, horizon) of a mixed population:
    convex, concave and grid-snapped outlines (touching, overlapping,
    parallel edges), zero and axis-aligned velocities, short horizons."""
    outline = _random_outline(rng, k % 4)
    kind = k % 5
    if kind == 0:
        vel = np.zeros(2)
    elif kind == 1:
        vel = np.array([rng.choice([-3.0, 0.0, 3.0]),
                        rng.choice([-1.0, 0.0, 1.0])])
    else:
        vel = rng.uniform(-6.0, 6.0, 2)
    horizon = (30.0, 0.5, 2.0)[k % 3]
    return outline, vel, horizon


# 2400 setups in all; the last run cuts them into chunks of a few steps.
@pytest.mark.parametrize("vut_kind, chunk", [(None, None), (1, None),
                                             (3, 200)])
def test_kernel_matches_loop_reference(vut_kind, chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(geometry, "_CHUNK_ELEMENTS", chunk)
    rng = np.random.default_rng(23 if vut_kind is None else vut_kind)
    vut = geometry.poly_array(VehicleProfile().footprint) if vut_kind is None \
        else geometry.poly_array(_random_outline(rng, vut_kind))
    setups = [_random_setup(rng, k) for k in range(800)]
    groups = {}
    for i, (outline, _, horizon) in enumerate(setups):
        if geometry.fault_codes(outline[None])[0] == 0:
            groups.setdefault((len(outline), horizon), []).append(i)
    outcomes = set()
    for (_, horizon), idx in groups.items():
        got = geometry.first_contact_times(
            vut, np.stack([setups[i][0] for i in idx]),
            np.stack([setups[i][1] for i in idx]), horizon)
        for i, t in zip(idx, got.tolist()):
            outline, vel, _ = setups[i]
            want = _loop_first_contact(vut, np.zeros(2), outline, vel,
                                       horizon)
            assert repr(t) == repr(want), i
            assert repr(geometry.first_contact_time(
                vut, np.zeros(2), outline, vel, horizon)) == repr(want), i
            outcomes.add("touch" if want == 0.0 else
                         "none" if want == math.inf else "later")
    assert sum(map(len, groups.values())) > 700
    assert outcomes == {"touch", "none", "later"}


SQUARE = np.array([(0.0, -1.0), (1.0, -1.0), (1.0, 0.0), (0.0, 0.0)])
WIDE = np.array([(0.0, -1.0), (100.0, -1.0), (100.0, 0.0), (0.0, 0.0)])
# Each has a vertex 1e-8 m past WIDE's top-right corner, on the line of
# the top edge: inside the contact times' edge tolerance (1e-9 of the
# edge length), outside the overlap test's, so contact times are signed
# zeros.  ALONG_EDGE also has a bottom edge on that line that WIDE's
# corner meets at the opposite sign, so the order of the candidates
# decides the sign of the result.
BEYOND_CORNER = np.array([(100.0 + 1e-8, 0.0), (101.0, 1.0), (102.0, 0.0)])
ALONG_EDGE = np.array([(100.0 + 1e-8, 0.0), (200.0, 0.0), (150.0, 50.0)])


@pytest.mark.parametrize("outline", [BEYOND_CORNER, ALONG_EDGE])
def test_signed_zero_contact_times_match(outline):
    seen = set()
    for vel in [(0.0, 1.0), (0.0, -1.0), (1.0, 0.0), (-1.0, 0.0), (0.0, 0.0)]:
        want = repr(_loop_first_contact(WIDE, np.zeros(2), outline, vel))
        got = geometry.first_contact_times(WIDE, outline[None],
                                           np.array([vel]))
        assert repr(got.tolist()[0]) == want, vel
        seen.add(want)
    assert {"-0.0", "0.0"} <= seen


def test_needle_tips_meet_by_vertex_on_vertex():
    # Both tips lie on the line of motion and every edge at them is
    # parallel to it, so only the vertex-on-vertex candidates see the
    # tips meet (at t = 2, before the bodies' other edges at t = 3).
    a = np.array([(0.0, -1.0), (2.0, -1.0), (2.0, 0.0), (3.0, 0.0),
                  (2.0, 0.0), (0.0, 0.0)])
    b = np.array([(6.0, -1.0), (8.0, -1.0), (8.0, 1.0), (6.0, 1.0),
                  (6.0, 0.0), (5.0, 0.0), (6.0, 0.0)])
    vel = np.array([-1.0, 0.0])
    assert _loop_first_contact(a, np.zeros(2), b, vel) == 2.0
    assert geometry.first_contact_times(a, b[None], vel[None]).tolist() == \
        [2.0]


FAR = np.array([(5.0, 0.0), (6.0, 0.0), (6.0, 1.0)])
BAD_OUTLINES = [
    [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)],                 # zero area
    [(0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (0.0, 0.0)],     # 2 distinct
    [(0.0, 0.0), (math.nan, 0.0), (0.0, 1.0)],            # not finite
    [(0.0, 0.0), (1.0, 0.0)],                             # too few
]


@pytest.mark.parametrize("outline", BAD_OUTLINES)
def test_degenerate_outline_errors_match(outline):
    want = _outcome(_loop_first_contact, SQUARE, np.zeros(2), outline,
                    np.zeros(2))
    assert want.startswith("DegeneratePolygon")
    assert _outcome(geometry.first_contact_time, SQUARE, np.zeros(2),
                    outline, np.zeros(2)) == want
    assert _outcome(geometry.first_contact_time, outline, np.zeros(2),
                    SQUARE, np.zeros(2)) == _outcome(
        _loop_first_contact, outline, np.zeros(2), SQUARE, np.zeros(2))
    if len(outline) == 3:
        # The first bad step of a batch decides the error.
        stack = np.stack([FAR, np.array(outline), FAR])
        vels = np.array([(1.0, 0.0), (1.0, 0.0), (math.inf, 0.0)])
        assert _outcome(geometry.first_contact_times, SQUARE, stack,
                        vels) == want


@pytest.mark.parametrize("vel", [(math.inf, 0.0), (0.0, math.nan)])
def test_non_finite_velocity_errors_match(vel):
    # Overlapping bodies meet at 0 whatever the velocity; apart, it must
    # be finite.
    overlapping = SQUARE[:3] + 0.5
    for outline, expected in ((overlapping, "0.0"),
                              (FAR, "ValueError: velocities must be finite")):
        want = _outcome(_loop_first_contact, SQUARE, np.zeros(2), outline,
                        vel)
        assert want == expected
        assert _outcome(geometry.first_contact_time, SQUARE, np.zeros(2),
                        outline, vel) == want
    # The first bad step of a batch decides the error.
    stack = np.stack([overlapping, FAR, np.array(BAD_OUTLINES[0])])
    vels = np.array([vel, vel, (1.0, 0.0)])
    assert _outcome(geometry.first_contact_times, SQUARE, stack, vels) == \
        "ValueError: velocities must be finite"
