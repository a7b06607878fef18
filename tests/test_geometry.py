import math

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from vistakit.errors import DegeneratePolygon
from vistakit.geometry import (
    axis_clearances,
    clip_to_rect,
    directional_clearance,
    first_contact_time,
    min_separation,
    rect,
    rect_incursion,
    shoelace_area,
)

from oracles import (
    boundary_points,
    sampled_axis_gap,
    sampled_min_separation,
    sliced_axis_gap,
    stepped_first_contact,
)
from predicates import point_in_polygon, polygons_intersect


def _random_convex(rng, cx, cy, r_lo=0.4, r_hi=2.0):
    # Star-shaped point sets at sorted angles can still be concave, so
    # keep only the hull; the stepped-sweep oracle needs true convexity.
    n = int(rng.integers(3, 8))
    angles = np.sort(rng.uniform(0, 2 * math.pi, size=n))
    radii = rng.uniform(r_lo, r_hi, size=n)
    pts = np.column_stack([cx + radii * np.cos(angles),
                           cy + radii * np.sin(angles)])
    return pts[ConvexHull(pts).vertices]


def test_rect_layout():
    r = rect(1.0, 2.0, 4.0, 2.0)
    assert r.shape == (4, 2)
    assert shoelace_area(r) == pytest.approx(8.0)
    assert point_in_polygon((1.0, 2.0), r)
    assert not point_in_polygon((3.5, 2.0), r)


def test_rect_rotation():
    r = rect(0.0, 0.0, 4.0, 2.0, yaw_deg=90.0)
    xs, ys = r[:, 0], r[:, 1]
    assert max(xs) == pytest.approx(1.0)
    assert max(ys) == pytest.approx(2.0)


def test_min_separation_pythagorean():
    a = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float)
    b = np.array([[4, 5], [5, 5], [5, 6], [4, 6]], float)
    assert min_separation(a, b) == pytest.approx(5.0)
    assert min_separation(b, a) == pytest.approx(5.0)


def test_min_separation_contact_is_zero():
    a = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float)
    shared = np.array([[1, 0], [2, 0], [2, 1], [1, 1]], float)
    assert min_separation(a, shared) == 0.0
    overlapping = np.array([[0.5, 0.5], [1.5, 0.5], [1.5, 1.5], [0.5, 1.5]],
                           float)
    assert min_separation(a, overlapping) == 0.0
    inner = np.array([[0.4, 0.4], [0.6, 0.4], [0.6, 0.6], [0.4, 0.6]], float)
    assert min_separation(a, inner) == 0.0


def test_min_separation_rejects_degenerate():
    line = np.array([[0, 0], [1, 0]], float)
    box = rect(5, 5, 1, 1)
    with pytest.raises(DegeneratePolygon):
        min_separation(line, box)


def test_min_separation_translation_bound(rng):
    a = _random_convex(rng, 0.0, 0.0)
    b = _random_convex(rng, 5.0, 1.0)
    base = min_separation(a, b)
    for _ in range(40):
        v = rng.uniform(-1.0, 1.0, size=2)
        moved = min_separation(a, b + v)
        assert abs(moved - base) <= float(np.hypot(*v)) + 1e-9


def test_min_separation_matches_sampling_oracle(rng):
    for _ in range(40):
        a = _random_convex(rng, 0.0, 0.0)
        ang = rng.uniform(0, 2 * math.pi)
        d = rng.uniform(4.2, 8.0)
        b = _random_convex(rng, d * math.cos(ang), d * math.sin(ang))
        got = min_separation(a, b)
        ref = sampled_min_separation(boundary_points(a), boundary_points(b))
        assert abs(got - ref) <= 1e-3


def test_directional_dead_ahead():
    vut = rect(0, 0, 4.4, 1.8)
    ahead = rect(2.2 + 2.0 + 1.0, 0.0, 2.0, 1.0)
    dc = directional_clearance(vut, ahead)
    assert dc.longitudinal == pytest.approx(2.0)
    assert dc.longitudinal_side == 1
    assert dc.lateral == math.inf
    assert dc.lateral_side == 0


def test_directional_abreast():
    vut = rect(0, 0, 4.4, 1.8)
    right = rect(0.0, 0.9 + 1.53 + 0.5, 3.0, 1.0)
    dc = directional_clearance(vut, right)
    assert dc.lateral == pytest.approx(1.53)
    assert dc.lateral_side == 1
    assert dc.longitudinal == math.inf

    left = rect(0.0, -(0.9 + 0.7 + 0.5), 3.0, 1.0)
    dc = directional_clearance(vut, left)
    assert dc.lateral == pytest.approx(0.7)
    assert dc.lateral_side == -1


def test_directional_disjoint_projections():
    vut = rect(0, 0, 4.4, 1.8)
    diagonal = rect(10.0, 10.0, 2.0, 2.0)
    dc = directional_clearance(vut, diagonal)
    assert dc.lateral == math.inf
    assert dc.longitudinal == math.inf


def test_directional_interpenetration_is_negative():
    vut = rect(0, 0, 4.4, 1.8)
    overlapping = rect(2.0, 0.0, 2.0, 1.0)
    dc = directional_clearance(vut, overlapping)
    assert dc.longitudinal < 0.0


def test_directional_matches_slicing_oracle(rng):
    vut = rect(0, 0, 4.4, 1.8)
    for _ in range(60):
        cx = float(rng.uniform(-9, 9))
        cy = float(rng.uniform(-6, 6))
        ent = _random_convex(rng, cx, cy, 0.3, 1.4)
        got = directional_clearance(vut, ent)
        lat_ref = sampled_axis_gap(vut, ent, axis=1)
        lon_ref = sampled_axis_gap(vut, ent, axis=0)
        for g, r in ((got.lateral, lat_ref), (got.longitudinal, lon_ref)):
            if math.isinf(r):
                assert math.isinf(g)
            elif r < 0.0:
                # Penetration depth has no single canonical definition;
                # only the sign is contractual.
                assert g < 0.0
            else:
                assert g == pytest.approx(r, abs=1e-6)


def test_first_contact_head_on():
    vut = rect(0, 0, 4.4, 1.8)
    obst = rect(2.2 + 20.0 + 1.0, 0.0, 2.0, 1.0)
    t = first_contact_time(vut, [10.0, 0.0], obst, [0.0, 0.0])
    assert t == pytest.approx(2.0, abs=1e-9)


def test_first_contact_zero_closing():
    vut = rect(0, 0, 4.4, 1.8)
    lead = rect(10.0, 0.0, 2.0, 2.0)
    assert first_contact_time(vut, [5.0, 0.0], lead, [5.0, 0.0]) == math.inf
    # Already touching counts as contact now.
    touching = rect(2.2 + 1.0, 0.0, 2.0, 1.8)
    assert first_contact_time(vut, [0.0, 0.0], touching, [0.0, 0.0]) == 0.0


def test_first_contact_respects_horizon():
    vut = rect(0, 0, 4.4, 1.8)
    far = rect(1000.0, 0.0, 2.0, 2.0)
    assert first_contact_time(vut, [1.0, 0.0], far, [0.0, 0.0],
                              horizon=30.0) == math.inf


def test_first_contact_matches_stepped_oracle(rng):
    vut = rect(0, 0, 4.4, 1.8)
    hits = 0
    for _ in range(40):
        ang = float(rng.uniform(0, 2 * math.pi))
        d = float(rng.uniform(8.0, 40.0))
        ent = rect(d * math.cos(ang), d * math.sin(ang),
                   float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.5, 2.0)),
                   yaw_deg=float(rng.uniform(0, 180)))
        speed = float(rng.uniform(2.0, 14.0))
        jitter = math.radians(float(rng.uniform(-15.0, 15.0)))
        va = [speed * math.cos(ang + jitter), speed * math.sin(ang + jitter)]
        vb = [float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))]
        got = first_contact_time(vut, va, ent, vb)
        ref = stepped_first_contact(vut, va, ent, vb)
        if math.isinf(ref):
            assert got > 29.0 or math.isinf(got)
        else:
            hits += 1
            assert abs(got - ref) <= 0.01
    assert hits >= 10


def test_zone_incursion_depth():
    # Footprint half-width 0.9 plus a 1 m lateral zone reaches y = 1.9;
    # an entity edge at 1.11 m sits 0.79 m inside.
    bounds = (-2.2, 2.2, -1.9, 1.9)
    entity = np.array([[0.0, 1.11], [2.0, 1.11], [2.0, 2.5], [0.0, 2.5]])
    hit, depth = rect_incursion(bounds, entity)
    assert hit
    assert depth == pytest.approx(0.79, abs=1e-6)


def test_zone_incursion_outside_and_touching():
    bounds = (-2.2, 2.2, -1.9, 1.9)
    outside = np.array([[0.0, 2.0], [1.0, 2.0], [1.0, 3.0], [0.0, 3.0]])
    hit, depth = rect_incursion(bounds, outside)
    assert not hit and depth == 0.0
    touch = np.array([[0.0, 1.9], [1.0, 1.9], [1.0, 3.0], [0.0, 3.0]])
    hit, depth = rect_incursion(bounds, touch)
    assert hit
    assert depth == pytest.approx(0.0, abs=1e-9)


def test_zone_incursion_contained_entity():
    bounds = (-2.0, 2.0, -1.0, 1.0)
    inner = np.array([[-0.2, -0.2], [0.2, -0.2], [0.2, 0.2], [-0.2, 0.2]])
    hit, depth = rect_incursion(bounds, inner)
    assert hit
    # Deepest point of the intruding region is the rectangle centre.
    assert depth == pytest.approx(1.0, abs=1e-6)


def test_clip_to_rect_square():
    # Diamond |x|+|y| <= 1.5 clipped to the unit square loses four
    # corner triangles with 0.5 m legs.
    pts = np.array([[-1.5, 0], [0, -1.5], [1.5, 0], [0, 1.5]], float)
    out = clip_to_rect(pts, -1, 1, -1, 1)
    assert len(out) == 8
    assert shoelace_area(out) == pytest.approx(4.0 - 4 * 0.5 * 0.5 / 2)
    empty = clip_to_rect(pts, 5, 6, 5, 6)
    assert len(empty) == 0


def test_polygons_intersect_cases():
    a = rect(0, 0, 2, 2)
    assert polygons_intersect(a, rect(1.5, 0, 2, 2))
    assert not polygons_intersect(a, rect(5, 0, 2, 2))
    # Full containment intersects even with no crossing edges.
    assert polygons_intersect(a, rect(0, 0, 0.5, 0.5))


def _random_star(rng, cx, cy):
    """A star-shaped outline around (cx, cy): concave in general."""
    n = int(rng.integers(5, 9))
    angles = np.sort(rng.uniform(0, 2 * math.pi, size=n))
    radii = rng.uniform(0.3, 2.5, size=n)
    return np.column_stack([cx + radii * np.cos(angles),
                            cy + radii * np.sin(angles)])


def _random_u(rng):
    """A U whose mouth faces the VUT's front or back end from 1-3 m off
    the origin, so that the end often sits inside it without touching:
    then a slice crosses the U twice with the VUT in between."""
    h, d = rng.uniform(1.2, 2.5), rng.uniform(1.0, 4.0)
    t = rng.uniform(0.2, 0.5)
    # Mouth at x = 0, opening towards -x.
    u = np.array([(0.0, -h), (d, -h), (d, h), (0.0, h), (0.0, h - t),
                  (d - t, h - t), (d - t, t - h), (0.0, t - h)])
    phi = rng.choice([0.0, math.pi]) + rng.uniform(-0.3, 0.3)
    rot = np.array([(math.cos(phi), -math.sin(phi)),
                    (math.sin(phi), math.cos(phi))])
    return u @ rot.T + rng.uniform(1.0, 3.0) * rot[:, 0]


def test_concave_axis_gaps_err_on_the_safe_side():
    # A concave slice is covered by its overall span, which contains the
    # true union of intervals, so the kernel's gap may fall short of the
    # oracle's but never exceed it by more than the sampling step.
    step = 0.005
    rng = np.random.default_rng(5)
    vut = rect(0.0, 0.0, 4.4, 1.8)
    concave = [_random_star(rng, *rng.uniform(-7.0, 7.0, 2)) if k % 2
               else _random_u(rng) for k in range(200)]
    disjoint = [s for s in concave
                if sampled_min_separation(vut, s, step) > 2 * step]
    short, gaps = 0, 0
    for n in sorted({len(s) for s in disjoint}):
        stack = np.stack([s for s in disjoint if len(s) == n])
        lateral, longitudinal, _, _ = axis_clearances(vut, stack)
        for outline, lat, lon in zip(stack, lateral.tolist(),
                                     longitudinal.tolist()):
            for axis, got in ((1, lat), (0, lon)):
                want = sliced_axis_gap(vut, outline, axis, step)
                assert got <= want + step, (outline.tolist(), axis, got, want)
                gaps += math.isfinite(got)
                short += got < want - 0.1
    # Most pairs have a gap on some axis, and on some the span does cut
    # the gap short: the oracle sees the pocket that the span covers.
    assert len(disjoint) > 120 and gaps > 150 and short > 20, (
        len(disjoint), gaps, short)
    # Where both oracles apply, on convex pairs, they agree.
    for _ in range(30):
        a = _random_convex(rng, 0.0, 0.0)
        b = _random_convex(rng, *rng.uniform(4.5, 7.0, 2))
        for axis in (0, 1):
            want = sampled_axis_gap(a, b, axis, step)
            got = sliced_axis_gap(a, b, axis, step)
            assert got == want or abs(got - want) <= step, (axis, got, want)
