"""The batched separation kernel against the scalar code it replaced, and
the invariants that tie separation, the axis gaps and contact together.

``_loop_min_separation`` is what ``geometry.min_separation`` ran before
the batched kernel, kept here as the reference that
``geometry.separations_and_contact_times`` and ``min_separation`` must
match bit for bit: same distances, same arithmetic, same order.
"""

import math

import numpy as np
import pytest

from vistakit import geometry
from vistakit.model import VehicleProfile

from test_kernel import _random_outline


def _loop_points_to_edges_dist(points, e1, e2):
    d = e2 - e1
    pa = points[:, None, :] - e1[None, :, :]
    denom = (d * d).sum(axis=-1)
    denom_safe = np.where(denom > 0, denom, 1.0)
    t = np.clip((pa * d[None]).sum(axis=-1) / denom_safe, 0.0, 1.0)
    proj = e1[None] + t[..., None] * d[None]
    diff = points[:, None, :] - proj
    return float(np.sqrt((diff * diff).sum(axis=-1)).min())


def _loop_min_separation(a, b):
    A, B = geometry.poly_array(a), geometry.poly_array(b)
    if geometry.polygons_intersect(A, B):
        return 0.0
    return min(_loop_points_to_edges_dist(A, B, np.roll(B, -1, axis=0)),
               _loop_points_to_edges_dist(B, A, np.roll(A, -1, axis=0)))


# 6000 outlines in all: rotated rectangles, concave stars, grid-snapped
# stars and grid-snapped rectangles (touching pairs and ties); the last
# run cuts the stacks into chunks of a few outlines.
@pytest.mark.parametrize("vut_kind, chunk", [(None, None), (1, None),
                                             (3, 200)])
def test_kernel_matches_loop_reference(vut_kind, chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(geometry, "_CHUNK_ELEMENTS", chunk)
    rng = np.random.default_rng(29 if vut_kind is None else vut_kind)
    vut = geometry.poly_array(VehicleProfile().footprint) if vut_kind is None \
        else geometry.poly_array(_random_outline(rng, vut_kind))
    outlines = [_random_outline(rng, k % 4) for k in range(2000)]
    by_count = {}
    for i, poly in enumerate(outlines):
        if geometry.outline_faults(poly[None])[0] is None:
            by_count.setdefault(len(poly), []).append(i)
    assert sum(map(len, by_count.values())) > 1900
    outcomes = set()
    for idx in by_count.values():
        stack = np.stack([outlines[i] for i in idx])
        # The shared contact test gives the contact times bit for bit too.
        vels = rng.normal(0.0, 3.0, (len(idx), 2))
        seps, times = geometry.separations_and_contact_times(vut, stack, vels)
        assert repr(times.tolist()) == repr(
            geometry.first_contact_times(vut, stack, vels).tolist())
        for i, d in zip(idx, seps.tolist()):
            want = _loop_min_separation(vut, outlines[i])
            assert repr(d) == repr(want), i
            assert repr(geometry.min_separation(vut, outlines[i])) == \
                repr(want), i
            outcomes.add("meet" if want == 0.0 else "apart")
    assert outcomes == {"meet", "apart"}


def test_empty_stack_has_no_separations():
    vut = geometry.poly_array(VehicleProfile().footprint)
    seps, times = geometry.separations_and_contact_times(
        vut, np.empty((0, 4, 2)), np.empty((0, 2)))
    assert seps.shape == times.shape == (0,)


# --- properties on random convex pairs ---------------------------------

def _convex(rng):
    """A convex outline: 3 to 8 points on a circle, in angular order."""
    n = int(rng.integers(3, 9))
    ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    cx, cy = rng.uniform(-5.0, 5.0, 2)
    r = rng.uniform(0.3, 3.0)
    return np.column_stack([cx + r * np.cos(ang), cy + r * np.sin(ang)])


def _convex_pairs(rng, count=1000):
    """``count`` pairs of usable convex outlines, drawn one at a time."""
    for _ in range(count):
        a, b = _convex(rng), _convex(rng)
        while not all(geometry.outline_faults(p[None])[0] is None
                      for p in (a, b)):
            a, b = _convex(rng), _convex(rng)
        yield a, b


def test_separation_is_symmetric_and_rigid():
    rng = np.random.default_rng(41)
    apart = 0
    for a, b in _convex_pairs(rng):
        d = geometry.min_separation(a, b)
        assert geometry.min_separation(b, a) == d
        turn = rng.uniform(0.0, 2.0 * np.pi)
        rot = np.array([(math.cos(turn), -math.sin(turn)),
                        (math.sin(turn), math.cos(turn))])
        shift = rng.uniform(-50.0, 50.0, 2)
        moved = geometry.min_separation(a @ rot.T + shift, b @ rot.T + shift)
        assert abs(moved - d) <= 1e-9
        apart += d > 0.0
    assert 100 < apart < 900


def test_separation_is_at_most_any_axis_gap():
    gaps = 0
    for a, b in _convex_pairs(np.random.default_rng(43)):
        d = geometry.min_separation(a, b)
        dc = geometry.directional_clearance(a, b)
        for gap in (dc.lateral, dc.longitudinal):
            if 0.0 < gap < math.inf:
                assert d <= gap
                gaps += 1
    assert gaps > 100


def test_contact_time_is_zero_exactly_when_polygons_meet():
    rng = np.random.default_rng(47)
    meet = 0
    for a, b in _convex_pairs(rng):
        vel = rng.uniform(-6.0, 6.0, 2)
        t = geometry.first_contact_time(a, np.zeros(2), b, vel)
        touching = geometry.polygons_intersect(a, b)
        assert (t == 0.0) == touching
        meet += touching
    assert 100 < meet < 900
