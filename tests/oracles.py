"""Independent reference computations the tests check the library against.

Everything here deliberately uses a different method than the package:
dense boundary sampling instead of exact candidate scans, stepped
simulation instead of closed-form contact times, textbook sphere and
ellipsoid formulas instead of the package's projection.  Agreement
between two unrelated methods is what makes the checks meaningful.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree

WGS84_A = 6378137.0
WGS84_F = 1.0 / 298.257223563
WGS84_E2 = WGS84_F * (2.0 - WGS84_F)


def ecef(lat_deg: float, lon_deg: float, elev: float = 0.0) -> np.ndarray:
    lat, lon = math.radians(lat_deg), math.radians(lon_deg)
    n = WGS84_A / math.sqrt(1.0 - WGS84_E2 * math.sin(lat) ** 2)
    return np.array([
        (n + elev) * math.cos(lat) * math.cos(lon),
        (n + elev) * math.cos(lat) * math.sin(lon),
        (n * (1.0 - WGS84_E2) + elev) * math.sin(lat),
    ])


def chord_distance(a, b) -> float:
    """Straight-line distance between two surface points, metres."""
    return float(np.linalg.norm(ecef(a.lat, a.lon) - ecef(b.lat, b.lon)))


def sphere_bearing(a, b) -> float:
    """Great-circle initial bearing, degrees clockwise from north."""
    p1, p2 = math.radians(a.lat), math.radians(b.lat)
    dl = math.radians(b.lon - a.lon)
    y = math.sin(dl) * math.cos(p2)
    x = math.cos(p1) * math.sin(p2) - math.sin(p1) * math.cos(p2) * math.cos(dl)
    return math.degrees(math.atan2(y, x)) % 360.0


def boundary_points(poly, step: float = 0.001) -> np.ndarray:
    """Points along the polygon outline roughly ``step`` metres apart.

    Every vertex is included exactly (each edge is sampled from its own
    start), which matters: directional extrema sit on vertices.
    """
    pts = np.asarray(poly, dtype=float)
    out = []
    n = len(pts)
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        length = float(np.hypot(b[0] - a[0], b[1] - a[1]))
        m = max(int(math.ceil(length / step)), 1)
        ts = (np.arange(m) / m)[:, None]
        out.append(a + ts * (b - a))
    return np.vstack(out)


def sampled_min_separation(A, B, step: float = 0.001) -> float:
    pa = boundary_points(A, step)
    pb = boundary_points(B, step)
    d, _ = cKDTree(pb).query(pa, k=1)
    return float(d.min())


def _slices_at(poly, coords: np.ndarray, axis: int):
    """Interval of a convex polygon along the other axis, per coordinate.

    Returns (lo, hi) arrays with +inf/-inf where the polygon has no
    extent at that coordinate.
    """
    pts = np.asarray(poly, dtype=float)
    n = len(pts)
    other = 1 - axis
    lo = np.full(len(coords), np.inf)
    hi = np.full(len(coords), -np.inf)
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        da = b[axis] - a[axis]
        if da == 0.0:
            mask = coords == a[axis]
            if mask.any():
                lo[mask] = np.minimum(lo[mask], min(a[other], b[other]))
                hi[mask] = np.maximum(hi[mask], max(a[other], b[other]))
            continue
        t = (coords - a[axis]) / da
        mask = (t >= 0.0) & (t <= 1.0)
        y = a[other] + t * (b[other] - a[other])
        lo = np.where(mask, np.minimum(lo, y), lo)
        hi = np.where(mask, np.maximum(hi, y), hi)
    return lo, hi


def sampled_axis_gap(A, B, axis: int, step: float = 0.001) -> float:
    """Directional gap along ``axis`` from dense boundary sampling.

    Convex polygons only.  Candidate scan coordinates come from the
    sampled outlines of both bodies; slices at each candidate are exact.
    """
    other = 1 - axis
    pa = boundary_points(A, step)
    pb = boundary_points(B, step)
    lo = max(pa[:, other].min(), pb[:, other].min())
    hi = min(pa[:, other].max(), pb[:, other].max())
    if lo > hi:
        return math.inf
    cand = np.concatenate([pa[:, other], pb[:, other], [lo, hi]])
    cand = np.unique(cand[(cand >= lo) & (cand <= hi)])
    a_lo, a_hi = _slices_at(A, cand, other)
    b_lo, b_hi = _slices_at(B, cand, other)
    valid = np.isfinite(a_hi) & np.isfinite(b_hi)
    if not valid.any():
        return math.inf
    gap = np.maximum(b_lo - a_hi, a_lo - b_hi)
    return float(gap[valid].min())


def _interval_unions(poly, coords: np.ndarray, along: int) -> np.ndarray:
    """Where each line across ``along`` runs inside a simple polygon.

    The lines are {coordinate[1 - along] == c} for c in ``coords``.
    Returns a (K, N) array of the boundary crossings along ``along``,
    sorted and padded with NaN; the line is inside the polygon between
    columns 2i and 2i + 1 (even-odd rule, vertices counted half-open).
    Concave polygons are fine: a line may cross them several times.
    """
    pts = np.asarray(poly, dtype=float)
    a, b = pts, np.roll(pts, -1, axis=0)
    cut = 1 - along
    ca, cb, c = a[:, cut], b[:, cut], coords[:, None]
    crosses = (ca <= c) != (cb <= c)
    t = (c - ca) / np.where(ca == cb, 1.0, cb - ca)
    x = a[:, along] + t * (b[:, along] - a[:, along])
    return np.sort(np.where(crosses, x, np.nan), axis=1)


def sliced_axis_gap(A, B, axis: int, step: float = 0.001) -> float:
    """Directional gap along ``axis`` between two disjoint simple
    polygons, concave ones included.

    The slices are the lines across ``axis`` through every sampled
    boundary point of both outlines.  On each slice, each body covers a
    union of intervals, from the exact boundary crossings; the slice gap
    is the smallest distance between an interval of one and an interval
    of the other.  +inf when no slice meets both bodies.
    """
    other = 1 - axis
    coords = np.unique(np.concatenate([boundary_points(A, step)[:, other],
                                       boundary_points(B, step)[:, other]]))
    ia = _interval_unions(A, coords, axis)
    ib = _interval_unions(B, coords, axis)
    # A line crosses a closed outline an even number of times.
    ia, ib = ia[:, :ia.shape[1] // 2 * 2], ib[:, :ib.shape[1] // 2 * 2]
    a_lo, a_hi = ia[:, 0::2, None], ia[:, 1::2, None]
    b_lo, b_hi = ib[:, None, 0::2], ib[:, None, 1::2]
    # NaN wherever either interval is padding.
    gap = np.maximum(b_lo - a_hi, a_lo - b_hi)
    gap = gap[~np.isnan(gap)]
    return float(gap.min()) if gap.size else math.inf


def _edge_normals(P: np.ndarray) -> np.ndarray:
    E = np.roll(P, -1, axis=0) - P
    N = np.column_stack([-E[:, 1], E[:, 0]])
    return N[np.abs(N).sum(axis=1) > 0]


def stepped_first_contact(A, vel_a, B, vel_b, horizon: float = 30.0,
                          dt: float = 0.001) -> float:
    """First touch time from a fixed-step sweep of a separating-axis test.

    Convex polygons only.  B moves at ``vel_b - vel_a`` relative to a
    static A; at each step the bodies touch when no edge normal of
    either separates the projections.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    w = np.asarray(vel_b, dtype=float) - np.asarray(vel_a, dtype=float)
    t = np.arange(0.0, horizon + dt / 2.0, dt)
    ok = np.ones(len(t), dtype=bool)
    for ax in np.vstack([_edge_normals(A), _edge_normals(B)]):
        pa = A @ ax
        pb = B @ ax
        drift = float(w @ ax)
        lo = pb.min() + drift * t
        hi = pb.max() + drift * t
        ok &= (hi >= pa.min()) & (lo <= pa.max())
        if not ok.any():
            return math.inf
    idx = int(np.argmax(ok))
    return float(t[idx]) if ok[idx] else math.inf
