"""Planar polygon metrics in the vehicle coordinate system.

Everything here works on simple polygons given as (N, 2) float arrays of
x/y vertices (VCS metres: x forward, y right).  Inputs may also be
vcs-frame BoundingShape values.  Vertices are an open ring.

Sign conventions for clearances: positive is a real gap, zero is touch,
negative is interpenetration depth.  Directional (axis) clearances are
only meaningful while the two bodies overlap when projected onto the
*other* axis; outside that they are reported as +inf.

Two kernels work on an (S, N, 2) stack of outlines, one per step,
against one VUT outline, in one numpy pass chunked to bound memory:

* :func:`axis_clearances` - the directional gaps and sides;
  :func:`directional_clearance` is its one-step case.  Each gap is the
  smallest slice gap over candidate lines across the axis.  No line is
  sliced where the shared window on the other axis is empty (the gap is
  +inf); the window ends and the vertices are sliced everywhere else,
  and the boundary crossings only on the steps whose outlines cross.
* :func:`first_contact_times` - the time to first contact under constant
  relative velocity; :func:`first_contact_time` is its one-step case.
  It computes the candidates of the per-vertex loop it replaced
  (vertex-to-edge times both ways, vertex-on-vertex sliding), in the
  same arithmetic and order, so results are identical to the last bit.

:func:`separations_and_contact_times` gives the Euclidean separations
and the contact times of outlines already checked, with one contact test
shared between them; :func:`min_separation` is the one-step case of the
first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePolygon
from .model import BoundingShape

_EPS = 1e-12


def poly_array(poly) -> np.ndarray:
    """Coerce to an (N, 2) vertex array, rejecting degenerate outlines."""
    if isinstance(poly, BoundingShape):
        if poly.frame != "vcs":
            raise ValueError("geometry works on vcs-frame shapes; project first")
        pts = np.array([(v.x, v.y) for v in poly.vertices], dtype=float)
    else:
        pts = np.asarray(poly, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
        raise DegeneratePolygon(f"need an (N>=3, 2) vertex array, got {pts.shape}")
    code = fault_codes(pts[None])[0]
    if code:
        raise DegeneratePolygon(FAULTS[code])
    return pts


# Why an outline is unusable, by the code of :func:`fault_codes`.
FAULTS = (None, "polygon vertices must be finite",
          "polygon needs at least 3 distinct vertices",
          "polygon has zero area")


def fault_codes(outlines: np.ndarray) -> np.ndarray:
    """Index into FAULTS of the first check of :func:`poly_array` each
    outline of an (S, N>=3, 2) stack fails (finite vertices, at least 3
    distinct vertices, non-zero area), 0 where it passes them all."""
    with np.errstate(invalid="ignore", over="ignore"):
        finite = np.isfinite(outlines).all(axis=(1, 2))
        distinct = _distinct_counts(outlines)
        area = np.abs(shoelace_area(outlines))
    return np.select([~finite, distinct < 3, area <= _EPS], [1, 2, 3], 0)


def _distinct_counts(outlines: np.ndarray) -> np.ndarray:
    """How many distinct vertices each outline of an (S, N, 2) stack has."""
    same = (outlines[:, :, None, :] == outlines[:, None, :, :]).all(-1)
    return outlines.shape[1] - np.tril(same, k=-1).any(axis=2).sum(axis=1)


def shoelace_area(pts: np.ndarray):
    """Signed area of an (N, 2) polygon, or of each in an (S, N, 2) stack."""
    x, y = pts[..., 0], pts[..., 1]
    return 0.5 * (np.sum(x * np.roll(y, -1, axis=-1), axis=-1)
                  - np.sum(y * np.roll(x, -1, axis=-1), axis=-1))


def rect(cx: float, cy: float, length: float, width: float,
         yaw_deg: float = 0.0) -> np.ndarray:
    """Rectangle footprint: length along +x, width along +y, then yawed.

    Yaw is clockwise-positive like a heading, i.e. a positive yaw turns
    the +x axis toward +y.
    """
    hl, hw = length / 2.0, width / 2.0
    corners = np.array([(hl, -hw), (hl, hw), (-hl, hw), (-hl, -hw)])
    a = math.radians(yaw_deg)
    # Clockwise rotation in the x-forward/y-right plane.
    rot = np.array([(math.cos(a), -math.sin(a)), (math.sin(a), math.cos(a))])
    return corners @ rot.T + np.array([cx, cy])


def _edges(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and end points of every edge of an (..., N, 2) outline."""
    return pts, np.concatenate([pts[..., 1:, :], pts[..., :1, :]], axis=-2)


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis through the same product as a 1-D
    ``@``, which can round differently from an elementwise multiply and
    add.  Leading axes broadcast."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _contains(points: np.ndarray, polys: np.ndarray) -> np.ndarray:
    """Boundary-inclusive point-in-polygon test (crossing number) of each
    (..., 2) point against the matching (..., N, 2) outline."""
    x, y = points[..., 0, None], points[..., 1, None]
    a, b = _edges(polys)
    ax, ay, bx, by = a[..., 0], a[..., 1], b[..., 0], b[..., 1]
    # On-boundary check first.
    dx, dy = bx - ax, by - ay
    cross = (x - ax) * dy - (y - ay) * dx
    dot = (x - ax) * dx + (y - ay) * dy
    sq = dx * dx + dy * dy
    on = (np.abs(cross) <= 1e-9 * np.maximum(1.0, np.sqrt(sq))) & \
         (dot >= -1e-9) & (dot <= sq + 1e-9)
    crosses = ((ay > y) != (by > y)) & \
              (x < ax + (y - ay) * dx / np.where(dy == 0, 1.0, dy))
    return on.any(axis=-1) | (np.count_nonzero(crosses, axis=-1) % 2 == 1)


def _orient(p, q, r):
    """(q - p) x (r - p) over stacks of points: > 0 where r lies left of
    the line pq, < 0 right of it, 0 on it."""
    return (q[..., 0] - p[..., 0]) * (r[..., 1] - p[..., 1]) - \
           (q[..., 1] - p[..., 1]) * (r[..., 0] - p[..., 0])


def _segments_intersect(a1, a2, b1, b2) -> np.ndarray:
    """Vectorized inclusive segment intersection.

    a1/a2: (..., n, 2) edges, b1/b2: (..., m, 2) edges -> (..., n, m) bool.
    """
    a1 = a1[..., :, None, :]
    a2 = a2[..., :, None, :]
    b1 = b1[..., None, :, :]
    b2 = b2[..., None, :, :]
    d1 = _orient(b1, b2, a1)
    d2 = _orient(b1, b2, a2)
    d3 = _orient(a1, a2, b1)
    d4 = _orient(a1, a2, b2)
    proper = ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0))

    def on_seg(p, q, r):
        # r collinear with pq; is it inside the bounding box of pq?
        return (np.minimum(p[..., 0], q[..., 0]) - _EPS <= r[..., 0]) & \
               (r[..., 0] <= np.maximum(p[..., 0], q[..., 0]) + _EPS) & \
               (np.minimum(p[..., 1], q[..., 1]) - _EPS <= r[..., 1]) & \
               (r[..., 1] <= np.maximum(p[..., 1], q[..., 1]) + _EPS)

    touch = ((d1 == 0) & on_seg(b1, b2, a1)) | ((d2 == 0) & on_seg(b1, b2, a2)) | \
            ((d3 == 0) & on_seg(a1, a2, b1)) | ((d4 == 0) & on_seg(a1, a2, b2))
    return proper | touch


def _intersecting(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Whether each pair of outlines in two (..., N, 2) stacks shares any
    point (touching counts)."""
    a1, a2 = _edges(A)
    b1, b2 = _edges(B)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _segments_intersect(a1, a2, b1, b2).any(axis=(-2, -1)) | \
            _contains(A[..., 0, :], B) | _contains(B[..., 0, :], A)


# Elements per kernel chunk; bounds temporary memory.
_CHUNK_ELEMENTS = 1 << 18


def _pair_chunk(A: np.ndarray, B: np.ndarray) -> int:
    """Outlines per chunk for the kernels that pair every vertex of one
    outline with every edge of the other."""
    return max(1, _CHUNK_ELEMENTS // (8 * A.shape[1] * B.shape[1]))


def _vertex_edge_dists(P: np.ndarray, E: np.ndarray) -> np.ndarray:
    """Distance from each vertex of P to each edge of E, (S, |P|, |E|).

    ``P`` and ``E`` are (S, N, 2) or (1, N, 2).
    """
    e1, e2 = (e[..., None, :, :] for e in _edges(E))
    d = e2 - e1
    pa = P[..., :, None, :] - e1
    denom = (d * d).sum(axis=-1)
    denom_safe = np.where(denom > 0, denom, 1.0)
    t = np.clip((pa * d).sum(axis=-1) / denom_safe, 0.0, 1.0)
    proj = e1 + t[..., None] * d
    diff = P[..., :, None, :] - proj
    return np.sqrt((diff * diff).sum(axis=-1))


def _separations(A, B, touching):
    """Smallest Euclidean distance between a (1, M, 2) ``A`` and each
    outline of an (S, N, 2) ``B``, 0 where :func:`_intersecting` gave
    ``touching``."""
    to_b = _vertex_edge_dists(A, B).min(axis=(1, 2))
    to_a = _vertex_edge_dists(B, A).min(axis=(1, 2))
    # min(to_b, to_a) as Python computes it: the first of equals.
    return np.where(touching, 0.0, np.where(to_a < to_b, to_a, to_b))


def min_separation(a, b) -> float:
    """Smallest Euclidean distance between two polygons; 0 when they meet."""
    A, B = poly_array(a)[None], poly_array(b)[None]
    return float(_separations(A, B, _intersecting(A, B))[0])


def _slice_intervals(P: np.ndarray, axis: int, c: np.ndarray):
    """Extent of each outline on the lines {coordinate[axis] == c}.

    ``P`` is (S, N, 2) or (1, N, 2), ``c`` is (S, K).  Returns (lo, hi),
    each (S, K), with lo > hi where the line misses the outline.
    Concave outlines are covered by their overall span.
    """
    b = np.roll(P, -1, axis=1)
    pa, pb = P[:, None, :, axis], b[:, None, :, axis]
    qa, qb = P[:, None, :, 1 - axis], b[:, None, :, 1 - axis]
    c = c[:, :, None]
    span = (pa - c) * (pb - c) <= 0
    flat = pa == pb
    t = (c - pa) / np.where(flat, 1.0, pb - pa)
    hit = qa + t * (qb - qa)
    lo = np.where(flat, np.minimum(qa, qb), hit)
    hi = np.where(flat, np.maximum(qa, qb), hit)
    return (np.where(span, lo, np.inf).min(axis=-1),
            np.where(span, hi, -np.inf).max(axis=-1))


def _interval_gaps(a_lo, a_hi, b_lo, b_hi):
    overlap = -(np.where(b_hi < a_hi, b_hi, a_hi)
                - np.where(b_lo > a_lo, b_lo, a_lo))
    return np.where(b_lo > a_hi, b_lo - a_hi,
                    np.where(a_lo > b_hi, a_lo - b_hi, overlap))


def _crossing_coords(A: np.ndarray, B: np.ndarray, axis: int):
    """axis-coordinates of boundary intersection points between A and B.

    Returns (coords, found), each (S, Na * Nb): one slot per edge pair.
    """
    r = np.roll(A, -1, axis=1) - A
    s = np.roll(B, -1, axis=1) - B
    p, r = A[:, :, None, :], r[:, :, None, :]
    q, s = B[:, None, :, :], s[:, None, :, :]
    denom = r[..., 0] * s[..., 1] - r[..., 1] * s[..., 0]
    qp = q - p
    safe = np.where(denom == 0, 1.0, denom)
    t = (qp[..., 0] * s[..., 1] - qp[..., 1] * s[..., 0]) / safe
    u = (qp[..., 0] * r[..., 1] - qp[..., 1] * r[..., 0]) / safe
    found = (denom != 0) & (-1e-12 <= t) & (t <= 1 + 1e-12) & \
        (-1e-12 <= u) & (u <= 1 + 1e-12)
    coords = p[..., axis] + t * r[..., axis]
    n = B.shape[0]
    return coords.reshape(n, -1), found.reshape(n, -1)


def _axis_gaps(A: np.ndarray, B: np.ndarray, axis: int) -> np.ndarray:
    """Signed clearance along ``axis`` over the shared window on the
    other axis, per outline of B; +inf when the projections on the other
    axis are disjoint.

    The gap is the smallest slice gap over the candidate slices: the
    window ends, every vertex and every boundary crossing inside it.
    Only slices that can reach that minimum are computed: none on a row
    whose window is empty, and the crossing lines only on the rows whose
    boundaries cross inside the window.  The other slices would give
    +inf, so the result is the same to the last bit.
    """
    other = 1 - axis
    a_lo, a_hi = A[:, :, other].min(axis=1), A[:, :, other].max(axis=1)
    b_lo, b_hi = B[:, :, other].min(axis=1), B[:, :, other].max(axis=1)
    lo = np.where(b_lo > a_lo, b_lo, a_lo)
    hi = np.where(b_hi < a_hi, b_hi, a_hi)
    gaps = np.full(len(B), np.inf)
    rows = np.flatnonzero(lo <= hi)
    if not len(rows):
        return gaps
    B, lo, hi = B[rows], lo[rows, None], hi[rows, None]
    n = len(rows)
    ends_and_vertices = np.concatenate([
        lo, hi, np.broadcast_to(A[:, :, other], (n, A.shape[1])),
        B[:, :, other]], axis=1)
    crossing, found = _crossing_coords(A, B, other)
    found &= (lo <= crossing) & (crossing <= hi)
    crosses = found.any(axis=1)
    crossing = np.where(found, crossing, np.inf)
    for sel, extra in ((~crosses, crossing[:, :0]), (crosses, crossing)):
        if sel.any():
            cand = np.concatenate([ends_and_vertices[sel], extra[sel]], axis=1)
            gaps[rows[sel]] = _min_slice_gap(A, B[sel], other, cand,
                                             lo[sel], hi[sel])
    return gaps


def _min_slice_gap(A, B, other, cand, lo, hi):
    """Smallest gap between A and each outline of B over the slices
    {coordinate[other] == c} for the (S, K) candidates ``cand`` that lie
    in [lo, hi]; +inf where no candidate slices both."""
    cand = np.where((lo <= cand) & (cand <= hi), cand, np.inf)
    sa_lo, sa_hi = _slice_intervals(A, other, cand)
    sb_lo, sb_hi = _slice_intervals(B, other, cand)
    sliced = (sa_lo <= sa_hi) & (sb_lo <= sb_hi)
    gaps = np.where(sliced, _interval_gaps(sa_lo, sa_hi, sb_lo, sb_hi),
                    np.inf)
    return gaps.min(axis=1)


def _interval_sides(A: np.ndarray, B: np.ndarray, axis: int) -> np.ndarray:
    """+1 where B lies wholly on the positive side of A along ``axis``."""
    a, b = A[:, :, axis], B[:, :, axis]
    return np.where(b.min(axis=1) >= a.max(axis=1), 1,
                    np.where(b.max(axis=1) <= a.min(axis=1), -1, 0))


@dataclass(frozen=True)
class DirectionalClearance:
    """Axis-decomposed clearance of an entity relative to the VUT.

    ``lateral``/``longitudinal`` follow the sign convention at the top of
    this module.  The side fields say where the entity sits relative to
    the VUT body along that axis: +1 right/ahead, -1 left/behind, 0 when
    the projections straddle each other.
    """

    lateral: float
    longitudinal: float
    lateral_side: int
    longitudinal_side: int


def axis_clearances(vut: np.ndarray, outlines: np.ndarray) -> tuple:
    """Directional clearances of every outline in an (S, N, 2) stack.

    ``vut`` is one validated (M, 2) outline and ``outlines`` are already
    validated (see :func:`fault_codes`).  Returns the arrays
    (lateral, longitudinal, lateral_side, longitudinal_side), each (S,),
    with the meaning of the :class:`DirectionalClearance` fields.
    """
    A = vut[None]
    na, nb = A.shape[1], outlines.shape[1]
    chunk = max(1, _CHUNK_ELEMENTS // ((2 + na + nb + na * nb) * max(na, nb)))
    parts = []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(0, len(outlines), chunk):
            B = outlines[i:i + chunk]
            parts.append((_axis_gaps(A, B, axis=1), _axis_gaps(A, B, axis=0),
                          _interval_sides(A, B, axis=1),
                          _interval_sides(A, B, axis=0)))
    return tuple(np.concatenate(cols) for cols in zip(*parts))


def directional_clearance(vut_poly, entity_poly) -> DirectionalClearance:
    A, B = poly_array(vut_poly), poly_array(entity_poly)
    lat, lon, lat_side, lon_side = axis_clearances(A, B[None])
    return DirectionalClearance(
        lateral=float(lat[0]),
        longitudinal=float(lon[0]),
        lateral_side=int(lat_side[0]),
        longitudinal_side=int(lon_side[0]),
    )


def _vertex_edge_times(P, E, vel, horizon):
    """When each vertex of P, moving at ``vel``, meets each static edge of
    E: (S, |P| * |E|) in vertex-major order, +inf where it does not.

    ``P`` and ``E`` are (S, N, 2) or (1, N, 2), ``vel`` is (S, 2).
    """
    q1, q2 = (e[..., None, :, :] for e in _edges(E))
    p, v = P[..., :, None, :], vel[:, None, None, :]
    d = q2 - q1
    denom = d[..., 0] * v[..., 1] - d[..., 1] * v[..., 0]
    num = d[..., 0] * (p[..., 1] - q1[..., 1]) - \
        d[..., 1] * (p[..., 0] - q1[..., 0])
    t = -num / denom
    hit = p + v * t[..., None]
    seg_len2 = _rowdot(d, d)
    s = _rowdot(hit - q1, d) / seg_len2
    ok = (denom != 0.0) & (-1e-12 <= t) & (t <= horizon) & \
        (seg_len2 != 0.0) & (-1e-9 <= s) & (s <= 1 + 1e-9)
    return _clamped(ok, t).reshape(len(vel), -1)


def _vertex_vertex_times(A, B, w, horizon):
    """When each vertex of B, moving at ``w`` relative to A, passes
    exactly over each vertex of A: (S, |B| * |A|), +inf where it does not.
    This catches pure sliding along a shared line."""
    w2 = _rowdot(w, w)
    p, q, v = B[:, :, None, :], A[:, None, :, :], w[:, None, None, :]
    t = _rowdot(q - p, v) / w2[:, None, None]
    miss = p + v * t[..., None] - q
    ok = (w2 > 0.0)[:, None, None] & (-1e-12 <= t) & (t <= horizon) & \
        (np.hypot(miss[..., 0], miss[..., 1]) <= 1e-9)
    return _clamped(ok, t).reshape(len(w), -1)


def _clamped(ok, t):
    # max(t, 0.0) as Python computes it: a -0.0 time stays -0.0.
    return np.where(ok, np.where(t < 0.0, 0.0, t), np.inf)


def first_contact_times(vut, outlines, rel_vels, horizon: float = 30.0):
    """Earliest t in [0, horizon] at which ``vut`` and each outline of an
    (S, N, 2) stack touch, when the outline moves at the matching row of
    the (S, 2) ``rel_vels`` relative to ``vut``; +inf when that never
    happens, 0.0 when they already touch.  Returns an (S,) array.

    The first step with an unusable outline, or with a non-finite
    velocity and no contact, raises the :func:`first_contact_time`
    error for that step.
    """
    A = poly_array(vut)[None]
    B = np.asarray(outlines, dtype=float)
    w = np.asarray(rel_vels, dtype=float)
    if w.shape != (len(B), 2):
        raise ValueError(f"need one (vx, vy) per outline, got {w.shape}")
    if not len(B):
        return np.empty(0)
    if B.ndim != 3 or B.shape[2] != 2 or B.shape[1] < 3:
        raise DegeneratePolygon(
            f"need an (N>=3, 2) vertex array, got {B.shape[1:]}")
    chunk = _pair_chunk(A, B)
    parts = []
    for i in range(0, len(B), chunk):
        Bc = B[i:i + chunk]
        parts.append(_contact_times(A, Bc, w[i:i + chunk], horizon,
                                    fault_codes(Bc), _intersecting(A, Bc)))
    return np.concatenate(parts)


def separations_and_contact_times(vut, outlines, rel_vels,
                                  horizon: float = 30.0) -> tuple:
    """The Euclidean separations (as :func:`min_separation`) and the
    :func:`first_contact_times` of already validated outlines, sharing
    one contact test per chunk.

    Unlike :func:`first_contact_times` it does not check the outlines
    again; a non-finite velocity with no contact still raises.
    """
    A = vut[None]
    chunk = _pair_chunk(A, outlines)
    seps, times = [np.empty(0)], [np.empty(0)]
    for i in range(0, len(outlines), chunk):
        B = outlines[i:i + chunk]
        touching = _intersecting(A, B)
        seps.append(_separations(A, B, touching))
        times.append(_contact_times(A, B, rel_vels[i:i + chunk], horizon,
                                    np.zeros(len(B), dtype=int), touching))
    return np.concatenate(seps), np.concatenate(times)


def _contact_times(A, B, w, horizon, codes, touching):
    """:func:`first_contact_times` of a validated (1, M, 2) ``A`` and an
    (S, N, 2) ``B`` whose :func:`fault_codes` are ``codes`` and
    :func:`_intersecting` is ``touching``."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        bad = (codes != 0) | ~(touching | np.isfinite(w).all(axis=1))
        if bad.any():
            fault = FAULTS[codes[bad.argmax()]]
            if fault is not None:
                raise DegeneratePolygon(fault)
            raise ValueError("velocities must be finite")
        cand = np.concatenate([
            _vertex_edge_times(B, A, w, horizon),
            _vertex_edge_times(A, B, -w, horizon),
            _vertex_vertex_times(A, B, w, horizon)], axis=1)
    # argmin keeps the first of equal minima, as min() does.
    first = np.take_along_axis(cand, cand.argmin(axis=1)[:, None], axis=1)
    return np.where(touching, 0.0, first[:, 0])


def first_contact_time(a, vel_a, b, vel_b, horizon: float = 30.0) -> float:
    """Earliest t in [0, horizon] at which the bodies touch when both
    keep their current velocity; +inf when that never happens.

    Velocities are (vx, vy) in the same frame as the vertices.
    """
    A, B = poly_array(a)[None], poly_array(b)[None]
    w = np.asarray(vel_b, dtype=float) - np.asarray(vel_a, dtype=float)
    return float(_contact_times(A, B, w[None], horizon, np.zeros(1, int),
                                _intersecting(A, B))[0])


def clip_to_rect(pts: np.ndarray, xmin: float, xmax: float,
                 ymin: float, ymax: float) -> np.ndarray:
    """Sutherland-Hodgman clip of a polygon to an axis-aligned rectangle."""
    def clip_half(poly, inside, intersect):
        out = []
        n = len(poly)
        for i in range(n):
            cur, nxt = poly[i], poly[(i + 1) % n]
            cin, nin = inside(cur), inside(nxt)
            if cin:
                out.append(cur)
                if not nin:
                    out.append(intersect(cur, nxt))
            elif nin:
                out.append(intersect(cur, nxt))
        return out

    def x_cut(c, p, q, bound):
        t = (bound - p[0]) / (q[0] - p[0])
        return np.array([bound, p[1] + t * (q[1] - p[1])])

    def y_cut(c, p, q, bound):
        t = (bound - p[1]) / (q[1] - p[1])
        return np.array([p[0] + t * (q[0] - p[0]), bound])

    poly = [np.asarray(p, dtype=float) for p in pts]
    for inside, cut in (
        (lambda p: p[0] >= xmin, lambda p, q: x_cut(None, p, q, xmin)),
        (lambda p: p[0] <= xmax, lambda p, q: x_cut(None, p, q, xmax)),
        (lambda p: p[1] >= ymin, lambda p, q: y_cut(None, p, q, ymin)),
        (lambda p: p[1] <= ymax, lambda p, q: y_cut(None, p, q, ymax)),
    ):
        if not poly:
            break
        poly = clip_half(poly, inside, cut)
    return np.array(poly) if poly else np.empty((0, 2))


def rect_incursion(bounds: tuple, entity_poly) -> tuple[bool, float]:
    """Whether a polygon enters an axis-aligned rectangle, and how deep.

    ``bounds`` is (xmin, xmax, ymin, ymax).  Depth is the largest
    distance any intruding point would have to move to exit the
    rectangle; touching the boundary counts as incursion with depth 0.
    """
    xmin, xmax, ymin, ymax = bounds
    if xmin > xmax or ymin > ymax:
        raise ValueError("empty zone rectangle")
    P = poly_array(entity_poly)
    if len(clip_to_rect(P, xmin, xmax, ymin, ymax)) == 0:
        return False, 0.0

    # Depth is the largest erosion of the rectangle that still touches
    # the polygon; the point attaining it need not be a clip vertex, so
    # bisect on the erosion amount instead.
    def reaches(t: float) -> bool:
        if xmin + t > xmax - t or ymin + t > ymax - t:
            return False
        return len(clip_to_rect(P, xmin + t, xmax - t,
                                ymin + t, ymax - t)) > 0

    lo, hi = 0.0, min(xmax - xmin, ymax - ymin) / 2.0
    if reaches(hi):
        return True, hi
    for _ in range(60):
        mid = (lo + hi) / 2.0
        if reaches(mid):
            lo = mid
        else:
            hi = mid
    return True, lo
