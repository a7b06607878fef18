"""Coordinate transforms between WGS84, a local planar frame, and the VCS.

The tooling only ever works over a single test track (a few km across),
so an equirectangular tangent projection is accurate enough: east/north
offsets are degree deltas scaled by the metres-per-degree factors of the
WGS84 ellipsoid evaluated at the frame origin.  Using the meridional and
prime-vertical curvature radii separately (rather than one shared factor)
keeps planar distances within 0.1% of geodesic distances in every
direction, which a single spherical radius cannot do.

Headings are degrees from North, clockwise positive.  The VCS is x
forward, y right.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import CoincidentPoints, ExtentExceeded
from .model import GeoPosition, VcsPosition, normalize_heading

WGS84_A = 6378137.0                 # semi-major axis, m
WGS84_F = 1.0 / 298.257223563       # flattening
WGS84_E2 = WGS84_F * (2.0 - WGS84_F)

# Beyond this offset the flat-earth assumption starts to visibly bend.
MAX_EXTENT_M = 50_000.0


def scales(lat_deg) -> tuple:
    """(metres per degree of latitude, of longitude) arrays of the frames
    at a sequence of latitudes, from the WGS84 meridional and
    prime-vertical radii.  Sines, cosines and powers come from math, one
    value at a time, so a batch scales exactly like one frame.  The first
    degenerate frame raises ValueError."""
    rad = list(map(math.radians, lat_deg))
    s2 = list(map(float.__pow__, map(math.sin, rad), repeat(2)))
    base = 1.0 - WGS84_E2 * np.array(s2)
    k_lat = math.radians(1.0) * (WGS84_A * (1.0 - WGS84_E2) / np.array(
        list(map(float.__pow__, base.tolist(), repeat(1.5)))))
    k_lon = math.radians(1.0) * (WGS84_A / np.sqrt(base)) \
        * np.array(list(map(math.cos, rad)))
    ok = (k_lat > 0.0) & (k_lon > 0.0) & np.isfinite(k_lat) \
        & np.isfinite(k_lon)
    if not ok.all():
        raise ValueError(
            f"degenerate frame at latitude {lat_deg[int(ok.argmin())]}")
    return k_lat, k_lon


@dataclass(frozen=True)
class LocalFrame:
    """Planar east/north frame tangent to the ellipsoid at ``origin``."""

    origin: GeoPosition
    m_per_deg_lat: float
    m_per_deg_lon: float

    @classmethod
    def at(cls, origin: GeoPosition) -> "LocalFrame":
        k_lat, k_lon = scales([origin.lat])
        return cls(origin=origin, m_per_deg_lat=float(k_lat[0]),
                   m_per_deg_lon=float(k_lon[0]))

    def to_local(self, p: GeoPosition) -> tuple[float, float]:
        """Project to (x_east, y_north) metres relative to the origin."""
        x = (p.lon - self.origin.lon) * self.m_per_deg_lon
        y = (p.lat - self.origin.lat) * self.m_per_deg_lat
        if abs(x) > MAX_EXTENT_M or abs(y) > MAX_EXTENT_M:
            raise ExtentExceeded(
                f"point {p.lat}, {p.lon} lies {math.hypot(x, y):.0f} m from "
                "the frame origin"
            )
        return x, y

    def to_local_all(self, channel) -> tuple:
        """(x_east, y_north) arrays of a channel's positions, each as
        :meth:`to_local` gives it (numpy rounds the same arithmetic), and
        its error for the first one beyond the frame's extent."""
        lat, lon = (np.array(channel.columns[name], dtype=float)
                    for name in ("lat", "lon"))
        x = (lon - self.origin.lon) * self.m_per_deg_lon
        y = (lat - self.origin.lat) * self.m_per_deg_lat
        beyond = (np.abs(x) > MAX_EXTENT_M) | (np.abs(y) > MAX_EXTENT_M)
        if beyond.any():
            self.to_local(channel.position(int(beyond.argmax())))
        return x, y

    def from_local(self, x_east: float, y_north: float,
                   elev: float | None = None) -> GeoPosition:
        if abs(x_east) > MAX_EXTENT_M or abs(y_north) > MAX_EXTENT_M:
            raise ExtentExceeded("local offset exceeds the safe frame extent")
        return GeoPosition(
            lat=self.origin.lat + y_north / self.m_per_deg_lat,
            lon=self.origin.lon + x_east / self.m_per_deg_lon,
            elev=elev,
        )


def world_to_vcs(vut_pos: GeoPosition, vut_heading: float,
                 p: GeoPosition, frame: LocalFrame | None = None) -> VcsPosition:
    """Express a world position in the VUT's vehicle coordinate system.

    Rotation is about yaw only; elevation rides along unchanged as z.
    """
    f = frame if frame is not None else LocalFrame.at(vut_pos)
    ex, ny = f.to_local(p)
    ox, oy = f.to_local(vut_pos)
    x, y = enu_to_vcs((ex - ox, ny - oy), normalize_heading(vut_heading))
    z = None if p.elev is None else p.elev
    return VcsPosition(x=float(x), y=float(y), z=z)


def enu_to_vcs(enu, heading_deg) -> np.ndarray:
    """Rotate east/north offsets into the VCS of a vehicle heading
    ``heading_deg``.

    ``enu`` is (..., 2); ``heading_deg`` is a number or an array that
    broadcasts against ``enu[..., 0]``.  Each heading's sine and cosine
    come from :mod:`math`, so a batch rotates exactly like one point.
    """
    enu = np.asarray(enu, dtype=float)
    headings = np.asarray(heading_deg, dtype=float)
    rad = [math.radians(h) for h in headings.ravel().tolist()]
    sh = np.array([math.sin(r) for r in rad]).reshape(headings.shape)
    ch = np.array([math.cos(r) for r in rad]).reshape(headings.shape)
    e, n = enu[..., 0], enu[..., 1]
    return np.stack([e * sh + n * ch, e * ch - n * sh], axis=-1)


def vcs_to_world(vut_pos: GeoPosition, vut_heading: float,
                 p: VcsPosition, frame: LocalFrame | None = None) -> GeoPosition:
    """Inverse of :func:`world_to_vcs`; the rotation is its own inverse."""
    f = frame if frame is not None else LocalFrame.at(vut_pos)
    e, n = enu_to_vcs((p.x, p.y), normalize_heading(vut_heading)).tolist()
    ox, oy = f.to_local(vut_pos)
    return f.from_local(ox + e, oy + n, elev=p.z)


def heading_between(a: GeoPosition, b: GeoPosition) -> float:
    """Initial great-circle bearing from a to b, degrees from North."""
    if a.lat == b.lat and a.lon == b.lon:
        raise CoincidentPoints("bearing undefined between identical points")
    la, lb = math.radians(a.lat), math.radians(b.lat)
    dlon = math.radians(b.lon - a.lon)
    y = math.sin(dlon) * math.cos(lb)
    x = math.cos(la) * math.sin(lb) - math.sin(la) * math.cos(lb) * math.cos(dlon)
    return normalize_heading(math.degrees(math.atan2(y, x)))

