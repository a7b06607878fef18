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

import numpy as np

from .errors import CoincidentPoints, ExtentExceeded
from .model import GeoPosition, VcsPosition, normalize_heading

WGS84_A = 6378137.0                 # semi-major axis, m
WGS84_F = 1.0 / 298.257223563       # flattening
WGS84_E2 = WGS84_F * (2.0 - WGS84_F)

# Beyond this offset the flat-earth assumption starts to visibly bend.
MAX_EXTENT_M = 50_000.0


def meridional_radius(lat_deg: float) -> float:
    s2 = math.sin(math.radians(lat_deg)) ** 2
    return WGS84_A * (1.0 - WGS84_E2) / (1.0 - WGS84_E2 * s2) ** 1.5


def prime_vertical_radius(lat_deg: float) -> float:
    s2 = math.sin(math.radians(lat_deg)) ** 2
    return WGS84_A / math.sqrt(1.0 - WGS84_E2 * s2)


@dataclass(frozen=True)
class LocalFrame:
    """Planar east/north frame tangent to the ellipsoid at ``origin``."""

    origin: GeoPosition
    m_per_deg_lat: float
    m_per_deg_lon: float

    @classmethod
    def at(cls, origin: GeoPosition) -> "LocalFrame":
        lat = origin.lat
        k_lat = math.radians(1.0) * meridional_radius(lat)
        k_lon = math.radians(1.0) * prime_vertical_radius(lat) * math.cos(
            math.radians(lat)
        )
        if not (k_lat > 0.0 and k_lon > 0.0 and math.isfinite(k_lat)
                and math.isfinite(k_lon)):
            raise ValueError(f"degenerate frame at latitude {lat}")
        return cls(origin=origin, m_per_deg_lat=k_lat, m_per_deg_lon=k_lon)

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

