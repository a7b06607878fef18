"""Yes/no tests on single shapes and records that only the test suite
asks: one-step wrappers of the package's batched kernels and checks,
and the record form of the readers' obstacle-in-disguise rule."""

from __future__ import annotations

import numpy as np

from vistakit.geometry import _contains, _intersecting, poly_array
from vistakit.model import (
    _AS_OBSTACLE,
    _DISGUISE,
    ActorState,
    GeoPosition,
    ObstacleState,
    _obstacle_code,
)


def point_in_polygon(point, pts: np.ndarray) -> bool:
    """Boundary-inclusive point-in-polygon test (crossing number)."""
    return bool(_contains(np.asarray(point, dtype=float)[:2], pts))


def polygons_intersect(a, b) -> bool:
    """True when the polygons share any point (touching counts)."""
    return bool(_intersecting(poly_array(a), poly_array(b)))


def actor_mimics_obstacle(a: ActorState) -> bool:
    """True when an actor record is an obstacle in disguise.

    Obstacles exported through the actor channel carry a numeric type
    code from the obstacle code space and show no motion at all.
    """
    return _obstacle_code(*map(a.__getattribute__, _DISGUISE)) is not None


def obstacle_from_actor(a: ActorState) -> ObstacleState:
    """Re-express an obstacle-coded actor record as an ObstacleState, as
    the readers move such an actor's columns to the obstacle table."""
    code = _obstacle_code(*map(a.__getattribute__, _DISGUISE))
    if code is None:
        raise ValueError(f"actor {a.actor_id!r} is not obstacle-coded")
    if not isinstance(a.pos, GeoPosition):
        raise ValueError("obstacle-coded actors must carry world positions")
    if a.bbox_true is None:
        raise ValueError(
            "obstacle-coded actors must carry a true bounding shape")
    return ObstacleState(obst_type=code, **{
        name: getattr(a, source) for name, source in _AS_OBSTACLE.items()})
