"""Yes/no tests on single shapes and records that only the test suite
asks: one-step wrappers of the package's batched kernels and checks."""

from __future__ import annotations

import numpy as np

from vistakit.geometry import _contains, _intersecting, poly_array
from vistakit.model import _DISGUISE, ActorState, _obstacle_code


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
