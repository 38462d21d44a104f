"""Geographic primitives: points on the globe and propagation delay.

Propagation delay dominates wide-area RTT, so the latency model anchors
on great-circle distance.  Light in fiber travels at roughly two thirds
of c; real Internet paths are longer than the great circle (routing
stretch), which the latency model accounts for separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

EARTH_RADIUS_KM = 6371.0

#: Speed of light in fiber, km per millisecond (≈ 2/3 of c).
FIBER_KM_PER_MS = 200.0


@dataclass(frozen=True)
class GeoPoint:
    """A point on the globe, in decimal degrees."""

    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude out of range: {self.lat}")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude out of range: {self.lon}")


def haversine_km(
    lat1: float, lon1: float, cos_lat1: float, lat2: float, lon2: float, cos_lat2: float
) -> float:
    """Great-circle distance between two points given in radians.

    The haversine formula, which is numerically stable for the small
    distances that matter most here (metro-to-metro hops).  Each
    latitude comes with its cosine so a caller measuring one point
    against many works both out once.
    """
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2.0) ** 2 + cos_lat1 * cos_lat2 * math.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


def great_circle_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points, in kilometres."""
    lat1, lon1 = math.radians(a.lat), math.radians(a.lon)
    lat2, lon2 = math.radians(b.lat), math.radians(b.lon)
    return haversine_km(lat1, lon1, math.cos(lat1), lat2, lon2, math.cos(lat2))


def propagation_rtt_ms(a: GeoPoint, b: GeoPoint, stretch: float = 1.0) -> float:
    """Round-trip propagation delay between two points, in milliseconds.

    ``stretch`` models routing inflation: fiber paths follow cables and
    exchange points, not geodesics, so the travelled distance exceeds
    the great circle (typically by 1.2-2x on wide-area paths).
    """
    if stretch < 1.0:
        raise ValueError(f"routing stretch cannot shorten the path: {stretch}")
    one_way_km = great_circle_km(a, b) * stretch
    return 2.0 * one_way_km / FIBER_KM_PER_MS
