"""GPS/mobility workload: road graph, trips, pricing zones.

Substitute for the paper's PAYD GPS tracking box. A city is a grid
road graph (networkx); trips pick origin/destination nodes and follow
shortest paths; the trace is the per-edge sequence with timestamps.
Pricing zones (downtown congestion charge) and night-driving detection
exercise the paper's claim that the tracker "gives detailed turn-by-
turn guidance, but hides those details ... only delivering the result
of road-pricing computations".
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import networkx as nx

from ..errors import ConfigurationError
from ..sim.clock import SECONDS_PER_DAY, SECONDS_PER_HOUR


@dataclass(frozen=True)
class TracePoint:
    """One GPS fix: time and grid position."""

    timestamp: int
    x: int
    y: int


@dataclass(frozen=True)
class Trip:
    """One trip: the full trace plus derived facts."""

    start_time: int
    points: tuple[TracePoint, ...]

    @property
    def distance_km(self) -> float:
        return max(0, len(self.points) - 1) * CityMap.EDGE_KM


class CityMap:
    """A grid city with a rectangular priced zone in the centre."""

    EDGE_KM = 0.5  # every road segment is half a kilometre
    EDGE_SECONDS = 45  # at urban speed

    def __init__(self, width: int = 12, height: int = 12,
                 zone_fraction: float = 0.33) -> None:
        if width < 3 or height < 3:
            raise ConfigurationError("city must be at least 3x3")
        self.width = width
        self.height = height
        self.graph = nx.grid_2d_graph(width, height)
        margin_x = int(width * (1 - zone_fraction) / 2)
        margin_y = int(height * (1 - zone_fraction) / 2)
        self.priced_zone = {
            (x, y)
            for x in range(margin_x, width - margin_x)
            for y in range(margin_y, height - margin_y)
        }

    def in_zone(self, x: int, y: int) -> bool:
        return (x, y) in self.priced_zone

    def random_node(self, rng: random.Random) -> tuple[int, int]:
        return (rng.randrange(self.width), rng.randrange(self.height))

    def route(self, origin: tuple[int, int], destination: tuple[int, int]):
        return nx.shortest_path(self.graph, origin, destination)


class DriverSimulator:
    """Generates a driver's trips over days."""

    def __init__(self, city: CityMap, rng: random.Random,
                 trips_per_day: float = 2.5) -> None:
        self.city = city
        self._rng = rng
        self.trips_per_day = trips_per_day

    def _trip_at(self, start_time: int) -> Trip:
        origin = self.city.random_node(self._rng)
        destination = self.city.random_node(self._rng)
        while destination == origin:
            destination = self.city.random_node(self._rng)
        path = self.city.route(origin, destination)
        points = tuple(
            TracePoint(
                timestamp=start_time + position * CityMap.EDGE_SECONDS,
                x=node[0],
                y=node[1],
            )
            for position, node in enumerate(path)
        )
        return Trip(start_time=start_time, points=points)

    def simulate_day(self, day: int) -> list[Trip]:
        day_start = day * SECONDS_PER_DAY
        count = max(1, round(self._rng.gauss(self.trips_per_day, 1.0)))
        trips = []
        for _ in range(count):
            hour = self._rng.choices(
                population=list(range(24)),
                weights=[1, 1, 1, 1, 1, 2, 4, 8, 6, 3, 3, 4,
                         5, 4, 3, 4, 6, 8, 7, 5, 4, 3, 2, 1],
            )[0]
            start = day_start + hour * SECONDS_PER_HOUR + self._rng.randrange(3600)
            trips.append(self._trip_at(start))
        return sorted(trips, key=lambda trip: trip.start_time)


# -- in-cell computations (the only outputs that leave the PAYD cell) ------------


def road_pricing_fee(trips: list[Trip], city: CityMap,
                     zone_price_per_km: float = 0.30,
                     base_price_per_km: float = 0.02) -> float:
    """The congestion/road-pricing fee for a set of trips.

    Zone segments are billed at the zone rate, others at the base rate.
    This scalar is what the cell externalizes to the government.
    """
    fee = 0.0
    for trip in trips:
        for earlier, later in zip(trip.points, trip.points[1:]):
            segment_in_zone = city.in_zone(earlier.x, earlier.y) or city.in_zone(
                later.x, later.y
            )
            rate = zone_price_per_km if segment_in_zone else base_price_per_km
            fee += CityMap.EDGE_KM * rate
    return fee


def night_fraction(trips: list[Trip],
                   night_start_hour: int = 22, night_end_hour: int = 6) -> float:
    """Fraction of driven segments at night (a PAYD insurance factor)."""
    night_segments = 0
    total_segments = 0
    for trip in trips:
        for point in trip.points[:-1]:
            hour = (point.timestamp % SECONDS_PER_DAY) // SECONDS_PER_HOUR
            is_night = hour >= night_start_hour or hour < night_end_hour
            night_segments += 1 if is_night else 0
            total_segments += 1
    return night_segments / total_segments if total_segments else 0.0


def total_distance_km(trips: list[Trip]) -> float:
    return sum(trip.distance_km for trip in trips)


def payd_premium(trips: list[Trip], base_premium: float = 30.0,
                 per_km: float = 0.05, night_surcharge: float = 20.0) -> float:
    """A monthly PAYD premium from aggregate driving facts only."""
    return (
        base_premium
        + per_km * total_distance_km(trips)
        + night_surcharge * night_fraction(trips)
    )
