"""Synthetic Tokyo connected-car traffic (the paper's workload).

The paper's generator replays "synthetic data inspired by real car
sensor data" — one ~6 kB event per car per second with car-ID, speed
and position.  This module provides an equivalent generator: cars move
on a grid of streets at street-dependent speeds, with Zipf-skewed
street popularity (downtown streets carry more cars, producing the
uneven per-street state the benchmark aggregates).

The fluid engine only needs the aggregate rate; this generator exists
for the discrete data plane — examples that push real records through
the Kafka layer and keyed state, and tests of the routing logic.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Iterator, List, Tuple

from ..errors import ConfigurationError
from ..stream.messages import Record

__all__ = ["Car", "TrafficModel", "street_key"]


@dataclass
class Car:
    """One simulated vehicle."""

    car_id: int
    x: float
    y: float
    speed_kmh: float
    heading: Tuple[float, float]


def street_key(x: float, y: float, grid_size: float) -> bytes:
    """Map a position to its street (grid cell) key."""
    return f"street:{int(x // grid_size)}:{int(y // grid_size)}".encode()


class TrafficModel:
    """Cars moving over a street grid, emitting one event each per tick.

    Parameters
    ----------
    num_cars:
        Fleet size (the paper controls workload intensity with this).
    grid_size:
        Street cell edge length in meters.
    city_extent:
        City edge length in meters (Tokyo metro ≈ 40 000).
    hotspot_skew:
        Zipf-like exponent concentrating cars downtown; 0 = uniform.
    """

    def __init__(
        self,
        num_cars: int = 10000,
        grid_size: float = 250.0,
        city_extent: float = 40000.0,
        hotspot_skew: float = 1.2,
        payload_bytes: int = 6000,
        seed: int = 0,
    ) -> None:
        if num_cars < 1:
            raise ConfigurationError("num_cars must be >= 1")
        if grid_size <= 0 or city_extent <= 0:
            raise ConfigurationError("grid_size and city_extent must be positive")
        self.grid_size = grid_size
        self.city_extent = city_extent
        self.payload_bytes = payload_bytes
        self._rng = random.Random(seed)
        self.cars: List[Car] = [
            self._spawn_car(i, hotspot_skew) for i in range(num_cars)
        ]

    def _spawn_car(self, car_id: int, skew: float) -> Car:
        rng = self._rng
        # Radially skewed placement: u^skew concentrates mass downtown.
        radius = (rng.random() ** (1.0 + skew)) * self.city_extent / 2.0
        angle = rng.random() * 6.283185307
        cx = self.city_extent / 2.0
        import math

        x = min(max(cx + radius * math.cos(angle), 0.0), self.city_extent)
        y = min(max(cx + radius * math.sin(angle), 0.0), self.city_extent)
        heading_angle = rng.random() * 6.283185307
        return Car(
            car_id=car_id,
            x=x,
            y=y,
            speed_kmh=rng.uniform(5.0, 60.0),
            heading=(math.cos(heading_angle), math.sin(heading_angle)),
        )

    def tick(self, dt: float = 1.0) -> None:
        """Advance every car by *dt* seconds (bouncing at city edges)."""
        for car in self.cars:
            meters = car.speed_kmh / 3.6 * dt
            car.x += car.heading[0] * meters
            car.y += car.heading[1] * meters
            for axis in ("x", "y"):
                value = getattr(car, axis)
                if value < 0 or value > self.city_extent:
                    setattr(car, axis, min(max(value, 0.0), self.city_extent))
                    hx, hy = car.heading
                    car.heading = (-hx, hy) if axis == "x" else (hx, -hy)

    def events(self, timestamp: float = 0.0) -> Iterator[Record]:
        """One event per car for the current positions (~6 kB each)."""
        for car in self.cars:
            body = {
                "car_id": car.car_id,
                "speed_kmh": round(car.speed_kmh, 2),
                "x": round(car.x, 1),
                "y": round(car.y, 1),
                "street": street_key(car.x, car.y, self.grid_size).decode(),
            }
            encoded = json.dumps(body).encode()
            padding = max(0, self.payload_bytes - len(encoded))
            yield Record(
                key=f"car:{car.car_id}".encode(),
                value=encoded + b" " * padding,
                event_time=timestamp,
            )

