"""Highway geometry: the covered road segment, its lane speeds and the RSU position.

A straight multi-lane road segment of length ``coverage_range`` runs along the
first axis.  Vehicles enter at the origin end and traverse the segment at
constant speed on the road axis; the roadside unit (RSU) sits next to the road
at a fixed 3-D position.  The fairness model reads every link at the mid-pass
point (R/2, 0, 0), so the geometry enters it as one RSU distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class ScenarioConfig:
    """Static description of the highway segment and its traffic.

    Lane speeds are constant per lane; adjacent lanes may not differ by more
    than ``max_adjacent_speed_gap`` (overtaking-lane discipline).
    """

    coverage_range: float = 500.0         # m, segment covered by the RSU
    lane_speeds: tuple[float, ...] = (22.0, 24.0, 26.0, 28.0)   # m/s
    speed_min: float = 20.0               # m/s, slowest legal lane speed
    speed_max: float = 30.0               # m/s, fastest legal lane speed
    max_adjacent_speed_gap: float = 4.0   # m/s between neighbouring lanes
    rsu_position: tuple[float, float, float] = (250.0, 10.0, 5.0)  # m

    def __post_init__(self):
        if not 0 < self.coverage_range < math.inf:
            raise ConfigError("scenario.coverage_range", "must be finite and > 0")
        if not all(math.isfinite(c) for c in self.rsu_position):
            raise ConfigError("scenario.rsu_position", "coordinates must be finite")
        if len(self.lane_speeds) < 1:
            raise ConfigError("scenario.lane_speeds", "need at least one lane")
        if self.speed_min <= 0 or self.speed_max < self.speed_min:
            raise ConfigError("scenario.speed_min/speed_max",
                              "need 0 < speed_min <= speed_max")
        for k, v in enumerate(self.lane_speeds):
            if not (self.speed_min <= v <= self.speed_max):
                raise ConfigError(
                    "scenario.lane_speeds",
                    f"lane {k} speed {v} outside [{self.speed_min}, {self.speed_max}]")
        for k in range(len(self.lane_speeds) - 1):
            gap = abs(self.lane_speeds[k + 1] - self.lane_speeds[k])
            if gap > self.max_adjacent_speed_gap + 1e-12:
                raise ConfigError(
                    "scenario.lane_speeds",
                    f"adjacent lanes {k},{k+1} differ by {gap} "
                    f"> {self.max_adjacent_speed_gap}")

    @property
    def num_lanes(self) -> int:
        return len(self.lane_speeds)

    @property
    def mean_speed(self) -> float:
        return float(np.mean(self.lane_speeds))

