"""Physical world model: node placement, the base station, and energy bookkeeping.

Nodes live in a square footprint with a bounded height band. A node is a
position in five arrays: its location (x, y, z), its residual energy (joules)
and its coverage radius ("area", meters) inside which it may adopt cluster
members; its id is that position. The base station is one (x, y, z) tuple.
Nodes, radii and the base station never move, so a run derives the distances
once (`clustering.Geometry`) and its rounds change only the energy array; a
round keeps no role on the node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TopologyParams:
    """Placement and energy-model knobs, sized for ~50-node runs; `ScenarioConfig` inherits them."""

    z_max_m: float = 30.0
    energy_range_j: tuple[float, float] = (50.0, 100.0)
    coverage_range_m: tuple[float, float] = (100.0, 400.0)
    head_cost_j: float = 1.0
    tx_cost_j: float = 0.2


DEFAULT_PARAMS = TopologyParams()


def euclid(p: tuple[float, float, float], q: tuple[float, float, float]) -> float:
    """Euclidean distance between two (x, y, z) points. It does not check them:
    `clustering.Geometry` refuses non-finite coordinates before any is used."""
    return math.sqrt((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 + (p[2] - q[2]) ** 2)


def generate_topology(n: int, area_side: float, seed: int, params: TopologyParams = DEFAULT_PARAMS):
    """Place `n` nodes uniformly at random in the footprint, deterministically per seed.

    Returns (x, y, z, energy, area, base_station): five float64 arrays indexed
    by node id, and the base station's (x, y, z), at the footprint center at
    ground level. Initial energy and coverage radius are drawn uniformly from
    the configured ranges.
    """
    if n < 1:
        raise ValueError("node count must be >= 1")
    if area_side <= 0:
        raise ValueError("area_side must be positive")
    rng = np.random.default_rng([int(seed), 0xD157B])
    x = rng.uniform(0.0, area_side, n)
    y = rng.uniform(0.0, area_side, n)
    z = rng.uniform(0.0, params.z_max_m, n)
    energy = rng.uniform(*params.energy_range_j, n)
    area = rng.uniform(*params.coverage_range_m, n)
    return x, y, z, energy, area, (area_side / 2.0, area_side / 2.0, 0.0)
