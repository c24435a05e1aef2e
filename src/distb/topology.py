"""Physical world model: node placement, the base station, and energy bookkeeping.

Nodes live in a square footprint with a bounded height band. A node carries
only what outlives a clustering round: its id, its location, its residual
energy (joules) and its coverage radius ("area", meters) inside which it may
adopt cluster members. Nodes, radii and the base station never move, so a
run derives the distances once (`clustering.Geometry`) and its rounds change
only the residual energies; a round keeps no role on the node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Point3:
    x: float
    y: float
    z: float


@dataclass(frozen=True)
class BaseStation:
    location: Point3


@dataclass
class Node:
    """One IoT sensor: the state that carries from one clustering round to the next."""

    id: int
    location: Point3
    energy: float
    area: float


@dataclass
class NodeSet:
    """Ordered node collection; the list order is the canonical iteration order."""

    nodes: list[Node]
    base_station: BaseStation


@dataclass(frozen=True)
class TopologyParams:
    """Placement and energy-model knobs, sized for ~50-node runs; `ScenarioConfig` inherits them."""

    z_max_m: float = 30.0
    energy_range_j: tuple[float, float] = (50.0, 100.0)
    coverage_range_m: tuple[float, float] = (100.0, 400.0)
    head_cost_j: float = 1.0
    tx_cost_j: float = 0.2


DEFAULT_PARAMS = TopologyParams()


def euclid(p: Point3, q: Point3) -> float:
    """Euclidean distance between two 3D points. It does not check them:
    `clustering.Geometry` refuses non-finite coordinates before any is used."""
    return math.sqrt((p.x - q.x) ** 2 + (p.y - q.y) ** 2 + (p.z - q.z) ** 2)


def generate_topology(
    n: int,
    area_side: float,
    seed: int,
    params: TopologyParams = DEFAULT_PARAMS,
) -> NodeSet:
    """Place `n` nodes uniformly at random in the footprint, deterministically per seed.

    The base station sits at the footprint center at ground level. Initial
    energy and coverage radius are drawn uniformly from the configured ranges.
    """
    if n < 1:
        raise ValueError("node count must be >= 1")
    if area_side <= 0:
        raise ValueError("area_side must be positive")
    rng = np.random.default_rng([int(seed), 0xD157B])
    xs = rng.uniform(0.0, area_side, n)
    ys = rng.uniform(0.0, area_side, n)
    zs = rng.uniform(0.0, params.z_max_m, n)
    energies = rng.uniform(*params.energy_range_j, n)
    radii = rng.uniform(*params.coverage_range_m, n)
    bs = BaseStation(Point3(area_side / 2.0, area_side / 2.0, 0.0))
    nodes = []
    for i in range(n):
        loc = Point3(float(xs[i]), float(ys[i]), float(zs[i]))
        nodes.append(Node(id=i, location=loc, energy=float(energies[i]), area=float(radii[i])))
    return NodeSet(nodes=nodes, base_station=bs)
