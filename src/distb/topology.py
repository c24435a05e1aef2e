"""Physical world model: node placement, the base station, and energy bookkeeping.

Nodes live in a square footprint with a bounded height band. Every node carries
residual energy (joules), a coverage radius ("area", meters) inside which it may
adopt cluster members, and its distance to the base station. Nodes and the base
station never move; the clustering round recomputes that distance from the
coordinates and writes it into the nodes it returns.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class Point3:
    x: float
    y: float
    z: float

    def is_finite(self) -> bool:
        return math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.z)


@dataclass(frozen=True)
class BaseStation:
    location: Point3


@dataclass
class Node:
    """One IoT sensor. `head`/`member` are per-round flags, never both true."""

    id: int
    location: Point3
    energy: float
    area: float
    head: bool = False
    member: bool = False
    dist_bs: float = 0.0

    @property
    def depleted(self) -> bool:
        return self.energy <= 0.0


@dataclass
class NodeSet:
    """Ordered node collection; the list order is the canonical iteration order."""

    nodes: list[Node]
    base_station: BaseStation

    def active(self) -> list[Node]:
        """Nodes still holding energy; depleted ones drop out of clustering."""
        return [n for n in self.nodes if not n.depleted]


@dataclass(frozen=True)
class TopologyParams:
    """Placement and energy-model knobs, sized for ~50-node runs; `ScenarioConfig` inherits them."""

    z_max_m: float = 30.0
    energy_range_j: tuple[float, float] = (50.0, 100.0)
    coverage_range_m: tuple[float, float] = (100.0, 400.0)
    head_cost_j: float = 1.0
    tx_cost_j: float = 0.2


DEFAULT_PARAMS = TopologyParams()


def distance(p: Point3, q: Point3) -> float:
    """Euclidean distance between two 3D points; raises ValueError on non-finite input."""
    if not (p.is_finite() and q.is_finite()):
        raise ValueError("distance requires finite coordinates")
    return math.sqrt((p.x - q.x) ** 2 + (p.y - q.y) ** 2 + (p.z - q.z) ** 2)


def generate_topology(
    n: int,
    area_side: float,
    seed: int,
    params: TopologyParams = DEFAULT_PARAMS,
) -> NodeSet:
    """Place `n` nodes uniformly at random in the footprint, deterministically per seed.

    The base station sits at the footprint center at ground level. Initial
    energy and coverage radius are drawn uniformly from the configured ranges;
    dist_bs is populated immediately.
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
        nodes.append(
            Node(
                id=i,
                location=loc,
                energy=float(energies[i]),
                area=float(radii[i]),
                dist_bs=distance(loc, bs.location),
            )
        )
    return NodeSet(nodes=nodes, base_station=bs)


def refresh_dist_bs(node_set: NodeSet) -> NodeSet:
    """Return a copy with dist_bs recomputed against the current base station."""
    bs = node_set.base_station
    nodes = [replace(n, dist_bs=distance(n.location, bs.location)) for n in node_set.nodes]
    return NodeSet(nodes=nodes, base_station=bs)


def node_set_to_json(node_set: NodeSet) -> str:
    """Serialize for test fixtures: id, x, y, z, energy, area per node."""
    doc = {
        "base_station": {
            "x": node_set.base_station.location.x,
            "y": node_set.base_station.location.y,
            "z": node_set.base_station.location.z,
        },
        "nodes": [
            {
                "id": n.id,
                "x": n.location.x,
                "y": n.location.y,
                "z": n.location.z,
                "energy": n.energy,
                "area": n.area,
            }
            for n in node_set.nodes
        ],
    }
    return json.dumps(doc, sort_keys=True)


def node_set_from_json(text: str) -> NodeSet:
    doc = json.loads(text)
    bs = BaseStation(Point3(doc["base_station"]["x"], doc["base_station"]["y"], doc["base_station"]["z"]))
    nodes = []
    for rec in doc["nodes"]:
        loc = Point3(rec["x"], rec["y"], rec["z"])
        nodes.append(
            Node(
                id=int(rec["id"]),
                location=loc,
                energy=float(rec["energy"]),
                area=float(rec["area"]),
                dist_bs=distance(loc, bs.location),
            )
        )
    ids = [n.id for n in nodes]
    if len(set(ids)) != len(ids):
        raise ValueError("node ids must be unique")
    return NodeSet(nodes=nodes, base_station=bs)
