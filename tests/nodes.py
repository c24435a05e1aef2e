"""One record per node, for tests: `distb.topology` holds a field as arrays
indexed by node id, while hand-built fixtures and the straight-line oracles
read it node by node."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from distb.clustering import Geometry
from distb.topology import DEFAULT_PARAMS, TopologyParams, generate_topology


class Point3(NamedTuple):
    """An (x, y, z) tuple, as `topology.euclid` takes it, with named fields."""

    x: float
    y: float
    z: float


@dataclass(frozen=True)
class BaseStation:
    location: Point3


@dataclass
class Node:
    id: int
    location: Point3
    energy: float
    area: float


@dataclass
class NodeSet:
    """Ordered node collection; a Geometry over it needs each id to be its list position."""

    nodes: list[Node]
    base_station: BaseStation


def generate_node_set(n: int, area_side: float, seed: int, params: TopologyParams = DEFAULT_PARAMS) -> NodeSet:
    """`generate_topology`'s field, one Node per node."""
    x, y, z, energy, area, bs = generate_topology(n, area_side, seed, params)
    points = map(Point3, x.tolist(), y.tolist(), z.tolist())
    nodes = [Node(i, p, e, a) for i, (p, e, a) in enumerate(zip(points, energy.tolist(), area.tolist()))]
    return NodeSet(nodes, BaseStation(Point3(*bs)))


def geometry(node_set: NodeSet) -> Geometry:
    """The Geometry a run over `node_set` builds."""
    nodes = node_set.nodes
    assert [n.id for n in nodes] == list(range(len(nodes)))
    x, y, z = ([p[k] for p in (n.location for n in nodes)] for k in range(3))
    return Geometry(np.array(x), np.array(y), np.array(z), np.array([n.area for n in nodes]), node_set.base_station.location)


def energy_array(node_set: NodeSet) -> np.ndarray:
    return np.array([n.energy for n in node_set.nodes], dtype=float)
