"""Energy-aware cluster head selection: one round of it, as the engine runs it.

`run_round` is the only head election. It walks the live nodes in a single
composite order (energy descending, distance to the base station ascending,
id ascending). The first unassigned node becomes a head; every later
unassigned node strictly inside the head's coverage radius becomes its member.
Heads therefore never have less energy than their members, and member
assignment is first-wins.

After the election the round charges energy: a head pays
head_cost + tx_cost * len(members), a member pays tx_cost. Depleted nodes
drop out of later rounds. A round works on arrays of the nodes' coordinates
and energies; every distance it keeps or compares against a radius is still
`topology.distance`, so the result is the scalar definition's, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ExhaustedNetworkError
from .topology import Node, NodeSet, TopologyParams, distance

# Candidate band around a head's radius (metres, relative above 1 m): far
# wider than the rounding gap between numpy's squares and libm's pow.
_BAND = 1e-9


@dataclass(frozen=True)
class Cluster:
    head_id: int
    member_ids: tuple[int, ...]


@dataclass(frozen=True)
class ClusterSet:
    clusters: tuple[Cluster, ...]
    round: int = 0


def _elect(nodes: list, xyz: np.ndarray) -> list[tuple[int, list[int]]]:
    """Greedy election over `nodes` in list order: (head position, member positions).

    Each head takes one distance row as a vector. The nodes that row puts
    inside the radius, widened by _BAND, are confirmed with the scalar
    `distance`, because numpy's squares can round one ulp away from libm's
    pow; membership is therefore exactly distance(head, candidate) < head.area.
    Positions before a head are all assigned already, so "free" is "free and
    later", and members come out in ascending position (first-wins).
    """
    free = np.ones(len(nodes), dtype=bool)
    elected = []
    for i in range(len(nodes)):
        if not free[i]:
            continue
        free[i] = False
        head = nodes[i]
        d = np.sqrt(((xyz[0, i] - xyz[0]) ** 2 + (xyz[1, i] - xyz[1]) ** 2) + (xyz[2, i] - xyz[2]) ** 2)
        near = np.flatnonzero(free & (d < head.area + _BAND * max(head.area, 1.0)))
        members = [j for j in near.tolist() if distance(head.location, nodes[j].location) < head.area]
        free[members] = False
        elected.append((i, members))
    return elected


def _coords(nodes: list) -> np.ndarray:
    """Coordinates as a (3, n) array; raises ValueError on a non-finite one."""
    xyz = np.array([(n.location.x, n.location.y, n.location.z) for n in nodes], dtype=float).T
    if not np.isfinite(xyz).all():
        raise ValueError("clustering requires finite coordinates")
    return xyz


def run_round(
    node_set: NodeSet,
    params: TopologyParams,
    round_no: int = 0,
) -> tuple[ClusterSet, NodeSet]:
    """One clustering epoch over arrays: distance to the base station, sort,
    elect, charge energy.

    Returns the election result and the post-charge node set (new energies,
    depleted nodes kept in the list but excluded from the election). Raises
    ExhaustedNetworkError when no node holds energy.
    """
    nodes = node_set.nodes
    bs = node_set.base_station.location
    xyz = _coords(nodes)
    dist_bs = np.array([distance(n.location, bs) for n in nodes], dtype=float)
    energy = np.array([n.energy for n in nodes], dtype=float)
    ids = np.array([n.id for n in nodes])
    alive = ~(energy <= 0.0)
    alive_pos = np.flatnonzero(alive)
    if not len(alive_pos):
        raise ExhaustedNetworkError("all nodes depleted")
    order = alive_pos[np.lexsort((ids[alive_pos], dist_bs[alive_pos], -energy[alive_pos]))]
    ordered = [nodes[k] for k in order.tolist()]
    elected = _elect(ordered, xyz[:, order])

    cost = np.where(alive, params.tx_cost_j, 0.0)
    for i, members in elected:
        cost[order[i]] = params.head_cost_j + params.tx_cost_j * len(members)
    energy = np.where(alive, np.maximum(0.0, energy - cost), energy)
    updated = [Node(id=n.id, location=n.location, energy=e, area=n.area) for n, e in zip(nodes, energy.tolist())]
    clusters = ClusterSet(
        clusters=tuple(
            Cluster(head_id=ordered[i].id, member_ids=tuple(ordered[j].id for j in members))
            for i, members in elected
        ),
        round=round_no,
    )
    return clusters, NodeSet(nodes=updated, base_station=node_set.base_station)
