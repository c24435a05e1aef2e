"""Energy-aware cluster head selection and the per-round loop.

Selection walks the node list in a single composite order (energy descending,
distance to the base station ascending, id ascending). The first unassigned
node becomes a head; every later unassigned node strictly inside the head's
coverage radius becomes its member. Heads therefore never have less energy
than their members, and member assignment is first-wins.

Each round re-sorts, re-elects, then charges energy: a head pays
head_cost + tx_cost * len(members), a member pays tx_cost. Depleted nodes
drop out of later rounds. A round works on arrays of the nodes' coordinates
and energies; every distance it keeps or compares against a radius is still
`topology.distance`, so the result is the scalar definition's, bit for bit.
"""

from __future__ import annotations

import json
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


def sort_key(node) -> tuple[float, float, int]:
    return (-node.energy, node.dist_bs, node.id)


def sort_nodes(node_set: NodeSet) -> NodeSet:
    """Order by energy descending, dist_bs ascending, id ascending (stable, total)."""
    return NodeSet(
        nodes=sorted(node_set.nodes, key=sort_key),
        base_station=node_set.base_station,
    )


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


def _clusters(nodes: list, elected: list[tuple[int, list[int]]]) -> tuple[Cluster, ...]:
    return tuple(
        Cluster(head_id=nodes[i].id, member_ids=tuple(nodes[j].id for j in members))
        for i, members in elected
    )


def select_cluster_heads(node_set: NodeSet, round_no: int = 0) -> ClusterSet:
    """Elect heads and assign members over an already-sorted node set.

    Every node ends as exactly one of head or member. Membership uses the
    strict predicate distance(head, candidate) < head.area.
    """
    nodes = node_set.nodes
    if not nodes:
        raise ValueError("cannot cluster an empty node set")
    elected = _elect(nodes, _coords(nodes))
    return ClusterSet(clusters=_clusters(nodes, elected), round=round_no)


def run_round(
    node_set: NodeSet,
    params: TopologyParams,
    round_no: int = 0,
) -> tuple[ClusterSet, NodeSet]:
    """One clustering epoch over arrays: dist_bs, sort, elect, charge energy.

    Returns the election result and the post-charge node set (flags updated,
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
    head = np.zeros(len(nodes), dtype=bool)
    for i, members in elected:
        k = order[i]
        head[k] = True
        cost[k] = params.head_cost_j + params.tx_cost_j * len(members)
    energy = np.where(alive, np.maximum(0.0, energy - cost), energy)
    updated = [
        Node(id=n.id, location=n.location, energy=e, area=n.area, head=h, member=a and not h, dist_bs=d)
        for n, e, h, a, d in zip(nodes, energy.tolist(), head.tolist(), alive.tolist(), dist_bs.tolist())
    ]
    clusters = ClusterSet(clusters=_clusters(ordered, elected), round=round_no)
    return clusters, NodeSet(nodes=updated, base_station=node_set.base_station)


def cluster_set_to_json(cluster_set: ClusterSet) -> str:
    doc = {
        "round": cluster_set.round,
        "clusters": [
            {"head_id": c.head_id, "member_ids": list(c.member_ids)}
            for c in cluster_set.clusters
        ],
    }
    return json.dumps(doc, sort_keys=True)
