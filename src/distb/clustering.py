"""Energy-aware cluster head selection: one round of it, as the engine runs it.

`elect` is the only head election. It walks the live nodes in a single
composite order (energy descending, distance to the base station ascending,
id ascending). The first unassigned node becomes a head; every later
unassigned node strictly inside the head's coverage radius becomes its member.
Heads therefore never have less energy than their members, and member
assignment is first-wins.

After the election the round charges energy: a head pays
head_cost + tx_cost * len(members), a member pays tx_cost. Depleted nodes
drop out of later rounds. Only energy changes between rounds, so a run builds
one `Geometry` (coordinates, distances to the base station, and each node's
cover, found the first time it heads) and each round maps an energy array to
the next. Every distance kept or compared against a radius still uses the
scalar formula of `topology.euclid`, so it matches that bit for bit.
"""

from __future__ import annotations

from array import array

import numpy as np

from .errors import ExhaustedNetworkError
from .topology import NodeSet, TopologyParams, euclid

# Candidate band around a head's radius (metres, relative above 1 m): far
# wider than the rounding gap between numpy's squares and libm's pow.
_BAND = 1e-9


class Geometry:
    """What every round of a run shares, by node list position: ids, locations, radii,
    coordinates, distances to the base station, and covers. Raises ValueError on a
    non-finite coordinate of a node or the base station."""

    def __init__(self, node_set: NodeSet):
        nodes = node_set.nodes
        self.ids = np.array([n.id for n in nodes], dtype=np.int64)
        self.locations = [n.location for n in nodes]
        self.areas = [n.area for n in nodes]
        self.xyz = np.array([(p.x, p.y, p.z) for p in self.locations], dtype=float).reshape(-1, 3).T
        bs = node_set.base_station.location
        if not (np.isfinite(self.xyz).all() and np.isfinite((bs.x, bs.y, bs.z)).all()):
            raise ValueError("clustering requires finite coordinates")
        self.dist_bs = np.array([euclid(p, bs) for p in self.locations], dtype=float)
        self.covers: list[array | None] = [None] * len(nodes)

    def cover(self, i: int) -> array:
        """The other positions strictly inside node i's radius: a vector distance row finds
        them within _BAND, and the scalar `euclid` confirms each (numpy's squares can
        round one ulp away from libm's pow); __init__ has checked every point finite."""
        cover = self.covers[i]
        if cover is None:
            x, y, z = self.xyz
            d = np.sqrt(((x[i] - x) ** 2 + (y[i] - y) ** 2) + (z[i] - z) ** 2)
            area, loc = self.areas[i], self.locations[i]
            near = np.flatnonzero(d < area + _BAND * max(area, 1.0)).tolist()
            cover = array("i", [j for j in near if j != i and euclid(loc, self.locations[j]) < area])
            self.covers[i] = cover
        return cover


def elect(
    geo: Geometry, energy: np.ndarray, params: TopologyParams
) -> tuple[list[tuple[int, list[int]]], np.ndarray]:
    """One clustering epoch over per-position energies: sort, elect, charge. Returns the
    (head, members) positions in election order, and the post-charge energies (depleted
    nodes are left out and keep theirs). Raises ExhaustedNetworkError when none is alive.
    """
    alive = ~(energy <= 0.0)
    alive_pos = np.flatnonzero(alive)
    if not len(alive_pos):
        raise ExhaustedNetworkError("all nodes depleted")
    order = alive_pos[np.lexsort((geo.ids[alive_pos], geo.dist_bs[alive_pos], -energy[alive_pos]))].tolist()
    rank = {i: r for r, i in enumerate(order)}
    free = alive.tolist()
    elected = []
    for i in order:
        if not free[i]:
            continue
        free[i] = False
        # Every position ranked before a head is assigned, so free members rank after it.
        members = sorted([j for j in geo.cover(i) if free[j]], key=rank.__getitem__)
        for j in members:
            free[j] = False
        elected.append((i, members))

    cost = np.where(alive, params.tx_cost_j, 0.0)
    for i, members in elected:
        cost[i] = params.head_cost_j + params.tx_cost_j * len(members)
    return elected, np.where(alive, np.maximum(0.0, energy - cost), energy)

