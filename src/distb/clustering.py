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
from .topology import TopologyParams, euclid

# Candidate band around a head's radius (metres, relative above 1 m): far
# wider than the rounding gap between numpy's squares and libm's pow.
_BAND = 1e-9
_MAX_STRIPS = 2**16  # so a strip index rounds by under 1e-10 of a strip, far inside the band


class Geometry:
    """What every round of a run shares, by node id (array position): points, radii,
    distances to the base station, and covers, from `generate_topology`'s x, y, z
    and radius arrays and base station. Raises ValueError on a non-finite coordinate.

    Covers come from x-strips, fixed-radius near-neighbour bucketing (Bentley,
    Stanat & Williams, Information Processing Letters 6(6), 1977): strips as wide
    as the largest banded radius hold every node within a radius of node i in i's
    strip or one beside it, one slice of the strip-sorted coordinates. The strips
    stay balanced because `generate_topology` draws x uniformly over a square, so
    a sparse field, where most nodes head, reads O(n) distances rather than O(n^2).
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, z: np.ndarray, area: np.ndarray, bs: tuple):
        xyz = np.array([x, y, z], dtype=float).reshape(3, -1)
        if not (np.isfinite(xyz).all() and np.isfinite(bs).all()):
            raise ValueError("clustering requires finite coordinates")
        self.points = list(zip(*xyz.tolist()))
        self.areas = np.asarray(area, dtype=float).tolist()
        self.dist_bs = np.array([euclid(p, bs) for p in self.points], dtype=float)
        self.covers: list[array | None] = [None] * len(self.points)
        if not self.points:
            return
        reach = max(self.areas)
        width = max(reach + _BAND * max(reach, 1.0), float(np.ptp(xyz[0])) / _MAX_STRIPS, _BAND)
        strip = np.floor((xyz[0] - xyz[0].min()) / width).astype(np.int64)
        self.by_strip = np.argsort(strip, kind="stable")  # node ids, strip by strip
        self.strip_xyz = xyz[:, self.by_strip]
        # starts[s + 1]: the first strip-sorted position in strip s or later, for s = -1 .. last strip + 2.
        self.starts = np.searchsorted(strip[self.by_strip], np.arange(-1, strip.max() + 3)).tolist()
        self.strip = strip.tolist()

    def cover(self, i: int) -> array:
        """The other ids strictly inside node i's radius: a vector distance row over
        i's strip and the two beside it finds them within _BAND, and the scalar
        `euclid` confirms each (numpy's squares can round one ulp away from libm's
        pow); __init__ has checked every point finite."""
        cover = self.covers[i]
        if cover is None:
            s = self.strip[i]
            lo, hi = self.starts[s], self.starts[s + 3]
            x, y, z = self.strip_xyz[:, lo:hi]
            p, area, points = self.points[i], self.areas[i], self.points
            d = np.sqrt(((p[0] - x) ** 2 + (p[1] - y) ** 2) + (p[2] - z) ** 2)
            near = self.by_strip[lo:hi][d < area + _BAND * max(area, 1.0)].tolist()
            cover = array("i", [j for j in near if j != i and euclid(p, points[j]) < area])
            self.covers[i] = cover
        return cover


def elect(
    geo: Geometry, energy: np.ndarray, params: TopologyParams
) -> tuple[list[tuple[int, list[int]]], np.ndarray]:
    """One clustering epoch over per-node energies: sort, elect, charge. Returns the
    (head, members) ids in election order, members in rank order, and the post-charge
    energies (depleted nodes are left out and keep theirs). Raises
    ExhaustedNetworkError when none is alive.
    """
    alive = ~(energy <= 0.0)
    alive_pos = np.flatnonzero(alive)
    if not len(alive_pos):
        raise ExhaustedNetworkError("all nodes depleted")
    # lexsort is stable, so ascending ids break the remaining ties.
    order = alive_pos[np.lexsort((geo.dist_bs[alive_pos], -energy[alive_pos]))].tolist()
    # Each node's head: -1 while free; a depleted node counts as its own, so no cover takes it.
    head = np.where(alive, -1, np.arange(len(energy))).tolist()
    heads = []
    for i in order:
        if head[i] < 0:
            # Every node ranked before a head is assigned, so its free members rank after it.
            head[i] = i
            heads.append(i)
            for j in geo.cover(i):
                if head[j] < 0:
                    head[j] = i
    members = {i: [] for i in heads}
    for j in order:
        if head[j] != j:
            members[head[j]].append(j)

    cost = np.where(alive, params.tx_cost_j, 0.0)
    cost[heads] = params.head_cost_j + params.tx_cost_j * np.array([len(m) for m in members.values()], dtype=float)
    return list(members.items()), np.where(alive, np.maximum(0.0, energy - cost), energy)
