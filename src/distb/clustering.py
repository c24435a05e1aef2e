"""Energy-aware cluster head selection: one round of it, as the engine runs it.

`elect` is the only head election. It walks the live nodes in a single
composite order (energy descending, distance to the base station ascending,
id ascending). The first unassigned node becomes a head; every later
unassigned node strictly inside the head's coverage radius becomes its member.
Heads therefore never have less energy than their members, and member
assignment is first-wins. `elect` returns that rank order and each node's
head, so a cluster is a head and, in rank order, the nodes that map to it.

After the election the round charges energy: a head pays
head_cost + tx_cost * (its member count), a member pays tx_cost. Depleted nodes
drop out of later rounds. Only energy changes between rounds, so a run builds
one `Geometry` (coordinates, distances to the base station, and each node's
cover, found the first time it heads) and each round maps an energy array to
the next. Every distance is one numpy expression (`_distances`),
sqrt(dx * dx + dy * dy + dz * dz): squares by multiplication, not `** 2`, so
each is exact IEEE 754 arithmetic, the same on every platform and libm, with
the bits of the tests' scalar `euclid` (`tests/nodes.py`).
"""

from __future__ import annotations

from array import array

import numpy as np

from .errors import ExhaustedNetworkError
from .topology import TopologyParams

# Strip-width margin over the largest radius (metres, relative above 1 m): far wider than
# the rounding of a strip index, so no cover reaches past the strips beside its head's.
_BAND = 1e-9
_MAX_STRIPS = 2**16  # so a strip index rounds by under 1e-10 of a strip, far inside the band


def _distances(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Distances between the (x, y, z) columns of p and q, broadcast, each with the bits of the
    tests' scalar `euclid` (`tests/nodes.py`)."""
    d = p - q
    d *= d
    return np.sqrt(d[0] + d[1] + d[2])


class Geometry:
    """What every round of a run shares, by node id (array position): coordinates, radii,
    distances to the base station, and covers, from `generate_topology`'s x, y, z
    and radius arrays and base station. Raises ValueError on a non-finite coordinate.

    Covers come from x-strips, fixed-radius near-neighbour bucketing (Bentley,
    Stanat & Williams, Information Processing Letters 6(6), 1977): strips as wide
    as the largest radius (plus _BAND) hold every node within a radius of node i
    in i's strip or one beside it, one slice of the strip-sorted coordinates. The
    strips stay balanced because `generate_topology` draws x uniformly over a square,
    so a sparse field, where most nodes head, reads O(n) distances rather than O(n^2).
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, z: np.ndarray, area: np.ndarray, bs: tuple):
        self.xyz = np.array([x, y, z], dtype=float).reshape(3, -1)
        if not (np.isfinite(self.xyz).all() and np.isfinite(bs).all()):
            raise ValueError("clustering requires finite coordinates")
        self.area = np.asarray(area, dtype=float)
        self.dist_bs = _distances(self.xyz, np.reshape(bs, (3, 1)))
        self.covers: list[array | tuple | None] = [None] * len(self.area)
        if not len(self.area):
            return
        reach = float(self.area.max())
        width = max(reach + _BAND * max(reach, 1.0), float(np.ptp(self.xyz[0])) / _MAX_STRIPS, _BAND)
        self.strip = np.floor((self.xyz[0] - self.xyz[0].min()) / width).astype(np.int64)
        self.by_strip = np.argsort(self.strip, kind="stable")  # node ids, strip by strip
        self.strip_xyz = self.xyz[:, self.by_strip]
        # starts[s + 1]: the first strip-sorted position in strip s or later, for s = -1 .. last strip + 2.
        self.starts = np.searchsorted(self.strip[self.by_strip], np.arange(-1, self.strip.max() + 3)).tolist()

    def cover(self, i: int) -> array | tuple:
        """The other ids strictly inside node i's radius, from one distance row over its strip and
        the two beside it. Every empty cover is the one shared `()`, as most are in a sparse field."""
        cover = self.covers[i]
        if cover is None:
            s = self.strip[i]
            lo, hi = self.starts[s], self.starts[s + 3]
            d = _distances(self.xyz[:, i, None], self.strip_xyz[:, lo:hi])
            near = self.by_strip[lo:hi][d < self.area[i]]
            near = near[near != i]
            cover = array("i", near.tolist()) if len(near) else ()
            self.covers[i] = cover
        return cover


def elect(geo: Geometry, energy: np.ndarray, params: TopologyParams) -> tuple[tuple[list[int], list[int]], np.ndarray]:
    """One clustering epoch over per-node energies: sort, elect, charge. Returns
    (order, head) and the post-charge energies. `order` is the live ids in rank
    order; `head[i]` is node i's head id, i itself for a head and for a depleted
    node (which is not in `order` and keeps its energy). Raises
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

    cost = np.where(alive, params.tx_cost_j, 0.0)
    cost[heads] = params.head_cost_j + params.tx_cost_j * (np.bincount(head)[heads] - 1.0)  # a head counts itself
    return (order, head), np.where(alive, np.maximum(0.0, energy - cost), energy)
