#!/usr/bin/env python3
"""Walkthrough: build a sensor field, elect cluster heads, and watch the
energy budget drain over rounds until the network dies.

Run:  python demos/01_topology_and_clustering.py
"""

import numpy as np

from distb.clustering import Geometry, elect
from distb.errors import ExhaustedNetworkError
from distb.topology import TopologyParams, generate_topology

# A 50-node field in a 2.5 km square, seeded so the story repeats exactly:
# per-node arrays (a node's id is its position) and the base station.
x, y, z, energy, area, bs = generate_topology(50, 2500.0, seed=42)
print(f"placed {len(x)} nodes; base station at ({bs[0]:.0f}, {bs[1]:.0f}, {bs[2]:.0f})")

# Nodes never move, so a run builds one geometry (coordinates, distances to
# the base station, covers) and each round maps one energy array to the next.
geo = Geometry(x, y, z, area, bs)

# One election: sort by (energy desc, distance-to-BS asc, id) and scan.
# A round also charges energy; this look keeps only the election.
elected, _ = elect(geo, energy, TopologyParams())
print(f"\nround 0 elects {len(elected)} cluster heads:")
for head, members in elected[:5]:
    print(f"  head {head:2d} with {len(members)} members")
print("  ...")

# Heads pay for aggregation and the uplink, members for one transmission.
# With aggressive costs the field visibly ages; re-election rotates the
# burden to whoever still has energy.
params = TopologyParams(head_cost_j=4.0, tx_cost_j=0.5)
round_no = 0
while True:
    try:
        elected, energy = elect(geo, energy, params)
    except ExhaustedNetworkError:
        print(f"\nnetwork exhausted after {round_no} rounds")
        break
    alive = int(np.count_nonzero(energy > 0.0))
    if round_no % 5 == 0 or alive < 50:
        total = sum(energy.tolist())
        print(f"round {round_no:3d}: heads={len(elected):2d} "
              f"alive={alive:2d} total_energy={total:8.1f} J")
    if alive == 0:
        break
    round_no += 1

first_dead = min(np.flatnonzero(energy <= 0.0).tolist(), default=None)
print(f"first depleted node id: {first_dead}")
