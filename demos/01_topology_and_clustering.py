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
# It returns the live ids in that rank order and each node's head (a head
# is its own). A round also charges energy; this look keeps only the election.
(order, head), _ = elect(geo, energy, TopologyParams())
heads = [i for i in order if head[i] == i]
size = np.bincount([head[i] for i in order])  # each cluster's size, head included
print(f"\nround 0 elects {len(heads)} cluster heads:")
for h in heads[:5]:
    print(f"  head {h:2d} with {size[h] - 1} members")
print("  ...")

# Heads pay for aggregation and the uplink, members for one transmission.
# With aggressive costs the field visibly ages; re-election rotates the
# burden to whoever still has energy.
params = TopologyParams(head_cost_j=4.0, tx_cost_j=0.5)
round_no = 0
while True:
    try:
        (order, head), energy = elect(geo, energy, params)
    except ExhaustedNetworkError:
        print(f"\nnetwork exhausted after {round_no} rounds")
        break
    alive = int(np.count_nonzero(energy > 0.0))
    if round_no % 5 == 0 or alive < 50:
        total = sum(energy.tolist())
        n_heads = sum(head[i] == i for i in order)
        print(f"round {round_no:3d}: heads={n_heads:2d} "
              f"alive={alive:2d} total_energy={total:8.1f} J")
    if alive == 0:
        break
    round_no += 1

first_dead = min(np.flatnonzero(energy <= 0.0).tolist(), default=None)
print(f"first depleted node id: {first_dead}")
