#!/usr/bin/env python3
"""Walkthrough: build a sensor field, elect cluster heads, and watch the
energy budget drain over rounds until the network dies.

Run:  python demos/01_topology_and_clustering.py
"""

from distb.clustering import run_round
from distb.errors import ExhaustedNetworkError
from distb.topology import TopologyParams, generate_topology

# A 50-node field in a 2.5 km square, seeded so the story repeats exactly.
ns = generate_topology(50, 2500.0, seed=42)
print(f"placed {len(ns.nodes)} nodes; base station at "
      f"({ns.base_station.location.x:.0f}, {ns.base_station.location.y:.0f}, 0)")

# One election: sort by (energy desc, distance-to-BS asc, id) and scan.
# A round also charges energy; this look keeps only the election.
clusters, _ = run_round(ns, TopologyParams())
print(f"\nround 0 elects {len(clusters.clusters)} cluster heads:")
for c in clusters.clusters[:5]:
    print(f"  head {c.head_id:2d} with {len(c.member_ids)} members")
print("  ...")

# Heads pay for aggregation and the uplink, members for one transmission.
# With aggressive costs the field visibly ages; re-election rotates the
# burden to whoever still has energy.
params = TopologyParams(head_cost_j=4.0, tx_cost_j=0.5)
sim = ns
round_no = 0
while True:
    try:
        clusters, sim = run_round(sim, params, round_no)
    except ExhaustedNetworkError:
        print(f"\nnetwork exhausted after {round_no} rounds")
        break
    alive = len(sim.active())
    if round_no % 5 == 0 or alive < 50:
        total = sum(n.energy for n in sim.nodes)
        print(f"round {round_no:3d}: heads={len(clusters.clusters):2d} "
              f"alive={alive:2d} total_energy={total:8.1f} J")
    if alive == 0:
        break
    round_no += 1

first_dead = min((n.id for n in sim.nodes if n.depleted), default=None)
print(f"first depleted node id: {first_dead}")
