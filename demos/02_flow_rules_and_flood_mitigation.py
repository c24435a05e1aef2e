#!/usr/bin/env python3
"""Walkthrough: the drop table, the flood detector's threshold,
and what blocking does to benign bandwidth during a flood.

Run:  python demos/02_flow_rules_and_flood_mitigation.py
"""

from distb.config import AttackConfig, ScenarioConfig
from distb.sdn import FlowTable, block_flow, match_packet
from distb.simulator import run_raw

# --- drop table ------------------------------------------------------------
# Blocking puts one maximal-priority drop rule for the source into the drop
# table, the one table every gateway enforces; a packet from any other source
# punts to the controller.
table = FlowTable()
print("empty table, s-9           ->", match_packet(table, "s-9"))

block_flow(table, "s-9", now=200)
print("after block at 200 ms      ->", match_packet(table, "s-9"))

block_flow(table, "s-9", now=900)  # the first rule stands
print("second block at 900 ms     ->", table.rules)

# --- detector --------------------------------------------------------------
# The detector counts the packets each source (sensors and attackers alike)
# offered over the last detector_window_ms, and blocks an unblocked source at
# the 100 ms window end where that count first exceeds
# theta = detector_multiplier x sensor_rate_pps x detector_window_ms / 1000.
# The engine finds those crossings after the clustering rounds, in passes
# of 100 windows: one cumsum over a pass's sparse (source, window) counts
# gives each unblocked source's first crossing of theta.
# Normal sensors send ~10 packets/s, so by default theta = 5 x 10 x 0.2 = 10:
# a sensor expects 2 packets per 200 ms. An attacker at 10x sends 10 per
# 100 ms window and crosses theta after two windows.
cfg = ScenarioConfig()
theta = cfg.detector_multiplier * cfg.sensor_rate_pps * cfg.detector_window_ms / 1000
print("default theta              ->", theta)

# --- full scenario ---------------------------------------------------------
# Five attackers flood from t=2s to t=18s. With mitigation on (distb mode)
# they are cut off at the end of the first flooded window, 100 ms in; the
# baseline eats the whole flood.
base = ScenarioConfig(sim_time_ms=20_000, attack=AttackConfig(start_ms=2000, stop_ms=18_000, sources=5, multiplier=320.0))
for mode in ("distb", "of-baseline"):
    raw = run_raw(base.with_(mode=mode))
    mbps = raw.benign_bytes_delivered_attack_window * 8 / 1e6 / 16.0
    print(f"{mode:12s} benign bandwidth during flood: {mbps:5.2f} Mbps "
          f"blocked_at={dict(sorted(raw.block_times.items())) or 'never'}")
