#!/usr/bin/env python3
"""Walkthrough: match-action flow tables, the sliding-window flood detector,
and what blocking does to benign bandwidth during a flood.

Run:  python demos/02_flow_rules_and_flood_mitigation.py
"""

from distb.config import AttackConfig, ScenarioConfig
from distb.sdn import (
    DROP,
    FlowRule,
    FlowTable,
    Match,
    Packet,
    SlidingWindow,
    block_flow,
    detect_flood,
    forward,
    match_packet,
)
from distb.simulator import run_raw

# --- flow tables -----------------------------------------------------------
table = FlowTable()
print("empty table, unknown packet ->", match_packet(table, Packet("s-9", "bs")))

table.rules.append(FlowRule(Match(src="s-9"), forward("gw-1"), priority=5))
table.rules.append(FlowRule(Match(src="s-9"), DROP, priority=10))
print("forward@5 vs drop@10      ->", match_packet(table, Packet("s-9", "bs")))

# --- detector --------------------------------------------------------------
# Normal sensors send ~10 packets/s; theta = 5x the expected count per 200 ms
# window, so 10. An attacker at 10x trips it within one full window.
window = SlidingWindow(window_ms=200)
window.record("s-1", at=100, count=2)     # normal
window.record("atk-0", at=100, count=10)  # 100 pps
window.record("atk-0", at=200, count=10)
print("suspects after one window  ->", detect_flood(window, threshold=10, now=200))

# Blocking puts one maximal-priority drop rule into the drop table, the one
# table every gateway enforces.
drops = FlowTable()
block_flow(drops, "atk-0", now=200)
print("post-block action          ->", match_packet(drops, Packet("atk-0", "bs")))

# --- full scenario ---------------------------------------------------------
# Five attackers flood from t=2s to t=18s. With mitigation on (distb mode)
# they are cut off ~200 ms in; the baseline eats the whole flood.
base = ScenarioConfig(sim_time_ms=20_000, attack=AttackConfig(start_ms=2000, stop_ms=18_000, sources=5, multiplier=320.0))
for mode in ("distb", "of-baseline"):
    raw = run_raw(base.with_(mode=mode))
    mbps = raw.benign_bytes_delivered_attack_window * 8 / 1e6 / 16.0
    print(f"{mode:12s} benign bandwidth during flood: {mbps:5.2f} Mbps "
          f"blocked_at={dict(sorted(raw.block_times.items())) or 'never'}")
