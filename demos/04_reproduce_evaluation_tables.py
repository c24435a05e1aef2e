#!/usr/bin/env python3
"""Walkthrough: run the metric batteries and print the reproduced evaluation
tables next to the embedded reference rows.

Takes about 1 s. Run:  python demos/04_reproduce_evaluation_tables.py
"""

from distb.calibration import load_reference_tables
from distb.config import ScenarioConfig
from distb.simulator import (
    measure_bandwidth_under_attack,
    measure_cpu_flooding,
    measure_gas,
    measure_response_time,
    measure_throughput,
)

cfg = ScenarioConfig()
tables = load_reference_tables()

print("throughput (kbps) vs node count")
print(f"{'n':>4} {'distb':>8} {'ref':>6} {'baseline':>9} {'ref':>6}")
ref = tables["throughput_kbps"]
for (n, d, b), rd, rb in zip(measure_throughput(cfg), ref["distb"], ref["baseline"]):
    print(f"{n:>4} {d:>8.2f} {rd:>6} {b:>9.2f} {rb:>6}")

print("\nbenign bandwidth (Mbps) under flood vs arrival rate (thousand/s)")
print(f"{'rate':>5} {'distb':>7} {'ref':>5} {'baseline':>9} {'ref':>5}")
ref = tables["bandwidth_mbps"]
rows = measure_bandwidth_under_attack(cfg)
for (r, d, b), rd, rb in zip(rows, ref["distb"], ref["baseline"]):
    print(f"{r:>5.0f} {d:>7.2f} {rd:>5} {b:>9.2f} {rb:>5}")
drop_d = (rows[0][1] - rows[-1][1]) / rows[0][1] * 100
drop_b = (rows[0][2] - rows[-1][2]) / rows[0][2] * 100
print(f"relative drop across the sweep: distb {drop_d:.1f}%  baseline {drop_b:.1f}%")

print("\nfile transfer response time (ms)")
print(f"{'Mb':>5} {'distb':>8} {'ref':>6} {'core':>8} {'ref':>6}")
ref = tables["response_ms"]
resp = measure_response_time(cfg)
for (s, d, c), rd, rc in zip(resp, ref["distb"], ref["core"]):
    print(f"{s:>5.0f} {d:>8.1f} {rd:>6} {c:>8.1f} {rc:>6}")
avg = sum((c - d) / c for _, d, c in resp) / len(resp) * 100
print(f"average response-time reduction: {avg:.1f}%")

print("\ngas per committed batch")
ref = tables["gas"]
for (n, g), rg in zip(measure_gas(cfg), ref["gas"]):
    print(f"{n:>4} txs {g:>7} (ref {rg})")

print("\ncpu% during the flooding scenario (attack ramps from 0.5 s, cut off by the detector)")
for t, v in measure_cpu_flooding(cfg):
    bar = "#" * int(round(v))
    print(f"{t:>4.1f}s {v:>5.1f} {bar}")
