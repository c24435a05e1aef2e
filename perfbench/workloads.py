"""The benchmark's workloads: fixed scenario shapes, the timed run, output
checks and the output digest.

A workload drives the simulator only through the public calls `distb run`
makes: `ScenarioConfig`/`validate_config`, `run_raw`, `bundle_from_raw` and
`blockchain.export_ledger`, or `measure_throughput` for the battery. The
seed is the only input that varies between runs of one workload. Why each
shape was chosen is recorded in WORKLOADS.md next to this file.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass

from distb import blockchain, simulator
from distb.calibration import load_default, load_reference_tables
from distb.config import AttackConfig, ConsensusConfig, ScenarioConfig, validate_config

BATTERY = "battery-sweep"

# ScenarioConfig fields each workload sets on top of the defaults.
SHAPES = {
    "ledger-pow": dict(sim_time_ms=100_000),
    "flood-pos": dict(
        node_count=200,
        sim_time_ms=60_000,
        consensus=ConsensusConfig(kind="pos", stakes=(("a", 3.0), ("b", 1.0))),
        attack=AttackConfig(start_ms=5_000, stop_ms=55_000, sources=40, multiplier=10.0),
    ),
    "dense-baseline": dict(mode="of-baseline", node_count=500, round_period_ms=1_000, sim_time_ms=60_000),
    BATTERY: {},
}

# The same shapes shrunk to well under a second each, for the self-test.
SHRUNK = {
    "ledger-pow": dict(sim_time_ms=4_000),
    "flood-pos": dict(
        node_count=30,
        sim_time_ms=4_000,
        attack=AttackConfig(start_ms=500, stop_ms=3_500, sources=4, multiplier=10.0),
    ),
    "dense-baseline": dict(node_count=60, sim_time_ms=3_000),
    BATTERY: {},
}
SHRUNK_BATTERY_NODES = (1, 10)


@dataclass
class Outputs:
    """What one timed run returned: scenario outputs, or the battery rows."""

    raw: simulator.RawResult | None = None
    bundle: simulator.MetricsBundle | None = None
    ledger_text: str = ""
    rows: list | None = None


def scenario_seed(seed: int) -> int:
    """The config seed for a benchmark seed; the simulator needs it non-negative."""
    return seed & 0xFFFF_FFFF


def make_config(name: str, seed: int, shrunk: bool = False) -> ScenarioConfig:
    fields = dict(SHAPES[name])
    if shrunk:
        fields.update(SHRUNK[name])
    return validate_config(ScenarioConfig(seed=scenario_seed(seed), **fields))


def battery_nodes(shrunk: bool) -> list[int]:
    if shrunk:
        return list(SHRUNK_BATTERY_NODES)
    return [int(n) for n in load_reference_tables()["throughput_kbps"]["nodes"]]


def set_up(name: str, seed: int, shrunk: bool = False) -> ScenarioConfig:
    """Everything a run needs before it starts: config plus the lazy table loads."""
    cfg = make_config(name, seed, shrunk)
    load_default()
    load_reference_tables()
    return cfg


def simulated_seconds(name: str, cfg: ScenarioConfig, shrunk: bool = False) -> float:
    if name == BATTERY:
        return 2 * len(battery_nodes(shrunk)) * simulator.THROUGHPUT_SIM_MS / 1000.0
    return cfg.sim_time_ms / 1000.0


def run(name: str, cfg: ScenarioConfig, shrunk: bool = False) -> tuple[float, Outputs]:
    """The timed region: host seconds for the workload's library calls, and their outputs."""
    if name == BATTERY:
        nodes = battery_nodes(shrunk)
        t0 = time.perf_counter()
        rows = simulator.measure_throughput(cfg, nodes)
        return time.perf_counter() - t0, Outputs(rows=rows)
    t0 = time.perf_counter()
    raw = simulator.run_raw(cfg)
    bundle = simulator.bundle_from_raw(cfg, raw)
    ledger_text = blockchain.export_ledger(raw.ledger)
    return time.perf_counter() - t0, Outputs(raw=raw, bundle=bundle, ledger_text=ledger_text)


def check(name: str, cfg: ScenarioConfig, out: Outputs, shrunk: bool = False) -> list[str]:
    """Problems with one run's outputs; an empty list means the run is correct."""
    if name == BATTERY:
        nodes = battery_nodes(shrunk)
        problems = []
        if [row[0] for row in out.rows] != nodes:
            problems.append(f"battery rows cover nodes {[row[0] for row in out.rows]}, expected {nodes}")
        for row in out.rows:
            if not all(math.isfinite(v) and v > 0 for v in row[1:]):
                problems.append(f"battery row {row} holds a non-positive or non-finite value")
        return problems

    raw = out.raw
    c = raw.counters
    problems = []
    for kind in ("", "benign_", "attack_"):
        gen, dlv, drop = c[kind + "generated"], c[kind + "delivered"], c[kind + "dropped"]
        if gen != dlv + drop:
            problems.append(f"{kind}generated {gen} != {kind}delivered {dlv} + {kind}dropped {drop}")
    if c["generated"] != c["benign_generated"] + c["attack_generated"]:
        problems.append("generated != benign_generated + attack_generated")
    if raw.terminated_early:
        problems.append("the network was exhausted before the horizon")
    if cfg.mode == "distb":
        ok, bad = blockchain.validate_chain(raw.ledger)
        if not ok:
            problems.append(f"validate_chain failed at block {bad}")
        committed = sum(len(b.tx_list) for b in raw.ledger.blocks)
        if committed != c["committed_txs"]:
            problems.append(f"ledger holds {committed} txs, counters say {c['committed_txs']}")
        if out.ledger_text.count("\n") != len(raw.ledger.blocks):
            problems.append("ledger export line count differs from the chain length")
    elif raw.ledger.blocks or out.ledger_text:
        problems.append("of-baseline run produced a ledger")
    return problems


def digest(out: Outputs) -> str:
    """SHA-256 over the run's output bytes: the bundle JSON plus the ledger export."""
    h = hashlib.sha256()
    if out.rows is not None:
        h.update(json.dumps(out.rows).encode())
    else:
        h.update(out.bundle.to_json().encode())
        h.update(b"\n")
        h.update(out.ledger_text.encode())
    return h.hexdigest()
