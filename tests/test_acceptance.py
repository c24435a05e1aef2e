"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured figures (run `pytest -s tests/test_acceptance.py` to see them).

Tolerances are pinned here and nowhere else:
  1. head-selection oracle equivalence, exact
  2. throughput rows +-15%, monotone, distb >= baseline for n >= 5
  3. bandwidth rows +-0.3 Mbps; distb drop <= 15%, baseline drop >= 70%
  4. response rows +-15%, distb < core everywhere, mean reduction >= 5%
  5. gas rows +-10%, strictly monotone, gas(0) = 0
  6. cpu peak 27 +- 5 points inside [1.2 s, 2.0 s], <= 5% at 3.2 s
  7. chain integrity and tamper detection, exact
  8. determinism and packet conservation, exact
  9. stake-weighted selection frequency 0.75 +- 0.02, zero stake never
"""

import json
import math

import numpy as np

from chain_reference import load_ledger
from distb import blockchain as bc
from distb.calibration import load_default, load_reference_tables
from distb.clustering import elect
from distb.config import WINDOW_MS, AttackConfig, ScenarioConfig
from distb.simulator import (
    bundle_from_raw,
    measure_bandwidth_under_attack,
    measure_cpu_flooding,
    measure_gas,
    measure_response_time,
    measure_throughput,
    run_raw,
)
from distb.topology import TopologyParams
from nodes import clusters, energy_array, generate_node_set, geometry

TABLES = load_reference_tables()


# --- criterion 1: cluster head selection ------------------------------------


def oracle_algorithm(node_set):
    """Independent straight-line re-execution: exhaustive selection sort on the
    composite key, then the head/member double scan."""
    bs = node_set.base_station.location
    arr = [
        dict(
            id=n.id, x=n.location.x, y=n.location.y, z=n.location.z,
            energy=n.energy, area=n.area, head=False, member=False,
        )
        for n in node_set.nodes
    ]
    for n in arr:
        n["dist"] = math.sqrt((n["x"] - bs.x) ** 2 + (n["y"] - bs.y) ** 2 + (n["z"] - bs.z) ** 2)
    key = lambda n: (-n["energy"], n["dist"], n["id"])
    for i in range(len(arr)):
        m = i
        for j in range(i + 1, len(arr)):
            if key(arr[j]) < key(arr[m]):
                m = j
        arr[i], arr[m] = arr[m], arr[i]
    out = []
    for i, n in enumerate(arr):
        if n["head"] or n["member"]:
            continue
        n["head"] = True
        members = []
        for j in range(i + 1, len(arr)):
            o = arr[j]
            if o["head"] or o["member"]:
                continue
            d = math.sqrt((n["x"] - o["x"]) ** 2 + (n["y"] - o["y"]) ** 2 + (n["z"] - o["z"]) ** 2)
            if d < n["area"]:
                o["member"] = True
                members.append(o["id"])
        out.append((n["id"], tuple(members)))
    return out


def engine_clusters(node_set):
    """The engine's election, `elect` over the run's Geometry, as (head id, member ids) pairs."""
    elected, _ = elect(geometry(node_set), energy_array(node_set), TopologyParams())
    ids = [n.id for n in node_set.nodes]
    return [(ids[i], tuple(ids[j] for j in members)) for i, members in clusters(*elected)]


def test_criterion_1_chs_oracle_equivalence():
    rng = np.random.default_rng(2024)
    for trial in range(200):
        n = int(rng.integers(1, 11))
        ns = generate_node_set(n, float(rng.choice([300, 800, 2500])), seed=trial)
        assert engine_clusters(ns) == oracle_algorithm(ns), trial

    for trial in range(1000):
        n = int(rng.integers(1, 101))
        ns = generate_node_set(n, 2500.0, seed=10_000 + trial)
        by_id = {node.id: node for node in ns.nodes}
        seen = []
        for head_id, member_ids in engine_clusters(ns):
            seen.append(head_id)
            seen.extend(member_ids)
            head = by_id[head_id]
            for m in member_ids:
                member = by_id[m]
                d = math.sqrt(
                    (head.location.x - member.location.x) ** 2
                    + (head.location.y - member.location.y) ** 2
                    + (head.location.z - member.location.z) ** 2
                )
                assert d < head.area
                assert head.energy >= member.energy
        assert sorted(seen) == sorted(node.id for node in ns.nodes)
    print("CRITERION 1 PASS: oracle equivalence on 200 sets; invariants on 1000 sets")


# --- criterion 2: throughput -------------------------------------------------


def test_criterion_2_throughput_table():
    t = TABLES["throughput_kbps"]
    rows = measure_throughput(ScenarioConfig())
    assert [r[0] for r in rows] == list(t["nodes"])
    worst = 0.0
    for (n, d, b), ed, eb in zip(rows, t["distb"], t["baseline"]):
        worst = max(worst, abs(d - ed) / ed, abs(b - eb) / eb)
        assert abs(d - ed) / ed <= 0.15, (n, d, ed)
        assert abs(b - eb) / eb <= 0.15, (n, b, eb)
        if n >= 5:
            assert d >= b, (n, d, b)
    distb_col = [r[1] for r in rows]
    base_col = [r[2] for r in rows]
    assert all(x <= y for x, y in zip(distb_col, distb_col[1:]))
    assert all(x <= y for x, y in zip(base_col, base_col[1:]))
    print(f"CRITERION 2 PASS: 13 rows within 15% (worst {worst * 100:.2f}%), monotone, distb>=baseline")


# --- criterion 3: bandwidth under attack --------------------------------------


def test_criterion_3_bandwidth_under_attack():
    t = TABLES["bandwidth_mbps"]
    rows = measure_bandwidth_under_attack(ScenarioConfig())
    worst = 0.0
    for (r, d, b), ed, eb in zip(rows, t["distb"], t["baseline"]):
        worst = max(worst, abs(d - ed), abs(b - eb))
        assert abs(d - ed) <= 0.3, (r, d, ed)
        assert abs(b - eb) <= 0.3, (r, b, eb)
    at32 = rows[-1]
    assert at32[0] == 32.0
    distb_drop = (3.8 - at32[1]) / 3.8
    base_drop = (rows[0][2] - at32[2]) / rows[0][2]
    assert distb_drop <= 0.15, distb_drop
    assert base_drop >= 0.70, base_drop
    print(
        f"CRITERION 3 PASS: 11 rows within 0.3 Mbps (worst {worst:.3f}); "
        f"drops distb {distb_drop * 100:.1f}% / baseline {base_drop * 100:.1f}%"
    )


# --- criterion 4: response time ------------------------------------------------


def test_criterion_4_response_time():
    t = TABLES["response_ms"]
    rows = measure_response_time(ScenarioConfig())
    worst = 0.0
    for (s, d, c), ed, ec in zip(rows, t["distb"], t["core"]):
        worst = max(worst, abs(d - ed) / ed, abs(c - ec) / ec)
        assert abs(d - ed) / ed <= 0.15, (s, d, ed)
        assert abs(c - ec) / ec <= 0.15, (s, c, ec)
        assert d < c, (s, d, c)
    reduction = sum((c - d) / c for _, d, c in rows) / len(rows)
    assert reduction >= 0.05, reduction
    print(
        f"CRITERION 4 PASS: 10 rows within 15% (worst {worst * 100:.2f}%); "
        f"avg reduction {reduction * 100:.1f}%"
    )


# --- criterion 5: gas ------------------------------------------------------------


def test_criterion_5_gas():
    t = TABLES["gas"]
    rows = measure_gas(ScenarioConfig())
    worst = 0.0
    for (n, g), eg in zip(rows, t["gas"]):
        worst = max(worst, abs(g - eg) / eg)
        assert abs(g - eg) / eg <= 0.10, (n, g, eg)
    calib = load_default()
    series = [bc.gas_for(n, calib.gas_base, calib.gas_per_tx) for n in range(0, 64)]
    assert series[0] == 0
    assert all(a < b for a, b in zip(series, series[1:]))
    print(f"CRITERION 5 PASS: 8 rows within 10% (worst {worst * 100:.2f}%), strictly monotone, gas(0)=0")


# --- criterion 6: cpu under flooding ----------------------------------------------


def test_criterion_6_cpu_flooding():
    series = measure_cpu_flooding(ScenarioConfig())
    by_time = dict(series)
    peak_t, peak_v = max(series, key=lambda tv: tv[1])
    assert 1.2 <= peak_t <= 2.0, (peak_t, peak_v)
    assert abs(peak_v - 27.0) <= 5.0, peak_v
    assert by_time[3.2] <= 5.0, by_time[3.2]
    print(f"CRITERION 6 PASS: peak {peak_v:.1f}% at {peak_t:.1f}s; {by_time[3.2]:.1f}% at 3.2s")


# --- criterion 7: blockchain integrity ---------------------------------------------


def _tiny_cfg(seed):
    return ScenarioConfig(node_count=6, sim_time_ms=2000, seed=seed, sensor_rate_pps=10.0)


def _still_parked(cfg, raw) -> int:
    """The delivered packets parked less than t_pending_ms before the last
    sweep (every whole second and the horizon, up to last_tick), each parked
    at its window end, the first at or after its t (100 for t = 0): all of
    them when no sweep ran."""
    end = cfg.sim_time_ms
    sweeps = [*range(1000, raw.last_tick + 1, 1000), *([end] if raw.last_tick == end else [])]
    last_sweep = max(sweeps, default=None)
    still = 0
    for t in raw.delivered[::4]:
        t1 = min(max(-(-t // WINDOW_MS), 1) * WINDOW_MS, end)
        if last_sweep is None or last_sweep - t1 < cfg.t_pending_ms:
            still += 1
    return still


def test_criterion_7_chain_integrity():
    # 100 seeded runs all validate
    for seed in range(100):
        raw = run_raw(_tiny_cfg(seed))
        assert bc.validate_chain(raw.ledger) == (True, None), seed
        for block in raw.ledger.blocks:
            assert int.from_bytes(block.hash, "big") < 2 ** (256 - 8), block.index

    # 100 single-byte tamper trials with exact first-bad-index
    base = run_raw(_tiny_cfg(4242)).ledger
    assert len(base.blocks) >= 4
    export = bc.export_ledger(base)
    rng = np.random.default_rng(99)
    for trial in range(100):
        lines = export.splitlines()
        idx = int(rng.integers(0, len(lines)))
        doc = json.loads(lines[idx])
        choice = rng.integers(0, 3)
        if choice == 0 and doc["txs"]:
            t = int(rng.integers(0, len(doc["txs"])))
            payload = doc["txs"][t]["payload_hex"]
            if payload:
                pos = int(rng.integers(0, len(payload)))
                flipped = "0" if payload[pos] != "0" else "1"
                doc["txs"][t]["payload_hex"] = payload[:pos] + flipped + payload[pos + 1 :]
            else:
                doc["txs"][t]["timestamp"] = doc["txs"][t]["timestamp"] + 1
        elif choice == 1:
            pos = int(rng.integers(0, 64))
            h = doc["hash"]
            doc["hash"] = h[:pos] + ("0" if h[pos] != "0" else "1") + h[pos + 1 :]
        else:
            pos = int(rng.integers(0, 64))
            p = doc["prev_hash"]
            doc["prev_hash"] = p[:pos] + ("0" if p[pos] != "0" else "1") + p[pos + 1 :]
        lines[idx] = json.dumps(doc, sort_keys=True)
        tampered = load_ledger("\n".join(lines) + "\n")
        ok, bad = bc.validate_chain(tampered)
        assert not ok, trial
        assert bad == idx, (trial, bad, idx)

    # waiting room boundedness, on the engine: with every sensor unregistered,
    # each delivered packet is parked at its window end, and it has expired
    # by the end exactly when the last sweep came t_pending_ms or more after
    # it. Every third config drains its network fast: most of those die
    # mid-run, and their last sweeps never run.
    rng = np.random.default_rng(7)
    dying = {"energy_range_j": (1.0, 3.0), "head_cost_j": 0.2, "tx_cost_j": 0.1, "round_period_ms": 100}
    for trial in range(60):
        cfg = ScenarioConfig(
            node_count=int(rng.integers(2, 8)),
            sim_time_ms=int(rng.integers(100, 6000)),
            seed=trial,
            unregistered_fraction=1.0,
            t_pending_ms=int(rng.integers(1, 4000)),
            **(dying if trial % 3 == 0 else {}),
        )
        raw = run_raw(cfg)
        c = raw.counters
        assert c["parked_txs"] == c["expired_txs"] + c["pending_at_end"] == c["benign_delivered"], trial
        assert c["pending_at_end"] == _still_parked(cfg, raw), trial
    # the boundary: a packet parked at the 1 000 ms window end expires at the
    # 2 000 ms sweep when t_pending_ms is 1 000, and stays when it is 1 001
    cfg = ScenarioConfig(node_count=6, sim_time_ms=2000, seed=5, unregistered_fraction=1.0)
    stay, go = (run_raw(cfg.with_(t_pending_ms=t)) for t in (1001, 1000))
    at_1000 = sum(900 < t <= 1000 for t in stay.delivered[::4])  # the packets of the window ending at 1 000 ms
    assert at_1000 > 0
    assert stay.counters["pending_at_end"] - go.counters["pending_at_end"] == at_1000

    # duplicate tx_id can never commit twice: the chain check refuses the
    # block that repeats it, and names the id
    ledger = bc.Ledger()
    bc.append_block(ledger, bc.mine_block([], bc.ZERO_HASH, 8, 0, 0))
    [tx] = bc.TxColumns("bs").append([("s-1", b"x", 1)])
    for i in (1, 2):
        bc.append_block(ledger, bc.mine_block([tx], ledger.tip_hash, 8, 10 * i, i))
    assert bc.validate_chain(ledger) == (False, 2)
    assert bc.first_duplicate(b"".join(b.tx_list.id_run() for b in ledger.blocks), [0, 1, 2]) == (2, tx.tx_id)
    print("CRITERION 7 PASS: 100 valid runs, 100 tamper detections, pow re-verified, room bounded, dup rejected")


# --- criterion 8: determinism and conservation ----------------------------------------


def test_criterion_8_determinism_and_conservation():
    for seed in range(1, 11):
        cfg = ScenarioConfig(
            node_count=10,
            sim_time_ms=3000,
            seed=seed,
            attack=AttackConfig(start_ms=500, stop_ms=2000, sources=2, multiplier=10.0),
        )
        a = bundle_from_raw(cfg, run_raw(cfg))
        b = bundle_from_raw(cfg, run_raw(cfg))
        assert a.to_json() == b.to_json(), seed
        c = a.counters
        assert c["generated"] == c["delivered"] + c["dropped"], seed
        assert c["committed_txs"] == c["benign_delivered"], seed
    print("CRITERION 8 PASS: 10 seeds byte-identical bundles; conservation holds in every run")


# --- criterion 9: stake-weighted selection ----------------------------------------------


def test_criterion_9_pos_selection():
    stakes = {"A": 3.0, "B": 1.0}
    draws = [bc.select_validator(stakes, seed) for seed in range(10_000)]
    freq = draws.count("A") / len(draws)
    assert abs(freq - 0.75) <= 0.02, freq
    for seed in range(2000):
        assert bc.select_validator({"A": 1.0, "B": 0.0}, seed) == "A"
    print(f"CRITERION 9 PASS: freq(A)={freq:.4f} within 0.75+-0.02; zero stake never selected")
