import dataclasses
import hashlib
import time
from array import array

import numpy as np
import pytest
from engine_reference import reference_ledger, reference_link
from hypothesis import example, given, settings
from hypothesis import strategies as st

from distb import blockchain as bc
from distb.calibration import Calibration, load_default
from distb.cli import _flow_tables_json
from distb.config import MODES, AttackConfig, ConsensusConfig, ScenarioConfig, config_from_dict
from distb.errors import ConfigError, DuplicateTransactionError
from distb.simulator import (
    _LEDGER_COUNTERS,
    LinkResult,
    RawResult,
    _bandwidth_cfg,
    _run_ledger,
    bundle_from_raw,
    fill_budget,
    generate_traffic,
    inject_attack,
    link_figures,
    measure_bandwidth_under_attack,
    measure_cpu_flooding,
    measure_response_time,
    measure_throughput,
    run_link,
    run_raw,
)
from distb.topology import generate_topology

SMALL = ScenarioConfig(node_count=10, sim_time_ms=3000, seed=7)


def small_attack_cfg(seed=7, mode="distb"):
    return ScenarioConfig(
        node_count=10,
        sim_time_ms=4000,
        seed=seed,
        mode=mode,
        attack=AttackConfig(start_ms=500, stop_ms=2500, sources=2, multiplier=10.0),
    )


def assert_ledger_books_close(raw):
    """Every delivered sensor packet is committed, expired, parked or queued at the end."""
    c = raw.counters
    assert c["committed_txs"] == sum(len(block.tx_list) for block in raw.ledger.blocks)
    assert c["parked_txs"] == c["expired_txs"] + c["pending_at_end"]
    assert c["queued_at_end"] == 0 or raw.terminated_early
    assert c["benign_delivered"] == c["committed_txs"] + c["expired_txs"] + c["pending_at_end"] + c["queued_at_end"]


# --- tick order -------------------------------------------------------------

# Output digests that pin the per-window order: rounds due before the window
# end, settle, detect, a round due at the window end, mine, sweep. B has rounds
# between and on window ends under attack; C's and D's networks die in a round
# at a window end, between settle and mine (C on a mine tick with transactions
# queued, D mining every window). E pins the window bounds: its two arrivals at
# t = 0 belong to the first window, and an attack batch due exactly at a window
# end belongs to the window after it. F pins the per-packet settle: a 0.5 Mbps
# link congests 58 of its 60 windows, so the budget skips packets that miss it
# and still delivers later smaller ones; a low detector multiplier blocks
# three benign sensors mid-run; twelve nodes deplete in rounds due inside a
# window (one arrival falls exactly on its node's depletion ms); PoS seals,
# unregistered sensors park and expire, and the attack ramps. Each digest was
# measured on an earlier engine (the event heap for B-D, per-window cursors
# for E, per-packet dicts for F) with its outputs mapped to the current schema,
# and mapped again when the engine stopped verifying its own transactions:
# counters without rejected_txs and with pending_at_end and queued_at_end taken
# from the ledger's waiting room and queue at the end, and flow tables written
# as the one {"drop_table": ...}. C dies with four valid transactions queued;
# F ends with four parked. They were mapped once more when the run bundle
# dropped its calibrated series: the parent engine's bundle JSON, parsed,
# stripped of its five *_series keys and re-dumped with sort_keys=True.
TICK_ORDER_CASES = {
    "B": (
        {"node_count": 15, "sim_time_ms": 4030, "seed": 3, "round_period_ms": 70, "block_interval_ms": 130,
         "attack": {"start_ms": 450, "stop_ms": 3000, "sources": 3, "multiplier": 10.0}},
        "4a6cfbe21d6d57544805e571dadf463643673859dda0762fb4efc476fd7c4ad6",
    ),
    "C": (
        {"node_count": 8, "sim_time_ms": 30000, "seed": 3, "round_period_ms": 100, "block_interval_ms": 1000,
         "head_cost_j": 0.02, "tx_cost_j": 0.01, "energy_range_j": [0.035, 0.21]},
        "8e5518ffc894504df17c81466f86434fb53535d0f9bb72343882d492a1f62f85",
    ),
    "D": (
        {"node_count": 10, "sim_time_ms": 60000, "seed": 5, "round_period_ms": 500, "block_interval_ms": 100,
         "head_cost_j": 0.2, "tx_cost_j": 0.05, "energy_range_j": [0.5, 1.0]},
        "73c5b598be6cd3c6fa15100cf6845cfb8b8d34cae178084a7b553079bb19b04a",
    ),
    "E": (
        {"node_count": 30, "sim_time_ms": 2000, "seed": 24,
         "attack": {"start_ms": 500, "stop_ms": 1500, "sources": 2, "multiplier": 10.0}},
        "d32e0e8e19077b1ca7a0896051dc8154d401a66c6eed94436602b364fc2bb86f",
    ),
    "F": (
        {"node_count": 30, "sim_time_ms": 6000, "seed": 10, "data_rate_mbps": 0.5, "round_period_ms": 230,
         "block_interval_ms": 500, "energy_range_j": [0.2, 10.0], "head_cost_j": 0.2, "tx_cost_j": 0.1,
         "unregistered_fraction": 0.2, "t_pending_ms": 700, "detector_multiplier": 3.0,
         "consensus": {"kind": "pos", "stakes": {"a": 3.0, "b": 1.0}},
         "attack": {"start_ms": 1000, "stop_ms": 5000, "sources": 2, "multiplier": 10.0, "ramp_ms": 2000}},
        "a928f6d83390a8f1ec13f223caa75c5d9dcc164fe353af5cc656db0be65bed02",
    ),
}


@pytest.mark.parametrize("name", sorted(TICK_ORDER_CASES))
def test_tick_order_pinned_by_output_digest(name):
    doc, expected = TICK_ORDER_CASES[name]
    cfg = config_from_dict(doc)
    raw = run_raw(cfg)
    h = hashlib.sha256()
    outputs = (bundle_from_raw(cfg, raw).to_json(), bc.export_ledger(raw.ledger), _flow_tables_json(raw))
    for text in outputs:
        h.update(text.encode("utf-8") + b"\0")
    assert h.hexdigest() == expected
    assert_ledger_books_close(raw)
    link = run_link(cfg)  # the link stage alone measures what run_raw's link stage did
    for f in dataclasses.fields(LinkResult):
        if f.name == "counters":
            assert link.counters == {k: raw.counters[k] for k in link.counters}
        else:
            assert getattr(link, f.name) == getattr(raw, f.name), f.name


def test_batteries_build_no_transaction_and_seal_no_block(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a battery touched the ledger")

    for name in ("make_transactions", "mine_block", "seal_block_pos"):
        monkeypatch.setattr(bc, name, refuse)
    cfg = ScenarioConfig(node_count=5)
    assert [row[0] for row in measure_throughput(cfg, node_counts=(1, 5))] == [1, 5]
    assert [row[0] for row in measure_bandwidth_under_attack(cfg, rates=(6.0, 12.0))] == [6.0, 12.0]
    assert measure_cpu_flooding(cfg)


# --- the link stage against its longhand model --------------------------------


@st.composite
def link_configs(draw):
    """Small configs that reach every branch of the link stage's passes:
    horizons off the window grid, odd round periods (some longer than the
    run, so one round serves many windows), networks that die, congested
    links, ramped and flat floods, and detector thresholds low enough to
    block benign sensors."""
    horizon = 100 * draw(st.integers(0, 29)) + draw(st.integers(1, 99))
    attack = None
    if draw(st.booleans()):
        start = draw(st.integers(0, horizon - 1))
        attack = {
            "start_ms": start,
            "stop_ms": draw(st.integers(start + 1, horizon)),
            "sources": draw(st.integers(1, 3)),
            "multiplier": draw(st.sampled_from([2.0, 10.0, 40.0])),
            "ramp_ms": draw(st.sampled_from([0, 0, 250, 1500])),
        }
    energy_range, head_cost, tx_cost = draw(
        st.sampled_from([((50.0, 100.0), 1.0, 0.2), ((0.2, 3.0), 0.2, 0.1), ((0.05, 0.4), 0.2, 0.1)])
    )
    return config_from_dict(
        {
            "mode": draw(st.sampled_from(MODES)),
            "seed": draw(st.integers(0, 2**16)),
            "node_count": draw(st.integers(1, 12)),
            "sim_time_ms": horizon,
            "round_period_ms": 2 * draw(st.integers(0, 2500)) + 1,
            "sensor_rate_pps": draw(st.sampled_from([5.0, 10.0, 60.0, 300.0])),
            "data_rate_mbps": draw(st.sampled_from([0.02, 0.1, 0.5, 10.0])),
            "packet_size_bytes": draw(st.sampled_from([[128, 1024], [1, 64], [300, 300]])),
            "detector_multiplier": draw(st.sampled_from([0.5, 1.5, 3.0, 5.0])),
            "energy_range_j": list(energy_range),
            "head_cost_j": head_cost,
            "tx_cost_j": tx_cost,
            "attack": attack,
        }
    )


@settings(derandomize=True, max_examples=150, deadline=None)
@given(cfg=link_configs())
# Under attack, the network dies in a round due exactly at a window end, so
# that window still settles and detects before the run stops.
@example(
    cfg=config_from_dict(
        {**TICK_ORDER_CASES["C"][0], "attack": {"start_ms": 0, "stop_ms": 30000, "sources": 2, "multiplier": 2.0}}
    )
)
def test_link_stage_matches_the_per_packet_reference(cfg):
    got, want = run_link(cfg), reference_link(cfg)
    for f in dataclasses.fields(LinkResult):
        assert getattr(got, f.name) == getattr(want, f.name), f.name


@pytest.mark.parametrize("window_ms", [1, 99, 150, 250, 1000])
def test_link_stage_matches_the_reference_at_detector_windows_off_the_grid(window_ms):
    # A detector window that is not a whole number of 100 ms windows slides its
    # oldest window out at a different step; sensors and attackers are blocked.
    cfg = config_from_dict(
        {
            "seed": 3,
            "node_count": 12,
            "sim_time_ms": 3050,
            "sensor_rate_pps": 60.0,
            "detector_window_ms": window_ms,
            "detector_multiplier": 1.2,
            "attack": {"start_ms": 400, "stop_ms": 2500, "sources": 3, "multiplier": 10.0, "ramp_ms": 1500},
        }
    )
    got, want = run_link(cfg), reference_link(cfg)
    assert {src.split("-")[0] for src in got.block_times} == {"atk", "s"}
    for f in dataclasses.fields(LinkResult):
        assert getattr(got, f.name) == getattr(want, f.name), f.name


@pytest.mark.parametrize("window_ms", [200, 2_050, 15_000])
def test_link_stage_matches_the_reference_across_detector_passes(window_ms):
    # 350 windows take four detector passes of 100, or three of 150 when one
    # detector window covers 150 windows; sensors and attackers are blocked in
    # passes after the first, with sums that reach back over pass boundaries.
    cfg = config_from_dict(
        {
            "seed": 4,
            "node_count": 12,
            "sim_time_ms": 35_000,
            "sensor_rate_pps": 20.0,
            "detector_window_ms": window_ms,
            "detector_multiplier": {200: 2.5, 2_050: 1.3, 15_000: 1.05}[window_ms],
            "attack": {"start_ms": 9_950, "stop_ms": 33_000, "sources": 3, "multiplier": 5.0, "ramp_ms": 20_000},
        }
    )
    got, want = run_link(cfg), reference_link(cfg)
    assert {src.split("-")[0] for src in got.block_times} == {"atk", "s"}
    assert max(got.block_times.values()) - min(got.block_times.values()) > 15_000  # longer than any pass
    for f in dataclasses.fields(LinkResult):
        assert getattr(got, f.name) == getattr(want, f.name), f.name


def test_one_detector_pass_holds_many_block_events():
    # The 30 windows fit in one detector pass, so every block event comes
    # from one cumsum: sensors and attackers cross at nine window ends, s-11
    # and s-2 in one window, s-0 and s-10 in another, each pair in name order.
    cfg = config_from_dict(
        {
            "seed": 0,
            "node_count": 12,
            "sim_time_ms": 3000,
            "round_period_ms": 3000,
            "sensor_rate_pps": 40.0,
            "detector_multiplier": 1.5,
            "attack": {"start_ms": 300, "stop_ms": 2500, "sources": 3, "multiplier": 4.0, "ramp_ms": 2000},
        }
    )
    got, want = run_link(cfg), reference_link(cfg)
    for f in dataclasses.fields(LinkResult):
        assert getattr(got, f.name) == getattr(want, f.name), f.name
    assert got.counters["rounds"] == 1
    rules = [(t, src) for src, t in got.drop_table.rules.items()]
    assert len({t for t, _ in rules}) == 9
    assert {src.split("-")[0] for _, src in rules} == {"atk", "s"}
    assert [src for t, src in rules if t in (300, 400)] == ["s-11", "s-2", "s-0", "s-10"]


# --- the ledger stage against its per-packet model -----------------------------


@st.composite
def ledger_configs(draw):
    """Small distb configs that reach every branch of the ledger stage: horizons
    on and off the window grid, batches of 1-5, block intervals on and off it,
    sensors that park and expire, PoS and cheap PoW seals, and networks that
    die in a round between windows or exactly at a window end (a mine tick)."""
    energy_range, head_cost, tx_cost = draw(
        st.sampled_from([((50.0, 100.0), 1.0, 0.2), ((0.2, 3.0), 0.2, 0.1), ((0.05, 0.4), 0.2, 0.1), ((0.3, 0.6), 0.2, 0.1)])
    )
    consensus = draw(
        st.one_of(
            st.builds(lambda d: {"kind": "pow", "difficulty": d}, st.integers(0, 4)),
            st.just({"kind": "pos", "stakes": {"a": 3.0, "b": 1.0}}),
        )
    )
    return config_from_dict(
        {
            "seed": draw(st.integers(0, 2**16)),
            "node_count": draw(st.integers(1, 12)),
            "sim_time_ms": 100 * draw(st.integers(0, 29)) + draw(st.sampled_from([100, 1, 37, 99])),
            "round_period_ms": draw(st.one_of(st.sampled_from([100, 200, 300]), st.integers(1, 1200))),
            "sensor_rate_pps": draw(st.sampled_from([5.0, 20.0, 60.0])),
            "data_rate_mbps": draw(st.sampled_from([0.1, 10.0])),
            "block_batch": draw(st.integers(1, 5)),
            "block_interval_ms": draw(st.one_of(st.sampled_from([200, 300, 1000]), st.integers(1, 1500))),
            "unregistered_fraction": draw(st.sampled_from([0.0, 0.25, 0.5, 1.0])),
            "t_pending_ms": draw(st.sampled_from([1, 300, 1000, 30_000, 2**63 - 1, 10**30])),
            "energy_range_j": list(energy_range),
            "head_cost_j": head_cost,
            "tx_cost_j": tx_cost,
            "consensus": consensus,
        }
    )


def ledger_stage(stage, cfg, link):
    """Run one ledger stage over `link` as run_raw does: its chain and its six counters."""
    counters = dict.fromkeys(_LEDGER_COUNTERS, 0)
    ledger = bc.Ledger()
    stage(cfg, link, ledger, counters)
    counters["blocks"] = len(ledger.blocks)
    return ledger, counters


@settings(derandomize=True, max_examples=150, deadline=None)
@given(cfg=ledger_configs())
# The network dies in a round due at the 2 000 ms window end, a whole second,
# with packets parked: that window's sweep never runs, so only the 1 000 ms
# sweep ages them out.
@example(
    cfg=config_from_dict(
        {"seed": 21456, "node_count": 9, "sim_time_ms": 2237, "round_period_ms": 1000, "sensor_rate_pps": 60.0,
         "block_batch": 1, "unregistered_fraction": 0.5, "t_pending_ms": 1, "energy_range_j": [0.05, 0.4],
         "head_cost_j": 0.2, "tx_cost_j": 0.1, "consensus": {"kind": "pos", "stakes": {"a": 3.0, "b": 1.0}}}
    )
)
def test_ledger_stage_matches_the_per_packet_reference(cfg):
    link = run_link(cfg)
    (got, got_counters), (want, want_counters) = (ledger_stage(s, cfg, link) for s in (_run_ledger, reference_ledger))
    assert bc.export_ledger(got) == bc.export_ledger(want)
    assert got_counters == want_counters


# --- both stages against both models, end to end -------------------------------


def reference_raw(cfg):
    """run_raw's outputs from the two longhand models run in sequence."""
    link = reference_link(cfg)
    stage = reference_ledger if cfg.mode == "distb" else (lambda *args: None)
    ledger, counters = ledger_stage(stage, cfg, link)
    return RawResult(**{**vars(link), "counters": link.counters | counters}, ledger=ledger)


@pytest.mark.parametrize(
    "doc",
    [
        # the network dies in a round at a window end that is a mine tick, with transactions queued
        {"node_count": 8, "sim_time_ms": 12000, "seed": 3, "round_period_ms": 100, "block_interval_ms": 1000,
         "head_cost_j": 0.02, "tx_cost_j": 0.01, "energy_range_j": [0.035, 0.21],
         "consensus": {"kind": "pow", "difficulty": 2}},
        # ... and in one between window ends, mining every window
        {"node_count": 6, "sim_time_ms": 9050, "seed": 5, "round_period_ms": 430, "block_interval_ms": 100,
         "head_cost_j": 0.2, "tx_cost_j": 0.05, "energy_range_j": [0.3, 0.9],
         "consensus": {"kind": "pow", "difficulty": 2}},
        # blocks of sensors and attackers, parked and expired transactions, PoS seals, a horizon off the grid
        {"node_count": 12, "sim_time_ms": 3050, "seed": 4, "round_period_ms": 700, "block_batch": 3,
         "block_interval_ms": 300, "unregistered_fraction": 0.25, "t_pending_ms": 400, "detector_multiplier": 1.5,
         "sensor_rate_pps": 40.0, "data_rate_mbps": 0.1, "consensus": {"kind": "pos", "stakes": {"a": 3.0, "b": 1.0}},
         "attack": {"start_ms": 400, "stop_ms": 2500, "sources": 2, "multiplier": 10.0, "ramp_ms": 1000}},
        {"mode": "of-baseline", "node_count": 10, "sim_time_ms": 2550, "seed": 6,
         "attack": {"start_ms": 500, "stop_ms": 2000, "sources": 2, "multiplier": 10.0}},
    ],
)
def test_run_raw_matches_the_two_models_in_sequence(doc):
    cfg = config_from_dict(doc)
    got, want = run_raw(cfg), reference_raw(cfg)
    assert bundle_from_raw(cfg, got).to_json() == bundle_from_raw(cfg, want).to_json()
    assert bc.export_ledger(got.ledger) == bc.export_ledger(want.ledger)
    assert _flow_tables_json(got) == _flow_tables_json(want)


@pytest.mark.parametrize(
    "knobs",
    [{"block_batch": 1}, {"block_batch": 8}, {"unregistered_fraction": 1.0}],  # seen committed, queued, parked
)
@pytest.mark.parametrize("through", [[0, 4, 8], [0, 8]])  # in a later window, or twice in one window
def test_a_tx_id_seen_twice_in_the_ledger_stage_raises(knobs, through):
    cfg = ScenarioConfig(node_count=5, sim_time_ms=1000, seed=3, **knobs)
    link = run_link(cfg)
    rows = link.delivered[:4]
    assert rows, "the run delivers a packet"
    twice = dataclasses.replace(link, delivered=rows + rows, delivered_through=array("q", through))
    with pytest.raises(DuplicateTransactionError):
        ledger_stage(_run_ledger, cfg, twice)


def test_a_repeat_of_an_expired_packet_raises():
    # A node's seq rises along the log, so a row seen again is refused even
    # after the waiting room let its first copy expire.
    cfg = ScenarioConfig(node_count=5, sim_time_ms=3000, seed=3, unregistered_fraction=1.0, t_pending_ms=1)
    link = run_link(cfg)
    rows = link.delivered[:4]
    through = array("q", [0] + [4] * 10 + [8] * (len(link.delivered_through) - 11))  # again after the 1 s sweep
    twice = dataclasses.replace(link, delivered=rows + rows, delivered_through=through)
    with pytest.raises(DuplicateTransactionError):
        ledger_stage(_run_ledger, cfg, twice)
    once = dataclasses.replace(link, delivered=rows, delivered_through=array("q", [0] + [4] * (len(through) - 1)))
    assert ledger_stage(_run_ledger, cfg, once)[1]["expired_txs"] == 1  # alone, the first copy expires


@pytest.mark.parametrize(
    "sizes, limit, taken",
    [
        ([100, 200, 50], 300.0, [True, True, False]),  # the prefix ends exactly on the limit
        ([200, 150, 100, 60], 300.0, [True, False, True, False]),  # a miss, then a smaller one fits exactly
        ([200, 150, 60, 40], 300.0, [True, False, True, True]),  # two late fits, the second exactly
        ([300, 400, 500], 1200.000001, [True, True, True]),  # uncongested: everything fits
        ([], 10.0, []),
        ([11], 10.999999, [False]),
    ],
)
def test_fill_budget_edges(sizes, limit, taken):
    assert fill_budget(np.array(sizes, dtype=np.int64), limit).tolist() == taken


def test_uncongested_windows_deliver_everything_offered():
    link = run_link(config_from_dict({"mode": "of-baseline", "node_count": 12, "sim_time_ms": 3050, "seed": 2}))
    assert link.counters["benign_delivered"] == link.counters["benign_generated"] > 0
    assert link.benign_bytes_delivered == link.benign_bytes_generated


# --- traffic generation ------------------------------------------------------


def test_traffic_deterministic_and_sorted():
    nodes = generate_topology(5, 500, seed=1).nodes
    a = generate_traffic(nodes, 10.0, np.random.default_rng([1, 1]), 2000)
    b = generate_traffic(nodes, 10.0, np.random.default_rng([1, 1]), 2000)
    assert len(a) == len(b) == 3
    for x, y in zip(a, b):
        assert x.dtype == y.dtype == np.int64
        assert np.array_equal(x, y)
    t, nid, size = a
    assert len(t) == len(nid) == len(size) > 0
    assert np.all(t[:-1] <= t[1:])


def test_traffic_breaks_time_ties_by_node_then_draw_order():
    # 20 000 pps over 20 ms: about 20 arrivals per node per ms, so most share
    # their ms with others of their own node and of other nodes.
    nodes = generate_topology(6, 500, seed=2).nodes
    got = generate_traffic(nodes, 20_000.0, np.random.default_rng([5, 1]), 20, (1, 10**6))
    rng = np.random.default_rng([5, 1])  # the same draws, node by node
    drawn = []
    for node in nodes:
        count = int(rng.poisson(20_000.0 * 0.02))
        t = rng.uniform(0, 20, count).astype(np.int64)
        drawn.append((t, np.full(count, node.id), rng.integers(1, 10**6 + 1, count)))
    t, nid, size = (np.concatenate(column) for column in zip(*drawn))
    order = np.lexsort((np.arange(len(t)), nid, t))
    for a, b in zip(got, (t[order], nid[order], size[order])):
        assert np.array_equal(a, b)
    assert len(np.unique(t * 10 + nid)) < len(t)  # ties within a node
    assert len(np.unique(t)) < len(np.unique(t * 10 + nid))  # and across nodes


def test_traffic_over_no_nodes_emits_nothing():
    t, nid, size = generate_traffic([], 10.0, np.random.default_rng([1, 1]), 2000)
    assert len(t) == len(nid) == len(size) == 0
    assert t.dtype == nid.dtype == size.dtype == np.int64


def test_traffic_doubling_rate_doubles_volume():
    nodes = generate_topology(20, 500, seed=2).nodes
    a, _, _ = generate_traffic(nodes, 10.0, np.random.default_rng([2, 1]), 50_000)
    b, _, _ = generate_traffic(nodes, 20.0, np.random.default_rng([2, 1]), 50_000)
    assert abs(len(b) / len(a) - 2.0) < 0.1


def test_traffic_sizes_within_configured_band():
    nodes = generate_topology(10, 500, seed=3).nodes
    _, _, sizes = generate_traffic(nodes, 10.0, np.random.default_rng([3, 1]), 10_000, (128, 1024))
    assert len(sizes)
    assert np.all((128 <= sizes) & (sizes <= 1024))


def test_traffic_rejects_non_positive_rate():
    nodes = generate_topology(2, 500, seed=1).nodes
    with pytest.raises(ValueError):
        generate_traffic(nodes, 0.0, np.random.default_rng(1), 1000)


# --- attack injection ---------------------------------------------------------


def test_inject_attack_none_gives_no_events():
    sent = inject_attack(None, 10.0, 10_000)
    assert sent.dtype == np.int64 and len(sent) == 101 and not sent.any()


def test_inject_attack_malformed_window():
    with pytest.raises(ConfigError):
        inject_attack(AttackConfig(start_ms=500, stop_ms=2000), 10.0, 1000)


def test_inject_attack_batches_cover_window():
    """One count per window, indexed like the window ends, that every attacker
    sends; each case maps window -> count, 0 elsewhere."""
    cases = [
        # batches at 500..800 ms
        (AttackConfig(start_ms=500, stop_ms=900, sources=2), 10.0, 2000, dict.fromkeys(range(6, 10), 10)),
        # off the grid: batches at 333..833 ms, each in window t // 100 + 1, on a horizon off the grid too
        (AttackConfig(start_ms=333, stop_ms=900, sources=2), 10.0, 2050, dict.fromkeys(range(4, 10), 10)),
        # a ramp from 1x to 10x over 500 ms: 1, 2.8, 4.6, 6.4 and 8.2 packets, rounded
        (AttackConfig(start_ms=0, stop_ms=800, ramp_ms=500), 10.0, 1000, {1: 1, 2: 3, 3: 5, 4: 6, 5: 8, 6: 10, 7: 10, 8: 10}),
        # 0.3 to 0.6 packets per window: the first three round to 0
        (AttackConfig(start_ms=0, stop_ms=600, multiplier=2.0, ramp_ms=400), 3.0, 600, {4: 1, 5: 1, 6: 1}),
    ]
    for attack, rate_pps, sim_ms, sent in cases:
        counts = inject_attack(attack, rate_pps, sim_ms)
        assert counts.dtype == np.int64
        assert len(counts) == len([*range(0, sim_ms, 100), sim_ms])
        assert counts.tolist() == [sent.get(w, 0) for w in range(len(counts))], attack


def test_attacker_at_normal_rate_never_flagged():
    cfg = small_attack_cfg()
    cfg = cfg.with_(attack=AttackConfig(start_ms=500, stop_ms=2500, sources=2, multiplier=1.0))
    raw = run_raw(cfg)
    assert raw.block_times == {}


def test_attackers_at_10x_flagged_by_700ms():
    raw = run_raw(small_attack_cfg())
    assert set(raw.block_times) == {"atk-0", "atk-1"}
    assert all(t <= 700 for t in raw.block_times.values())


def test_post_block_silence():
    """A blocked attacker delivers nothing: cut the flood off at the last
    block, and the full run delivers the same attack packets and counts every
    extra one as blocked."""
    cfg = small_attack_cfg()
    raw = run_raw(cfg)
    cut = run_raw(cfg.with_(attack=dataclasses.replace(cfg.attack, stop_ms=max(raw.block_times.values()))))
    extra = raw.counters["attack_generated"] - cut.counters["attack_generated"]
    assert extra > 0 and cut.block_times == raw.block_times
    assert raw.counters["attack_delivered"] == cut.counters["attack_delivered"] > 0
    assert raw.counters["blocked"] - cut.counters["blocked"] == extra


def test_baseline_mode_never_blocks():
    raw = run_raw(small_attack_cfg(mode="of-baseline"))
    assert raw.block_times == {}
    assert raw.counters["blocked"] == 0


# --- scenario runs ------------------------------------------------------------


def run_bundle(cfg):
    return bundle_from_raw(cfg, run_raw(cfg))


def test_bundle_deterministic_serialization():
    a = run_bundle(SMALL)
    b = run_bundle(SMALL)
    assert a.to_json() == b.to_json()


def test_packet_conservation():
    for cfg in (SMALL, small_attack_cfg(), small_attack_cfg(mode="of-baseline")):
        c = run_bundle(cfg).counters
        assert c["generated"] == c["delivered"] + c["dropped"]


def test_ledger_consistency_in_distb_mode():
    raw = run_raw(SMALL)
    assert raw.counters["committed_txs"] == raw.counters["benign_delivered"]
    assert bc.validate_chain(raw.ledger) == (True, None)
    assert raw.counters["queued_at_end"] == 0


def test_baseline_has_no_chain():
    raw = run_raw(SMALL.with_(mode="of-baseline"))
    assert raw.ledger.blocks == []
    assert raw.counters["committed_txs"] == 0


def test_no_attack_modes_equal_bandwidth():
    d = run_bundle(SMALL.with_(mode="distb"))
    b = run_bundle(SMALL.with_(mode="of-baseline"))
    rd, rb = d.raw["benign_mbps"], b.raw["benign_mbps"]
    assert abs(rd - rb) / rb <= 0.05


def test_benign_dominance_under_attack():
    # fixed acceptance seed set; the flood saturates the link (12k pps vs
    # 10 Mbps), so mitigation must strictly win, not just tie
    for seed in range(1, 11):
        attack = AttackConfig(start_ms=500, stop_ms=2500, sources=3, multiplier=400.0)
        base = ScenarioConfig(node_count=10, sim_time_ms=4000, seed=seed, attack=attack)
        d = run_raw(base.with_(mode="distb"))
        b = run_raw(base.with_(mode="of-baseline"))
        assert d.benign_bytes_delivered > b.benign_bytes_delivered, seed


def test_exhausted_network_sets_termination_flag():
    cfg = ScenarioConfig(
        node_count=5,
        sim_time_ms=3000,
        seed=7,
        energy_range_j=(0.5, 0.8),
        head_cost_j=0.5,
        tx_cost_j=0.3,
        round_period_ms=200,
    )
    bundle = run_bundle(cfg)
    assert bundle.terminated_early


def test_unregistered_sensors_park_and_expire():
    cfg = SMALL.with_(unregistered_fraction=0.3, t_pending_ms=500, sim_time_ms=4000)
    raw = run_raw(cfg)
    assert raw.counters["parked_txs"] > 0
    assert raw.counters["expired_txs"] > 0
    assert raw.counters["committed_txs"] < raw.counters["benign_delivered"]
    assert bc.validate_chain(raw.ledger) == (True, None)
    assert_ledger_books_close(raw)


def test_pos_consensus_scenario():
    cfg = SMALL.with_(consensus=ConsensusConfig(kind="pos", stakes=(("a", 3.0), ("b", 1.0))))
    raw = run_raw(cfg)
    assert bc.validate_chain(raw.ledger) == (True, None)
    sealers = {blk.sealer.validator for blk in raw.ledger.blocks}
    assert sealers <= {"a", "b"} and sealers


def test_cpu_series_follows_calibration_smoothing():
    cfg = small_attack_cfg()
    default = run_raw(cfg).cpu_load_samples
    assert default
    assert run_raw(cfg.with_(calibration=load_default())).cpu_load_samples == default
    doc = load_default().to_dict()
    doc["cpu"]["smoothing"] = 0.9
    assert run_raw(cfg.with_(calibration=Calibration.from_dict(doc))).cpu_load_samples != default


def test_response_rows_use_the_given_file_sizes():
    calib = load_default()
    rows = measure_response_time(SMALL, file_sizes=(2.0, 32.0))
    assert rows == [(s, calib.response_ms("distb", s), calib.response_ms("core", s)) for s in (2.0, 32.0)]
    for bad in (0.0, -1.0):
        with pytest.raises(ConfigError, match=f"file size must be positive \\(got {bad}\\)"):
            measure_response_time(SMALL, file_sizes=(2.0, bad))


def test_bandwidth_rows_read_the_calibration_at_their_own_rate():
    # At 7.3 pps the battery's multiplier puts the 13 and 24 kpps runs one ulp
    # below their row's rate; the row still reads the calibration at its label.
    cfg = ScenarioConfig(
        seed=4, node_count=60, sensor_rate_pps=7.3,
        consensus=ConsensusConfig(kind="pos", stakes=(("a", 3.0), ("b", 1.0))),
    )
    calib = cfg.resolved_calibration()
    rows = measure_bandwidth_under_attack(cfg, rates=(13.0, 24.0))
    assert [r[0] for r in rows] == [13.0, 24.0]
    for rate, *cells in rows:
        for mode, cell in zip(MODES, cells):
            run_cfg = _bandwidth_cfg(cfg, rate, mode)
            raw = link_figures(run_cfg, run_link(run_cfg))["attack_window_benign_mbps"]
            assert cell == calib.scaled("bandwidth", mode, rate, raw), (rate, mode)


def test_default_config_completes_under_60s():
    cfg = ScenarioConfig()  # 50 nodes, 500 s horizon, 10 Mbps
    t0 = time.perf_counter()
    bundle = run_bundle(cfg)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"default scenario took {elapsed:.1f}s"
    c = bundle.counters
    assert c["generated"] == c["delivered"] + c["dropped"]
    assert c["committed_txs"] > 0
