import json

import pytest

from distb.cli import _flow_tables_json
from distb.config import AttackConfig, ScenarioConfig
from distb.sdn import (
    BLOCK_PRIORITY,
    DROP,
    FORWARD_TO_CONTROLLER,
    FlowTable,
    block_flow,
    flow_table_to_dict,
    match_packet,
)
from distb import simulator
from distb.simulator import bundle_from_raw, run_link, run_raw


def test_empty_table_defaults_to_controller():
    assert match_packet(FlowTable(), "s-1") == FORWARD_TO_CONTROLLER


def test_drop_rule_matches_src():
    table = FlowTable(rules={"x": 0})
    assert match_packet(table, "x") == DROP
    assert match_packet(table, "y") == FORWARD_TO_CONTROLLER


@pytest.mark.parametrize(
    "multiplier,blocked_at",
    [
        (4.0, None),  # 8 packets in any 200 ms; three 100 ms windows would hold 12
        (5.0, None),  # 10 packets in 200 ms: at theta, not over it
        (5.5, 1200),  # 6 + 6 at the second window end
        (11.0, 1100),  # over theta in the first window
    ],
)
def test_detector_blocks_a_source_over_theta_in_its_window(multiplier, blocked_at):
    # theta = 5 x 10 pps x 0.2 s = 10; the attacker sends round(multiplier)
    # packets per 100 ms window from t = 1000 ms on.
    attack = AttackConfig(start_ms=1000, stop_ms=2000, sources=1, multiplier=multiplier)
    link = run_link(ScenarioConfig(node_count=3, sim_time_ms=3000, seed=1, attack=attack))
    assert link.block_times.get("atk-0") == blocked_at


def test_block_flow_installs_drop_and_silences():
    table = FlowTable()
    assert block_flow(table, "atk-1", now=300)
    assert match_packet(table, "atk-1") == DROP
    assert flow_table_to_dict(table) == {
        "default_action": ["controller"],
        "rules": [
            {"match": {"src": "atk-1", "dst": None}, "action": ["drop"], "priority": BLOCK_PRIORITY, "installed_at": 300}
        ],
    }


def test_install_duplicate_is_noop():
    # The first rule stands: installing a drop rule for a source the table
    # already drops, even at another time, reports no change.
    table = FlowTable()
    assert block_flow(table, "x", now=3)
    assert not block_flow(table, "x", now=9)
    assert flow_table_to_dict(table)["rules"] == [
        {"match": {"src": "x", "dst": None}, "action": ["drop"], "priority": BLOCK_PRIORITY, "installed_at": 3}
    ]


def test_block_flow_idempotent():
    # A second block of the same source, at any time, leaves the table as it
    # was, in block order.
    table = FlowTable()
    assert block_flow(table, "atk-1", now=300)
    assert block_flow(table, "atk-2", now=300)
    rules_before = dict(table.rules)
    assert not block_flow(table, "atk-1", now=999)
    assert not block_flow(table, "atk-1", now=300)
    assert table.rules == rules_before
    assert list(table.rules) == ["atk-1", "atk-2"]


def test_blocked_sources_have_drop_rule_invariant():
    # Engine level: the drop table in flow_tables.json, which every gateway
    # enforces, holds exactly one drop rule per blocked source, in block order,
    # installed at the block time; rules installed in the same window go in
    # ascending src order.
    # The low detector multiplier also blocks benign sensors, later and one at
    # a time, so the blocks fall at several times. It also lets one window of
    # flood cross the threshold, so the detector flags each attacker again one
    # window after its block, which must neither move the block nor add a rule.
    attack = AttackConfig(start_ms=500, stop_ms=2500, sources=4, multiplier=10.0)
    cfg = ScenarioConfig(
        node_count=10, sim_time_ms=4000, seed=7, attack=attack, detector_multiplier=2.5
    )
    raw = run_raw(cfg)
    assert sorted(bundle_from_raw(cfg, raw).raw["block_times_ms"].items()) == sorted(raw.block_times.items())
    assert len(set(raw.block_times.values())) > 1  # blocks at more than one time
    expected = [
        {"match": {"src": src, "dst": None}, "action": ["drop"], "priority": BLOCK_PRIORITY, "installed_at": t}
        for src, t in raw.block_times.items()
    ]
    blocks = [(t, src) for src, t in raw.block_times.items()]
    assert blocks == sorted(blocks)
    assert len(set(raw.block_times.values())) < len(blocks)  # some window blocks several sources
    doc = json.loads(_flow_tables_json(raw))
    assert doc == {"drop_table": {"default_action": ["controller"], "rules": expected}}


def test_blocking_reads_each_blocked_source_once(monkeypatch):
    # A detector threshold of the smallest float blocks nearly every sensor,
    # over three windows. The engine reads each block back from the drop
    # table once, for the source just blocked, not for every source, so
    # blocking k sources costs k lookups however many sources the run has.
    calls = []

    def counting_match(table, src):
        calls.append(src)
        return match_packet(table, src)

    monkeypatch.setattr(simulator, "match_packet", counting_match)
    link = run_link(ScenarioConfig(node_count=2000, sim_time_ms=300, detector_multiplier=5e-324))
    assert len(link.block_times) > 1000
    assert len(calls) == len(link.block_times)
    assert sorted(calls) == sorted(link.block_times)
    # Five attackers flood all 300 windows, so they stay over the threshold in
    # every detector pass after the one that blocks them: still one read each.
    calls.clear()
    attack = AttackConfig(start_ms=0, stop_ms=30_000, sources=5, multiplier=10.0)
    link = run_link(ScenarioConfig(node_count=20, sim_time_ms=30_000, attack=attack))
    assert {f"atk-{i}" for i in range(5)} <= set(link.block_times)
    assert sorted(calls) == sorted(link.block_times)
