import json

import numpy as np
import pytest

from distb.cli import _flow_tables_json
from distb.config import AttackConfig, ScenarioConfig
from distb.sdn import (
    BLOCK_PRIORITY,
    DROP,
    FORWARD_TO_CONTROLLER,
    FlowRule,
    FlowTable,
    Match,
    Packet,
    block_flow,
    forward,
    install_rule,
    match_packet,
)
from distb.simulator import bundle_from_raw, run_link, run_raw


def pkt(src="s-1", dst="bs"):
    return Packet(src=src, dst=dst)


def test_empty_table_defaults_to_controller():
    assert match_packet(FlowTable(), pkt()) == FORWARD_TO_CONTROLLER


def test_drop_rule_matches_src():
    table = FlowTable(rules=[FlowRule(Match(src="x"), DROP, priority=1)])
    assert match_packet(table, pkt(src="x")) == DROP
    assert match_packet(table, pkt(src="y")) == FORWARD_TO_CONTROLLER


def test_priority_order_wins():
    table = FlowTable(
        rules=[
            FlowRule(Match(src="x"), forward("gw-1"), priority=5),
            FlowRule(Match(src="x"), DROP, priority=10),
        ]
    )
    assert match_packet(table, pkt(src="x")) == DROP


def test_tie_breaks_installed_at_then_position():
    r_old = FlowRule(Match(src="x"), forward("a"), priority=7, installed_at=10)
    r_new = FlowRule(Match(src="x"), forward("b"), priority=7, installed_at=20)
    assert match_packet(FlowTable(rules=[r_new, r_old]), pkt(src="x")) == forward("a")
    r0 = FlowRule(Match(src="x"), forward("c"), priority=7, installed_at=10)
    assert match_packet(FlowTable(rules=[r0, r_old]), pkt(src="x")) == forward("c")


def test_install_takes_effect_immediately():
    table = FlowTable()
    install_rule(table, FlowRule(Match(src="x"), DROP, priority=3))
    assert match_packet(table, pkt(src="x")) == DROP


def test_install_duplicate_is_noop():
    table = FlowTable()
    rule = FlowRule(Match(src="x"), DROP, priority=3)
    assert install_rule(table, rule)
    assert not install_rule(table, FlowRule(Match(src="x"), DROP, priority=3, installed_at=9))
    assert table.rules == [rule]


def oracle_match(table, p):
    # brute-force restatement of the (priority, installed_at, position) chain
    candidates = [
        (-r.priority, r.installed_at, i, r.action)
        for i, r in enumerate(table.rules)
        if r.match.covers(p)
    ]
    if not candidates:
        return table.default_action
    return min(candidates)[3]


def test_hundred_rules_lookup_matches_oracle():
    rng = np.random.default_rng(101)
    srcs = [f"s-{i}" for i in range(8)] + [None]
    table = FlowTable()
    for i in range(100):
        rule = FlowRule(
            match=Match(src=srcs[rng.integers(len(srcs))], dst=None if rng.random() < 0.7 else "bs"),
            action=DROP if rng.random() < 0.5 else forward(f"gw-{rng.integers(3)}"),
            priority=int(rng.integers(0, 10)),
            installed_at=int(rng.integers(0, 50)),
        )
        table.rules.append(rule)
    for i in range(300):
        p = pkt(src=f"s-{rng.integers(10)}", dst=["bs", "gw-0"][rng.integers(2)])
        assert match_packet(table, p) == oracle_match(table, p)


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
    assert match_packet(table, pkt(src="atk-1")) == DROP
    assert table.rules == [FlowRule(Match(src="atk-1"), DROP, priority=BLOCK_PRIORITY, installed_at=300)]


def test_block_flow_idempotent():
    table = FlowTable()
    block_flow(table, "atk-1", now=300)
    rules_before = list(table.rules)
    assert not block_flow(table, "atk-1", now=999)
    assert table.rules == rules_before


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
