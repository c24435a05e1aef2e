import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    SlidingWindow,
    block_flow,
    detect_flood,
    forward,
    install_rule,
    match_packet,
)
from distb.simulator import bundle_from_raw, run_raw


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


def test_detect_flood_zero_traffic():
    assert detect_flood(SlidingWindow(), threshold=10, now=1000) == []


def test_detect_flood_half_threshold_silent():
    window = SlidingWindow(window_ms=200)
    for src in ("a", "b", "c"):
        window.record(src, at=900, count=5)
    assert detect_flood(window, threshold=10, now=1000) == []


def test_detect_flood_flags_10x_within_one_window():
    # normal rate 10 pps -> theta = 5 * 10 * 0.2 = 10; attacker at 100 pps
    window = SlidingWindow(window_ms=200)
    window.record("atk", at=100, count=10)
    window.record("atk", at=200, count=10)
    window.record("s-1", at=200, count=2)
    assert detect_flood(window, threshold=10, now=200) == ["atk"]


def test_detect_flood_at_threshold_not_flagged():
    window = SlidingWindow(window_ms=200)
    window.record("a", at=100, count=10)
    assert detect_flood(window, threshold=10, now=200) == []
    window.record("a", at=150, count=1)
    assert detect_flood(window, threshold=10, now=200) == ["a"]


def test_detect_flood_window_slides():
    window = SlidingWindow(window_ms=200)
    window.record("a", at=100, count=50)
    assert detect_flood(window, threshold=10, now=200) == ["a"]
    # counts fall out of the window once it slides past them
    assert detect_flood(window, threshold=10, now=400) == []


def test_detect_completeness_and_soundness_random():
    # The flagged sources come back in sorted order, whatever the record order.
    rng = np.random.default_rng(7)
    for _ in range(50):
        theta = float(rng.integers(5, 20))
        window = SlidingWindow(window_ms=200)
        expected = []
        for s in rng.permutation(6).tolist():
            src = f"s-{s}"
            count = int(rng.integers(0, 2 * int(theta) + 2))
            if count:
                window.record(src, at=500, count=count)
            if count > theta:
                expected.append(src)
        assert detect_flood(window, threshold=theta, now=500) == sorted(expected)


class RecountWindow:
    """The detector as it was before running totals: every detect recounts
    each source's bucket of (at, count) entries. Kept as the oracle."""

    def __init__(self, window_ms):
        self.window_ms = window_ms
        self.buckets = {}

    def record(self, src, at, count):
        self.buckets.setdefault(src, []).append((at, count))
        lo = at - 4 * self.window_ms
        entries = self.buckets[src]
        if entries and entries[0][0] < lo:
            self.buckets[src] = [(t, c) for t, c in entries if t >= lo]

    def count(self, src, now):
        lo = now - self.window_ms
        return sum(c for t, c in self.buckets.get(src, []) if lo < t <= now)

    def detect(self, threshold, now):
        return [src for src in sorted(self.buckets) if self.count(src, now) > threshold]


_window_ops = st.lists(
    st.one_of(
        st.tuples(st.just("record"), st.sampled_from(["a", "b", "c", "d"]), st.integers(0, 150), st.integers(0, 20)),
        st.tuples(
            st.just("detect"),
            st.floats(min_value=0, max_value=40, allow_nan=False),
            st.integers(0, 300),
            st.integers(0, 300),
        ),
    ),
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(window_ms=st.integers(1, 1000).filter(lambda w: w % 100), ops=_window_ops)
def test_running_totals_match_recount(window_ms, ops):
    # Record times never decrease, nor do detect times, and a detect never
    # comes before the latest record; a record may fall behind the latest
    # detect. Steps of 0 repeat timestamps.
    window, oracle = SlidingWindow(window_ms=window_ms), RecountWindow(window_ms)
    last_record = last_detect = 0
    for op in ops:
        if op[0] == "record":
            _, src, step, count = op
            last_record += step
            window.record(src, at=last_record, count=count)
            oracle.record(src, last_record, count)
        else:
            _, theta, step_record, step_detect = op
            now = max(last_record + step_record, last_detect + step_detect)
            last_detect = now
            assert detect_flood(window, threshold=theta, now=now) == oracle.detect(theta, now)
            # a source leaves the totals once none of its arrivals is queued
            assert set(window.totals) <= {src for _, src, _ in window.queue}


def test_decreasing_times_raise():
    window = SlidingWindow(window_ms=200)
    window.record("a", at=300, count=1)
    with pytest.raises(ValueError, match="before the latest record"):
        window.record("a", at=299, count=1)
    with pytest.raises(ValueError, match="before the latest record"):
        detect_flood(window, threshold=0, now=299)
    assert detect_flood(window, threshold=0, now=400) == ["a"]
    with pytest.raises(ValueError, match="before the latest detect"):
        detect_flood(window, threshold=0, now=399)
    window.record("b", at=350, count=1)  # behind the latest detect, after the latest record
    assert detect_flood(window, threshold=0, now=400) == ["a", "b"]


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
