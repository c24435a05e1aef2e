"""Match-action flow tables, flood detection, and source blocking.

Actions are plain tuples: ("forward", next_hop), ("drop",), and the table
default ("controller",) meaning punt to the control plane. Lookup picks the
highest-priority matching rule, breaking ties by earliest installed_at and
then by rule position, so it is fully deterministic.

Flood detection is one sliding-window rate check: a source whose packet
count over the last `window_ms` exceeds the threshold is a suspect.
Blocking installs one maximal-priority drop rule for the source into the drop
table, the one table every gateway enforces.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

FORWARD_TO_CONTROLLER = ("controller",)
DROP = ("drop",)
BLOCK_PRIORITY = 2**31 - 1


def forward(next_hop: str) -> tuple:
    return ("forward", next_hop)


@dataclass(frozen=True, slots=True)
class Packet:
    src: str
    dst: str


@dataclass(frozen=True, slots=True)
class Match:
    """Exact-match predicate; None fields are wildcards."""

    src: str | None = None
    dst: str | None = None

    def covers(self, pkt: Packet) -> bool:
        return (self.src is None or self.src == pkt.src) and (self.dst is None or self.dst == pkt.dst)


@dataclass(frozen=True, slots=True)
class FlowRule:
    match: Match
    action: tuple
    priority: int
    installed_at: int = 0


@dataclass
class FlowTable:
    rules: list[FlowRule] = field(default_factory=list)
    default_action: tuple = FORWARD_TO_CONTROLLER


@dataclass
class SlidingWindow:
    """Per-source arrival totals over a sliding window of `window_ms`.

    `record` adds an arrival to its source's running total and queues it;
    `detect_flood` takes queued arrivals out of the totals once the window
    has slid past them, so no source's arrivals are ever recounted. Times
    must not decrease: record times among records, detect times among
    detects, and a detect may not come before the latest record. A
    decreasing time raises ValueError.
    """

    window_ms: int = 200
    totals: dict[str, int] = field(default_factory=dict)
    queue: deque[tuple[int, str, int]] = field(default_factory=deque)  # (at, src, count), oldest first
    last_record: int | None = None
    last_detect: int | None = None

    def record(self, src: str, at: int, count: int = 1) -> None:
        if self.last_record is not None and at < self.last_record:
            raise ValueError(f"record at {at} ms comes before the latest record at {self.last_record} ms")
        self.last_record = at
        self.queue.append((at, src, count))
        self.totals[src] = self.totals.get(src, 0) + count


def match_packet(table: FlowTable, pkt: Packet) -> tuple:
    """Action of the best matching rule, or the table default.

    Best = max priority; ties go to the earliest installed_at, then to the
    earliest position in the rule list.
    """
    best = None
    best_key = None
    for pos, rule in enumerate(table.rules):
        if not rule.match.covers(pkt):
            continue
        key = (-rule.priority, rule.installed_at, pos)
        if best_key is None or key < best_key:
            best, best_key = rule, key
    return best.action if best is not None else table.default_action


def install_rule(table: FlowTable, rule: FlowRule) -> bool:
    """Append a rule to a table unless an exact duplicate (same match, action,
    priority) is already present. Returns True when the table changed."""
    for existing in table.rules:
        if (
            existing.match == rule.match
            and existing.action == rule.action
            and existing.priority == rule.priority
        ):
            return False
    table.rules.append(rule)
    return True


def detect_flood(window: SlidingWindow, threshold: float, now: int) -> list[str]:
    """Sources whose count over (now - window_ms, now] exceeds the threshold,
    in sorted order.

    Not a pure query: it first drops the arrivals at or before
    now - window_ms from the window's totals, and a source whose total
    reaches 0 leaves them."""
    for prev, what in ((window.last_detect, "detect"), (window.last_record, "record")):
        if prev is not None and now < prev:
            raise ValueError(f"detect at {now} ms comes before the latest {what} at {prev} ms")
    window.last_detect = now
    queue, totals = window.queue, window.totals
    lo = now - window.window_ms
    while queue and queue[0][0] <= lo:
        _, src, count = queue.popleft()
        left = totals.pop(src, 0) - count
        if left:
            totals[src] = left
    return sorted(src for src, total in totals.items() if total > threshold)


def block_flow(table: FlowTable, src: str, now: int) -> bool:
    """Block a source: install a maximal-priority drop rule into the table.

    A table that already drops the source keeps its original rule. Returns
    True when the table changed."""
    rule = FlowRule(match=Match(src=src), action=DROP, priority=BLOCK_PRIORITY, installed_at=now)
    return install_rule(table, rule)


def flow_table_to_dict(table: FlowTable) -> dict:
    return {
        "default_action": list(table.default_action),
        "rules": [
            {
                "match": {"src": r.match.src, "dst": r.match.dst},
                "action": list(r.action),
                "priority": r.priority,
                "installed_at": r.installed_at,
            }
            for r in table.rules
        ],
    }
