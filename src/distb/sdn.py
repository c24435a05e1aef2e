"""Match-action flow tables and source blocking.

Actions are plain tuples: ("forward", next_hop), ("drop",), and the table
default ("controller",) meaning punt to the control plane. Lookup picks the
highest-priority matching rule, breaking ties by earliest installed_at and
then by rule position, so it is fully deterministic.

Blocking installs one maximal-priority drop rule for a source into the drop
table, the one table every gateway enforces. Flood detection, which decides
what to block, lives in the engine (`simulator.run_link`) as arithmetic over
per-window packet counts.
"""

from __future__ import annotations

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
