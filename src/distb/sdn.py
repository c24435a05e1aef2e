"""The drop table and source blocking.

Actions are plain tuples: ("drop",), or ("controller",), meaning punt to the
control plane, for a packet no rule matches. The drop table holds one
maximal-priority drop rule per blocked source and is the one table every
gateway enforces, so a lookup is one probe by source. Flood detection, which
decides what to block, lives in the engine (`simulator.run_link`) as
arithmetic over per-window packet counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

FORWARD_TO_CONTROLLER = ("controller",)
DROP = ("drop",)
BLOCK_PRIORITY = 2**31 - 1


@dataclass
class FlowTable:
    """The drop table: blocked source -> ms at which its drop rule engaged,
    in block order."""

    rules: dict[str, int] = field(default_factory=dict)


def match_packet(table: FlowTable, src: str) -> tuple:
    """Action for a packet from src: DROP if the table blocks src, else punt
    to the controller."""
    return DROP if src in table.rules else FORWARD_TO_CONTROLLER


def block_flow(table: FlowTable, src: str, now: int) -> bool:
    """Block a source: install a maximal-priority drop rule into the table.

    A table that already drops the source keeps its original rule. Returns
    True when the table changed."""
    if src in table.rules:
        return False
    table.rules[src] = now
    return True


def flow_table_to_dict(table: FlowTable) -> dict:
    return {
        "default_action": list(FORWARD_TO_CONTROLLER),
        "rules": [
            {
                "match": {"src": src, "dst": None},
                "action": list(DROP),
                "priority": BLOCK_PRIORITY,
                "installed_at": installed_at,
            }
            for src, installed_at in table.rules.items()
        ],
    }
