"""Per-layer timing spans, recorded from outside the simulator.

`Tracer.installed()` replaces each layer's public functions with timing
wrappers at the module attributes the engine looks them up by (for example
`distb.simulator.match_packet`, which the engine calls as a global, or
`distb.blockchain.mine_block`, which it calls as `bc.mine_block`) and puts the
originals back on exit. No file of the simulator changes.

Each call opens a span whose parent is the innermost span still open, so a
span's self time is its duration minus the durations of its child spans.
Spans are folded into per-function totals as they close, keeping memory
bounded on runs with millions of calls; the parent links survive as
per-edge totals. A few counts are taken at the same boundaries from the
calls' arguments and results (hashes per seal, rules scanned per lookup).
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from contextlib import contextmanager

ROOT = "<root>"

# Enough calls for a percentile: ten samples beyond it.
P50_MIN_CALLS = 20
P99_MIN_CALLS = 1000


def _count_run(counts, args, raw):
    cfg = args[0]
    attackers = {f"atk-{i}" for i in range(cfg.attack.sources)} if cfg.attack else set()
    counts["simulator.events"] += getattr(raw, "events_processed", 0)
    counts["simulator.packets"] += raw.counters["generated"]
    counts["simulator.delivered"] += raw.counters["delivered"]
    counts["sdn.false_blocks"] += sum(1 for src in raw.block_times if src not in attackers)


def _count_pow(counts, args, block):
    counts["blockchain.blocks"] += 1
    counts["blockchain.hashes"] += block.nonce + 1


def _count_pos(counts, args, block):
    counts["blockchain.blocks"] += 1
    counts["blockchain.hashes"] += 1


def _count_lookup(counts, args, action):
    counts["sdn.match_packet.rules_scanned"] += len(args[0].rules)


def _count_export(counts, args, text):
    counts["blockchain.ledger_bytes"] += len(text.encode())


# (module, attribute path at the lookup site, span name, count hook)
SITES = (
    ("distb.simulator", "measure_throughput", "simulator.measure_throughput", None),
    ("distb.simulator", "run_scenario", "simulator.run_scenario", None),
    ("distb.simulator", "run_raw", "simulator.run_raw", _count_run),
    ("distb.simulator", "bundle_from_raw", "simulator.bundle_from_raw", None),
    ("distb.simulator", "generate_traffic", "simulator.generate_traffic", None),
    ("distb.simulator", "inject_attack", "simulator.inject_attack", None),
    ("distb.simulator", "generate_topology", "topology.generate_topology", None),
    ("distb.simulator", "run_round", "clustering.run_round", None),
    ("distb.simulator", "match_packet", "sdn.match_packet", _count_lookup),
    ("distb.simulator", "detect_flood", "sdn.detect_flood", None),
    ("distb.simulator", "block_flow", "sdn.block_flow", None),
    ("distb.simulator", "install_rule", "sdn.install_rule", None),
    ("distb.simulator", "load_reference_tables", "calibration.load_reference_tables", None),
    ("distb.config", "load_default", "calibration.load_default", None),
    ("distb.sdn", "SlidingWindow.record", "sdn.window_record", None),
    ("distb.sdn", "SlidingWindow.count", "sdn.window_count", None),
    ("distb.clustering", "refresh_dist_bs", "topology.refresh_dist_bs", None),
    ("distb.clustering", "sort_nodes", "clustering.sort_nodes", None),
    ("distb.clustering", "select_cluster_heads", "clustering.select_cluster_heads", None),
    ("distb.clustering", "distance", "clustering.distance", None),
    ("distb.topology", "distance", "topology.distance", None),
    ("distb.blockchain", "make_transaction", "blockchain.make_transaction", None),
    ("distb.blockchain", "verify_transaction", "blockchain.verify_transaction", None),
    ("distb.blockchain", "admit_or_park", "blockchain.admit_or_park", None),
    ("distb.blockchain", "mine_block", "blockchain.mine_block", _count_pow),
    ("distb.blockchain", "seal_block_pos", "blockchain.seal_block_pos", _count_pos),
    ("distb.blockchain", "select_validator", "blockchain.select_validator", None),
    ("distb.blockchain", "append_block", "blockchain.append_block", None),
    ("distb.blockchain", "commit_to_storage", "blockchain.commit_to_storage", None),
    ("distb.blockchain", "BlockStore.put", "blockchain.store_put", None),
    ("distb.blockchain", "expire_pending", "blockchain.expire_pending", None),
    ("distb.blockchain", "export_ledger", "blockchain.export_ledger", _count_export),
)
SPAN_NAMES = tuple(name for _, _, name, _ in SITES)
COUNT_NAMES = (
    "blockchain.blocks",
    "blockchain.hashes",
    "blockchain.ledger_bytes",
    "sdn.match_packet.rules_scanned",
    "sdn.false_blocks",
    "simulator.events",
    "simulator.packets",
    "simulator.delivered",
)


def _percentile_us(durations: array, q: float, min_calls: int) -> float:
    """Nearest-rank percentile in microseconds; 0.0 when too few calls to tell."""
    if len(durations) < min_calls:
        return 0.0
    ordered = sorted(durations)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] * 1e6


class Tracer:
    """Span recorder for one process; install it around the traced calls only."""

    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}  # calls, inclusive s, self s
        self.durations = {name: array("d") for name in SPAN_NAMES}
        self.callers = {name: {} for name in SPAN_NAMES}  # parent span -> [calls, seconds]
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        # The open spans, innermost last: names, and the seconds their children covered.
        self._names = [ROOT]
        self._child_s = [0.0]

    def _wrap(self, name, fn, hook):
        names = self._names
        child_s = self._child_s
        clock = time.perf_counter
        stat = self.stats[name]
        durations = self.durations[name]
        callers = self.callers[name]
        counts = self.counts

        @functools.wraps(fn)
        def span(*args, **kwargs):
            names.append(name)
            child_s.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                names.pop()
                covered = child_s.pop()
                child_s[-1] += dur
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - covered
                durations.append(dur)
                edge = callers.get(names[-1])
                if edge is None:
                    edge = callers[names[-1]] = [0, 0.0]
                edge[0] += 1
                edge[1] += dur
            if hook is not None:
                hook(counts, args, result)
            return result

        return span

    @contextmanager
    def installed(self):
        """Wrap every site for the duration of the block, then restore the originals.

        A site the program no longer has is skipped and records no calls.
        """
        restore = []
        try:
            for module, path, name, hook in SITES:
                owner = importlib.import_module(module)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part, None)
                original = getattr(owner, "__dict__", {}).get(attr)
                if original is None:
                    continue
                setattr(owner, attr, self._wrap(name, original, hook))
                restore.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def summary(self) -> dict:
        """Per-span totals and percentiles, caller edges, and the boundary counts."""
        spans = {
            name: {
                "calls": calls,
                "incl_s": incl_s,
                "self_s": self_s,
                "p50_us": _percentile_us(self.durations[name], 0.50, P50_MIN_CALLS),
                "p99_us": _percentile_us(self.durations[name], 0.99, P99_MIN_CALLS),
            }
            for name, (calls, incl_s, self_s) in self.stats.items()
        }
        edges = {
            f"{parent}>{name}": {"calls": n, "incl_s": sec}
            for name, callers in self.callers.items()
            for parent, (n, sec) in sorted(callers.items())
        }
        return {"spans": spans, "edges": edges, "counts": dict(self.counts)}
