"""Deterministic fixed-cadence engine tying the pieces together, in two stages.

One scenario run drives a single logical clock in simulated milliseconds,
cut into 100 ms settlement windows (the last window ends at sim_time_ms and
may be shorter). For each window end t1 the engine's result is that of:

1. running every clustering round due strictly before t1;
2. settling the window and taking the CPU sample, then running the flood
   detector (distb mode only);
3. running a clustering round due exactly at t1;
4. mining the queued transactions if t1 is a multiple of block_interval_ms
   or the horizon;
5. sweeping the waiting room if t1 is a whole second or the horizon.

Nothing in steps 1-3 reads the ledger. They form the link stage
(`run_link`), which logs every delivered sensor packet; `run_raw` then runs
the ledger stage over that log a window at a time, a packet's window being
the one its t falls in. At each t1 it builds the transactions of the
window's registered sensors in one pass into the run's column store
(`blockchain.TxColumns`), whose rows not yet sealed are the queue, seals
its whole `block_batch` blocks, each stamped t1 and each a view of its
rows, and then runs step 4. Nothing registers a sensor mid-run, so step 5
only ages parked packets out, and the stage counts them instead of
building them.
The metric batteries read link figures and run the link stage alone.

Within the link stage, rounds read only the energy, the detector only
packet counts, and neither reads a window's settlement. So `run_link` runs
four passes in sequence, each over the whole run. The first two
(`sensor_pass`) read neither the mode nor the attack; the last two
(`settle_link`) do:

- Rounds fall every round_period_ms from t=0 and need not line up with
  windows. Each charges the energy over the clustering `Geometry` the run
  builds once, and a node it depletes emits nothing from its due time on,
  or from t1 + 1 for a round due at a window end t1 > 0, which runs after
  that window settles. A round that finds no live node ends the run: the
  windows that end at or before its due time settle, and steps 4-5 run at
  the window ends strictly before it.
- One array expression marks each settled arrival alive or not. Sensor
  arrivals are pre-drawn Poisson processes held as three sorted arrays
  (time, node, size); each window takes its slice, found with searchsorted.
- The detector counts each source's alive packets; every attacker sends
  one deterministic count per window, which makes detection latency exact
  arithmetic instead of a coin flip. A source's count never depends on
  another's block, so `first_crossings` finds each source's first crossing
  of theta a pass at a time, and each gets a drop rule at that window end
  in the one drop table all gateways enforce, those of one window in name
  order. A pass takes DETECTOR_PASS_WINDOWS windows, or a detector window
  if longer, so it re-reads no more lookback than its own length.
- Settlement reads per-window arrays off the marks and the drop table: an
  arrival is offered if alive and not after its source's block, and each
  window shares the configured link capacity proportionally between benign
  and unblocked attack bytes. Benign packets take the budget in arrival
  order: a packet that would overrun it is dropped and the next, possibly
  smaller, packet is still tried, a greedy that only congested windows run.
  The delivered packets' log and each payload's sequence number (1 + the
  arrival's rank among its node's alive arrivals, so dropped and blocked
  ones count) are read off the marks.

In distb mode every delivered packet of a registered sensor becomes a
ledger transaction (build -> queue -> mine -> chain append), and every
other one is parked until it ages out; in of-baseline mode both the ledger
stage and the mitigation are disabled.

Raw counters and byte totals come straight from the engine. In distb mode
every delivered sensor packet is accounted for once: benign_delivered =
committed_txs + expired_txs + pending_at_end + queued_at_end. A run's bundle
keeps only what the run measured: its counters and raw figures. The metric
batteries turn raw figures into reference units through the calibration
record (see calibration.py for the envelope * raw/nominal construction), and
`recalibrate` records the same sweeps' raw figures as the nominal rows.

Each run is strictly single-threaded and keeps no state between calls.
Within one `_sweep` call, the runs that differ only in mode and attack (a
throughput pair, or the whole bandwidth sweep) share one sensor pass, and
each settles it on its own; the pass is dropped when the next run's sensor
side differs or the sweep ends.
"""

from __future__ import annotations

import json
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from . import blockchain as bc
from .calibration import Calibration, fit_gas, fit_response, load_reference_tables
from .clustering import Geometry, elect
from .config import MODES, WINDOW_MS, AttackConfig, ScenarioConfig, validate_config
from .errors import ConfigError, DuplicateTransactionError, ExhaustedNetworkError
from .sdn import DROP, FlowTable, block_flow, match_packet
from .topology import generate_topology

CPU_SAMPLE_MS = 200
DETECTOR_PASS_WINDOWS = 100  # windows per flood-detector pass, so its arrays stay small on any horizon
ATTACK_PKT_BYTES = 576  # midpoint of the 128..1024 byte packet band
BS_ID = "bs"

# Battery shapes: the fixed sweep scenarios behind the metric families.
THROUGHPUT_SIM_MS = 10_000
BANDWIDTH_SIM_MS = 20_000
BANDWIDTH_ATTACK_START_MS = 2_000
BANDWIDTH_ATTACK_STOP_MS = 18_000
BANDWIDTH_ATTACK_SOURCES = 5
CPU_BATTERY = dict(
    node_count=20,
    sim_time_ms=3_200,
    attack=AttackConfig(start_ms=500, stop_ms=2_600, sources=3, multiplier=10.0, ramp_ms=2_000),
)


def generate_traffic(n: int, rate_pps: float, rng, horizon_ms: int, size_range=(128, 1024)):
    """Seeded Poisson arrivals per node id 0..n-1: int32 arrays (t_ms, node_id, size_bytes).

    The three arrays are sorted together by time, then node id, then draw order.
    Uses the order-statistics form of a Poisson process (count ~
    Poisson, times ~ sorted uniforms) so the draw is vectorized per node.
    Every value fits int32: validate_config caps the horizon at 1e8 ms, node
    ids below 1e6 and sizes at 65 535 bytes.
    """
    if rate_pps <= 0:
        raise ValueError("rate must be positive")
    horizon_s = horizon_ms / 1000.0
    lo, hi = size_range
    times_all = []
    counts = []
    sizes_all = []
    for _ in range(n):
        count = int(rng.poisson(rate_pps * horizon_s))
        counts.append(count)
        if count == 0:
            continue
        times_all.append(rng.uniform(0, horizon_ms, count))
        sizes_all.append(rng.integers(lo, hi + 1, count))  # a dtype= here would change the draws
    if not times_all:
        empty = np.zeros(0, dtype=np.int32)
        return empty, empty, empty
    # Cast while joining, which truncates the times as astype does, and drop each node's draws at once.
    t = np.concatenate(times_all, dtype=np.int32, casting="unsafe")
    size = np.concatenate(sizes_all, dtype=np.int32, casting="unsafe")
    del times_all, sizes_all
    nid = np.repeat(np.arange(n, dtype=np.int32), counts)
    # The arrays run by node id, each node's in draw order, so the position
    # breaks time ties as (node id, draw order) would. The key fits int64:
    # the horizon is at most 1e8 ms and the expected arrivals 1e8, so keys
    # stay near 1e16. The keys are unique, so sorting them in place and
    # taking each back modulo len(t) gives argsort's order without a second array.
    order = t.astype(np.int64)
    order *= len(t)
    order += np.arange(len(t))
    order.sort()
    np.remainder(order, len(t), out=order)
    return t[order], nid[order], size[order]


def inject_attack(attack: AttackConfig | None, sensor_rate_pps: float, sim_time_ms: int) -> np.ndarray:
    """Deterministic flood: the packets each attacker sends in each window, an
    int64 array indexed like the window ends (entry 0 is always 0).

    Every attacker sends one batch of multiplier x the normal per-source rate
    at each 100 ms step from start_ms, optionally ramping up linearly from 1x
    over ramp_ms; a batch at t lands in window t // WINDOW_MS + 1.
    """
    sent = np.zeros(-(-sim_time_ms // WINDOW_MS) + 1, dtype=np.int64)
    if attack is None:
        return sent
    if not (0 <= attack.start_ms < attack.stop_ms <= sim_time_ms):
        raise ConfigError(
            f"attack window must satisfy 0 <= start < stop <= sim_time_ms "
            f"(got {attack.start_ms}..{attack.stop_ms} in {sim_time_ms})"
        )
    at = np.arange(attack.start_ms, attack.stop_ms, WINDOW_MS)
    mult = attack.multiplier
    if attack.ramp_ms > 0:
        mult = 1.0 + (attack.multiplier - 1.0) * np.minimum(1.0, (at - attack.start_ms) / attack.ramp_ms)
    sent[at // WINDOW_MS + 1] = np.round(mult * sensor_rate_pps * (WINDOW_MS / 1000.0))
    return sent


_LINK_COUNTERS = (
    "generated",
    "delivered",
    "dropped",
    "blocked",
    "benign_generated",
    "benign_delivered",
    "benign_dropped",
    "attack_generated",
    "attack_delivered",
    "attack_dropped",
    "rounds",
)
_LEDGER_COUNTERS = ("committed_txs", "parked_txs", "expired_txs", "pending_at_end", "queued_at_end", "blocks")


@dataclass
class LinkResult:
    """What the link stage measured: traffic, blocks and CPU load, no ledger."""

    counters: dict  # the _LINK_COUNTERS
    benign_bytes_generated: int
    benign_bytes_delivered: int
    benign_bytes_delivered_attack_window: int
    cpu_load_samples: list  # (t_ms, smoothed unblocked attack kpps)
    drop_table: FlowTable  # one drop rule per blocked source, in block order: the only record of a block
    terminated_early: bool
    events_processed: int  # settlement windows run
    last_tick: int  # the last window end whose steps 3-5 ran (see the module docstring)
    # distb mode: t, node id, size and seq of each delivered benign packet, flat, in arrival order, int32 (16 B
    # a packet), built by the settlement pass; seq is 1 + the arrival's rank among its node's alive arrivals.
    # A packet's t fixes its window: window w holds ends[w - 1] < t <= ends[w], and window 1 also t = 0.
    delivered: array

    @property
    def block_times(self) -> dict:
        """src -> ms at which its drop rule engaged, in block order."""
        return dict(self.drop_table.rules)


@dataclass
class RawResult(LinkResult):
    """Everything the engine measured, before calibration is applied: the link
    stage's figures, the ledger stage's chain, and all counters of both."""

    ledger: bc.Ledger


@dataclass
class MetricsBundle:
    """What one scenario run measured: its counters and raw figures, uncalibrated."""

    mode: str
    counters: dict
    terminated_early: bool
    raw: dict  # benign_kbps, attack_window_benign_mbps, blocked_sources, ...

    def to_json(self) -> str:
        doc = {
            "mode": self.mode,
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "terminated_early": self.terminated_early,
            "raw": {k: self.raw[k] for k in sorted(self.raw)},
        }
        return json.dumps(doc, sort_keys=True)


def bytes_before(sizes: np.ndarray, marks: np.ndarray) -> np.ndarray:
    """before[i]: the bytes of the marked arrivals ahead of arrival i, as int64."""
    before = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(np.multiply(sizes, marks, out=before[1:]), out=before[1:])  # in place: no int64 copy of the input
    return before


def budget_cuts(before: np.ndarray, bounds: np.ndarray, limit: np.ndarray):
    """For each window over its byte limit: the first packet past the prefix that fits,
    its stop and the room left. Totals < 2**53 fit iff at most floor(limit)."""
    w = np.flatnonzero(np.diff(before[bounds]) > limit)  # the congested windows
    start, stop, cap = bounds[w], bounds[w + 1], np.floor(limit[w]).astype(np.int64)
    cut = np.minimum(np.searchsorted(before, before[start] + cap, side="right") - 1, stop)
    return cut, stop, (cap - (before[cut] - before[start])).astype(np.int32)  # under the cut packet's size


def fill_tails(taken: np.ndarray, sizes: np.ndarray, cut: np.ndarray, stop: np.ndarray, room: np.ndarray) -> None:
    """Skip and continue, in place: of the packets `taken` marks in each window's
    cut..stop, keep those that fit its room in turn; one that misses never fits later."""
    n = stop - cut
    rows = np.arange(n.sum(), dtype=np.int32)
    rows += np.repeat((cut - (np.cumsum(n) - n)).astype(np.int32), n)
    fits = sizes.take(rows) <= np.repeat(room, n)  # take: faster on int32 rows
    fits &= taken.take(rows)
    fits = np.flatnonzero(fits)
    taken[rows] = False
    rows, win = rows[fits], np.searchsorted(np.cumsum(n), fits, side="right").astype(np.int32)  # their windows
    while len(rows):  # each pass takes every window's next candidate
        first = np.flatnonzero(np.diff(win, prepend=-1))
        taken[rows[first]] = True
        room[win[first]] -= sizes[rows[first]]
        fits = sizes[rows] <= room[win]
        fits[first] = False
        rows, win = rows[fits], win[fits]


def first_crossings(t, nid, flood, attackers, first_in, wa: int, theta: float) -> list[tuple[int, int]]:
    """(window, source) of each source's first window from wa on whose sum
    exceeds theta, in source order. Sensor packets arrive at t from node nid,
    from window first_in[wa] on; each of `attackers` sends flood[w] packets in
    window w. The sum at window w covers windows first_in[w]..w and rises only
    where its source sends, so one cumsum over the sparse (source, window)
    counts, keyed source * len(first_in) + window, finds every first crossing."""
    n_win = len(first_in)
    sends = first_in[wa] + np.flatnonzero(flood[first_in[wa] :])  # the windows with attack batches
    arr_win = ((t + WINDOW_MS - 1) // WINDOW_MS).clip(1)
    sensor_keys = np.multiply(nid, n_win, dtype=np.int64) + arr_win  # int32 nid * n_win could wrap
    key = np.concatenate((sensor_keys, np.add.outer(attackers * n_win, sends).ravel()))
    count = np.concatenate((np.ones(len(t), dtype=np.int64), np.tile(flood[sends], len(attackers))))
    order = np.argsort(key)
    key, csum = key[order], np.cumsum(count[order])
    src, win = np.divmod(key, n_win)
    # Each entry's sum over its key's detector window. A sensor's arrivals in one window share a key,
    # and all but the last read a partial sum, over theta only where the whole is, so each source's
    # first entry over theta still falls in its first crossing window.
    sums = csum - np.concatenate(([0], csum))[np.searchsorted(key, key - win + first_in[win])]
    hit = np.flatnonzero((sums > theta) & (win >= wa))
    hit = hit[np.unique(src[hit], return_index=True)[1]]  # each source's first
    return list(zip(win[hit].tolist(), src[hit].tolist()))


@dataclass
class SensorPass:
    """Passes 1-2 of the link stage, which read neither the mode nor the
    attack: the sensor arrivals, the clustering rounds and the alive marks.
    Runs whose configs differ only in mode and attack share one."""

    # The sensor arrivals, int32 (t < 1e8 ms, id < 1e6, size <= 65 535), sorted as generate_traffic returns them.
    arr_t: np.ndarray
    arr_node: np.ndarray
    arr_size: np.ndarray
    ends: list  # the window ends, from 0; window w runs from ends[w - 1] to ends[w]
    arr_ends: np.ndarray  # per window end, the arrivals at or before it (0 at ends[0])
    settled: int  # windows that settle
    last_tick: int
    terminated_early: bool
    rounds: int  # clustering rounds run
    alive: np.ndarray  # per settled arrival, arr_t[:arr_ends[settled]]: whether its node still emits then


def sensor_pass(cfg: ScenarioConfig) -> SensorPass:
    """Validate `cfg` as a link-only run, then run the link stage's first
    two passes: the clustering rounds and the alive marks. Reads neither
    `cfg.mode` nor `cfg.attack`."""
    cfg = validate_config(cfg, sealing=False)
    x, y, z, energy, area, bs = generate_topology(cfg.node_count, cfg.area_side_m, cfg.seed, cfg)
    rng_traffic = np.random.default_rng([cfg.seed, 1])
    arr_t, arr_node, arr_size = generate_traffic(
        cfg.node_count, cfg.sensor_rate_pps, rng_traffic, cfg.sim_time_ms, cfg.packet_size_bytes
    )

    # Window w runs from ends[w - 1] to ends[w]; it takes the arrivals at
    # t <= ends[w] (the first window from t = 0), arr_ends[w - 1]:arr_ends[w].
    end = cfg.sim_time_ms
    ends = [*range(0, end, WINDOW_MS), end]
    arr_ends = np.searchsorted(arr_t, ends, side="right")
    arr_ends[0] = 0

    # 1. Rounds, each due before the horizon. A node a round depletes emits
    # nothing from the round's due time on, or from t1 + 1 for a round due at
    # a window end t1 > 0, which runs after that window settles.
    geometry = Geometry(x, y, z, area, bs)
    never = end + 1
    depleted_from = np.full(cfg.node_count, never)
    settled, last_tick, terminated_early, rounds = len(ends) - 1, end, False, 0
    for due in range(0, end, cfg.round_period_ms):
        try:
            _, energy = elect(geometry, energy, cfg)
        except ExhaustedNetworkError:
            # The run stops here: the windows that end at or before this round
            # settled, and steps 3-5 ran at the window ends strictly before it
            # (round 0 finds every node alive, so due > 0).
            settled, last_tick = bisect_right(ends, due) - 1, ends[bisect_left(ends, due) - 1]
            terminated_early = True
            break
        rounds += 1
        silent_from = due + 1 if 0 < due and due % WINDOW_MS == 0 else due
        np.minimum(depleted_from, np.where(energy <= 0.0, silent_from, never), out=depleted_from)

    # 2. Alive marks: whether each settled arrival's node still emits then.
    hi = arr_ends[settled]
    alive = arr_t[:hi] < depleted_from[arr_node[:hi]]
    return SensorPass(arr_t, arr_node, arr_size, ends, arr_ends, settled, last_tick, terminated_early, rounds, alive)


def run_link(cfg: ScenarioConfig) -> LinkResult:
    """Run the link stage in four passes: the clustering rounds, the alive
    marks, the flood detector, and one settlement pass over the settled
    windows for the traffic figures and the CPU samples. Builds no
    transaction."""
    return settle_link(cfg, sensor_pass(cfg))


def settle_link(cfg: ScenarioConfig, sensors: SensorPass) -> LinkResult:
    """The link stage's last two passes, the flood detector and settlement,
    over `sensors`, the sensor pass of a config that equals the validated
    `cfg` but for mode and attack. One search over a running total of offered bytes
    finds every congested window's prefix; passes over the tails take each window's next fit."""
    distb = cfg.mode == "distb"
    arr_t, arr_node, arr_size, alive = sensors.arr_t, sensors.arr_node, sensors.arr_size, sensors.alive
    ends, arr_ends, settled = sensors.ends, sensors.arr_ends, sensors.settled
    n_nodes = cfg.node_count
    counters = dict.fromkeys(_LINK_COUNTERS, 0)
    counters["rounds"] = sensors.rounds
    flood = inject_attack(cfg.attack, cfg.sensor_rate_pps, cfg.sim_time_ms)
    n_atk = cfg.attack.sources if cfg.attack is not None else 0
    # Source indices: the sensors by node id (s-i), then the attack sources
    # (atk-j), each of which sends flood[w] packets in window w.
    never = cfg.sim_time_ms + 1
    bounds = arr_ends[: settled + 1]
    hi = bounds[-1]

    # 3. The detector (distb mode) counts alive packets: a source's count never
    # depends on another's block, and counts after its own block are never read.
    theta = cfg.detector_multiplier * cfg.sensor_rate_pps * (cfg.detector_window_ms / 1000.0)
    drop_table = FlowTable()
    blocked_after = np.full(n_nodes + n_atk, never)  # per source: its drop rule's ms, read back from drop_table
    if distb:
        # The sum at window w covers windows first_in[w]..w, those ending after t1 - detector_window_ms.
        first_in = np.searchsorted(ends, np.subtract(ends, cfg.detector_window_ms), side="right").clip(1)
        attackers = np.arange(n_nodes, n_nodes + n_atk)
        step = max(DETECTOR_PASS_WINDOWS, -(-cfg.detector_window_ms // WINDOW_MS))  # no shorter than its lookback
        for wa in range(1, settled + 1, step):
            wb = min(wa + step, settled + 1)
            rows = slice(arr_ends[first_in[wa] - 1], arr_ends[wb - 1])  # from the first window wa's sum covers
            on = alive[rows]
            crossings = first_crossings(arr_t[rows][on], arr_node[rows][on], flood[:wb], attackers, first_in, wa, theta)
            events = sorted(
                (w, f"s-{i}" if i < n_nodes else f"atk-{i - n_nodes}", i)
                for w, i in crossings if blocked_after[i] == never
            )
            for w, name, i in events:  # by window, then name, so s-10 goes before s-2
                block_flow(drop_table, name, ends[w])
                if match_packet(drop_table, name) == DROP:  # read back: the table is a block's one record
                    blocked_after[i] = drop_table.rules[name]

    # 4. Settle windows 1..settled at once. A source blocked at window b's end
    # sends unblocked through window b.
    offered, sizes = alive & (arr_t[:hi] <= blocked_after[arr_node[:hi]]), arr_size[:hi]
    before = bytes_before(sizes, offered)

    blocked_in = np.sort(np.searchsorted(ends, blocked_after[n_nodes:]))  # each attacker's block window
    unblocked = n_atk - np.searchsorted(blocked_in, np.arange(1, settled + 1))
    sent = flood[1 : settled + 1]
    atk_packets = unblocked * sent
    counters["attack_generated"] = n_atk * int(sent.sum())
    counters["blocked"] = counters["attack_generated"] - int(atk_packets.sum())

    # Each window shares the link capacity in proportion between benign and
    # unblocked attack bytes.
    offered_bytes, attack_bytes = np.diff(before[bounds]), atk_packets * ATTACK_PKT_BYTES
    capacity = cfg.data_rate_mbps * 1e6 / 8.0 * np.diff(ends[: settled + 1]) / 1000.0
    total = offered_bytes + attack_bytes
    over = total > capacity
    budget = offered_bytes.astype(float)
    budget[over] = capacity[over] * offered_bytes[over] / total[over]
    ratio = np.ones(settled)  # the share of each attacker's packets delivered
    shared = over & (attack_bytes > 0)
    ratio[shared] = capacity[shared] * attack_bytes[shared] / total[shared] / attack_bytes[shared]
    counters["attack_delivered"] = int((unblocked * (sent * ratio).astype(np.int64)).sum())
    cut, stop, room = budget_cuts(before, bounds, budget + 1e-6)
    del before  # neither the tails nor the seq ranks hold it
    taken = offered.copy()
    if len(cut):  # a run with no congested window does no tail work
        fill_tails(taken, sizes, cut, stop, room)

    benign_bytes_delivered_attack = 0
    cpu_ewma = 0.0
    smoothing = cfg.resolved_calibration().cpu_smoothing
    cpu_samples: list[tuple[int, float]] = []
    if cfg.attack is not None:
        t_end = np.array(ends[1 : settled + 1], dtype=np.int64)
        # The windows that end in (start_ms, stop_ms] hold the arrivals a:b.
        a, b = bounds[np.searchsorted(t_end, (cfg.attack.start_ms, cfg.attack.stop_ms), side="right")]
        benign_bytes_delivered_attack = int(sizes[a:b].sum(where=taken[a:b], dtype=np.int64))
        # Each CPU sample, at a multiple of CPU_SAMPLE_MS, takes the unblocked
        # attack packets since the last one.
        at = np.flatnonzero(t_end % CPU_SAMPLE_MS == 0)
        for t1, pkts in zip(t_end[at].tolist(), np.diff(np.cumsum(atk_packets)[at], prepend=0).tolist()):
            kpps = pkts / (CPU_SAMPLE_MS / 1000.0) / 1000.0
            cpu_ewma = smoothing * kpps + (1.0 - smoothing) * cpu_ewma
            cpu_samples.append((t1, cpu_ewma))

    # The settled windows' benign figures, read off the per-arrival arrays.
    generated, n_offered, delivered = (int(np.count_nonzero(a)) for a in (alive, offered, taken))
    counters |= {"benign_generated": generated, "benign_delivered": delivered}
    counters["benign_dropped"] = generated - delivered
    counters["blocked"] += generated - n_offered
    counters["attack_dropped"] = counters["attack_generated"] - counters["attack_delivered"]
    for key in ("generated", "delivered", "dropped"):
        counters[key] = counters["benign_" + key] + counters["attack_" + key]
    delivered_log = array("i")
    if distb:
        # Each payload's seq: 1 + the arrival's rank among its node's alive
        # arrivals (dropped and blocked ones included), in array order.
        nodes = arr_node[:hi][alive]
        per_node = np.bincount(nodes, minlength=n_nodes)
        rank = np.arange(1, len(nodes) + 1, dtype=np.int32)
        rank -= np.repeat((np.cumsum(per_node) - per_node).astype(np.int32), per_node)  # in node-sorted order
        key = nodes.astype(np.int64)  # in place: a copy per step read 0.4-1.1 MB more peak RSS on flood-pos
        key <<= 32
        key |= np.arange(len(nodes))
        key.sort()  # by node, then position
        key &= 0xFFFFFFFF
        seq = np.empty_like(rank)
        seq[key] = rank
        seq = seq[taken[alive]]  # the delivered packets' only; the ranks go before the log is allocated
        del nodes, rank, key
        at = np.flatnonzero(taken)
        delivered_log = array("i", [0]) * (4 * len(at))  # filled in place, through a numpy view
        rows = np.frombuffer(delivered_log, dtype=np.int32).reshape(-1, 4)
        rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3] = arr_t[at], arr_node[at], sizes[at], seq

    return LinkResult(
        counters=counters,
        benign_bytes_generated=int(sizes.sum(where=alive, dtype=np.int64)),
        benign_bytes_delivered=int(sizes.sum(where=taken, dtype=np.int64)),
        benign_bytes_delivered_attack_window=benign_bytes_delivered_attack,
        cpu_load_samples=cpu_samples,
        drop_table=drop_table,
        terminated_early=sensors.terminated_early,
        events_processed=settled,
        last_tick=sensors.last_tick,
        delivered=delivered_log,
    )


def run_raw(cfg: ScenarioConfig) -> RawResult:
    """Run the link stage, then the ledger stage over its delivered packets,
    and return raw, calibration-free results.

    At each window end t1, the transactions of the window's packets from
    registered sensors join the queue in arrival order, and the queue is cut
    into as many whole blocks of `block_batch` as it holds, each stamped t1.
    These are the blocks that sealing whenever `block_batch` are queued
    would give, since every block of a window carries t1. Then, up to
    `last_tick`, the queue is mined on `block_interval_ms` ends and at the
    horizon. The other packets are parked at t1 and never built: nothing
    registers a sensor mid-run, so each only ages out, at the first sweep
    (every second and at the horizon, up to `last_tick`) that comes
    `t_pending_ms` or more after t1, and the stage only counts them. The
    trap: a round due exactly at t1 runs after settlement, so if it
    exhausts the network, that window's whole blocks are cut but its mine
    and sweep never run; the leftover queue counts in `queued_at_end`.
    """
    cfg = validate_config(cfg)
    link = run_link(cfg)
    counters = link.counters | dict.fromkeys(_LEDGER_COUNTERS, 0)
    ledger = bc.Ledger()
    if cfg.mode == "distb":
        _run_ledger(cfg, link, ledger, counters)
    counters["blocks"] = len(ledger.blocks)
    return RawResult(**{**vars(link), "counters": counters}, ledger=ledger)


def _run_ledger(cfg: ScenarioConfig, link: LinkResult, ledger: bc.Ledger, counters: dict) -> None:
    """The ledger stage over the link stage's delivered packets (see run_raw).
    Refuses the first packet in log order whose seq is not above its node's
    last (0 before its first): a tx id seen twice shows so, as its id hashes the row."""
    rng_misc = np.random.default_rng([cfg.seed, 3])
    names = [f"s-{i}" for i in range(cfg.node_count)]
    k = int(round(cfg.unregistered_fraction * cfg.node_count))
    unregistered = set(rng_misc.choice(cfg.node_count, size=k, replace=False).tolist())
    registered = [i not in unregistered for i in range(cfg.node_count)]  # nothing registers a sensor mid-run
    pos = cfg.consensus.kind == "pos"
    stakes = bc.stake_table(cfg.consensus.stakes_dict()) if pos else None

    def commit(txs, now: int) -> None:
        index = len(ledger.blocks)
        if pos:
            validator = bc.select_validator(stakes, (cfg.seed << 20) ^ index)
            block = bc.seal_block_pos(txs, ledger.tip_hash, validator, now, index)
        else:
            block = bc.mine_block(txs, ledger.tip_hash, cfg.consensus.difficulty, now, index)
        bc.append_block(ledger, block)
        counters["committed_txs"] += len(txs)

    store = bc.TxColumns(BS_ID)  # every built transaction; the queue is its rows from `head` on
    head = 0
    commit(bc.TxBatch(store, 0, 0), 0)  # genesis
    end, last_tick, batch = cfg.sim_time_ms, link.last_tick, cfg.block_batch
    # Sweeps run every second and at the horizon, up to last_tick, so a packet parked at t1 has expired by the
    # end iff the last sweep (0 if none ran) is t_pending_ms or more after t1. Python ints: no t_pending_ms wraps.
    last_sweep = end if last_tick == end else last_tick - last_tick % 1000
    log = np.frombuffer(link.delivered, dtype=np.int32).reshape(-1, 4)
    last_seq = np.zeros(cfg.node_count, dtype=np.int32)  # per node, its last seq in the rows checked so far
    for part in (log[i : i + 4096] for i in range(0, len(log), 4096)):  # small blocks hold the memory flat
        key = np.sort(part[:, 1].astype(np.int64) << 32 | np.arange(len(part)))  # by node, then log position
        node, seq = key >> 32, part[key & 0xFFFFFFFF, 3]
        prev = np.where(np.diff(node, prepend=-1) != 0, last_seq[node], np.roll(seq, 1))  # its node's seq before
        if len(bad := np.flatnonzero(seq <= prev)):
            i = bad[np.argmin(key[bad] & 0xFFFFFFFF)]  # the first offender in log order
            raise DuplicateTransactionError(f"packet {seq[i]} of s-{node[i]} is not after its last, {prev[i]}")
        np.maximum.at(last_seq, node, seq)  # each node's seqs rise, so its last is its largest
    # A row's t fixes its window (see LinkResult.delivered): the log's first through[w - 1] rows are windows 1..w.
    ends = np.minimum(np.arange(WINDOW_MS, WINDOW_MS * link.events_processed + 1, WINDOW_MS), end)
    through, lo = np.searchsorted(log[:, 0], ends, side="right"), 0
    del ends  # the loop holds only the bounds, 8 B a window
    for w, hi in enumerate(through, 1):
        t1 = min(w * WINDOW_MS, end)
        rows, lo = link.delivered[4 * lo : 4 * hi], hi
        ts, nids, sizes, seqs = rows[::4], rows[1::4], rows[2::4], rows[3::4]
        kept = store.append(
            (names[n], b"%d|%d|%d|%d" % (n, q, t, size), t)
            for t, n, size, q in zip(ts, nids, sizes, seqs)
            if registered[n]
        )
        parked = len(nids) - len(kept)
        counters["parked_txs"] += parked
        counters["expired_txs" if last_sweep - t1 >= cfg.t_pending_ms else "pending_at_end"] += parked
        cut = len(store) - (len(store) - head) % batch
        for i in range(head, cut, batch):  # every block of the window carries t1
            commit(bc.TxBatch(store, i, i + batch), t1)
        head = cut
        if t1 > last_tick:
            break  # a round at t1 exhausted the network before the mine
        if head < len(store) and (t1 % cfg.block_interval_ms == 0 or t1 == end):
            commit(bc.TxBatch(store, head, len(store)), t1)
            head = len(store)
    counters["queued_at_end"] = len(store) - head
    if dup := bc.first_duplicate(memoryview(store.ids)[: 32 * head], (b.tx_list.hi for b in ledger.blocks)):
        raise DuplicateTransactionError(f"tx {dup[1].hex()} is on the chain twice, the second time in block {dup[0]}")


def link_figures(cfg: ScenarioConfig, link: LinkResult) -> dict:
    """The raw figures the link stage measured; no calibration is applied here."""
    sim_s = cfg.sim_time_ms / 1000.0
    benign_kbps = link.benign_bytes_delivered * 8.0 / 1000.0 / sim_s
    raw_attack_mbps = None
    if cfg.attack is not None:
        dur_s = (cfg.attack.stop_ms - cfg.attack.start_ms) / 1000.0
        raw_attack_mbps = link.benign_bytes_delivered_attack_window * 8.0 / 1e6 / dur_s
    return {
        "benign_kbps": benign_kbps,
        "benign_mbps": benign_kbps / 1000.0,
        "benign_bytes_delivered": link.benign_bytes_delivered,
        "benign_bytes_generated": link.benign_bytes_generated,
        "attack_window_benign_mbps": raw_attack_mbps,
        "blocked_sources": sorted(link.block_times),
        "block_times_ms": {k: link.block_times[k] for k in sorted(link.block_times)},
    }


def bundle_from_raw(cfg: ScenarioConfig, raw: RawResult) -> MetricsBundle:
    """The run's counters and raw figures; no calibration is applied here."""
    return MetricsBundle(
        mode=cfg.mode,
        counters=dict(raw.counters),
        terminated_early=raw.terminated_early,
        raw={**link_figures(cfg, raw), "chain_length": len(raw.ledger.blocks)},
    )


# ---------------------------------------------------------------------------
# Metric batteries (the sweeps behind the CSV families)


def throughput_cfg(cfg: ScenarioConfig, n: int, mode: str) -> ScenarioConfig:
    """The run that measures `mode`'s throughput at `n` nodes."""
    return cfg.with_(mode=mode, node_count=n, attack=None, sim_time_ms=THROUGHPUT_SIM_MS)


def _bandwidth_cfg(cfg: ScenarioConfig, rate_kpps: float, mode: str) -> ScenarioConfig:
    mult = rate_kpps * 1000.0 / (BANDWIDTH_ATTACK_SOURCES * cfg.sensor_rate_pps)
    if mult == float("inf"):  # else validate_config blames attack.multiplier, which the config never set
        raise ConfigError(
            f"sensor_rate_pps is too small: the {rate_kpps} kpps flood from {BANDWIDTH_ATTACK_SOURCES} "
            f"sources is no finite multiple of it (got {cfg.sensor_rate_pps})"
        )
    attack = AttackConfig(
        start_ms=BANDWIDTH_ATTACK_START_MS,
        stop_ms=BANDWIDTH_ATTACK_STOP_MS,
        sources=BANDWIDTH_ATTACK_SOURCES,
        multiplier=mult,
    )
    return cfg.with_(mode=mode, attack=attack, sim_time_ms=BANDWIDTH_SIM_MS)


def _cpu_cfg(cfg: ScenarioConfig) -> ScenarioConfig:
    return cfg.with_(mode="distb", **CPU_BATTERY)


# The paired batteries: each run's config maker, the reference-table column of
# its default xs, and the unit an x reads in.
BATTERIES = {
    "throughput": (throughput_cfg, ("throughput_kbps", "nodes"), "nodes"),
    "bandwidth": (_bandwidth_cfg, ("bandwidth_mbps", "arrival_rate_kps"), "kpps"),
}


def _checked(label: str, make, *args) -> ScenarioConfig:
    """make(*args), validated; a refusal names `label`."""
    try:
        return validate_config(make(*args), sealing=False)
    except ConfigError as exc:
        raise ConfigError(f"{label}: {exc}") from None


def battery_configs(cfg: ScenarioConfig, battery: str, xs=None) -> list[tuple[object, list[ScenarioConfig]]]:
    """Every run of a paired battery: per x (its reference table's column by
    default), the validated configs in MODES order. A config the engine would
    refuse is refused here, naming the battery and x."""
    make, (table, column), unit = BATTERIES[battery]
    xs = list(xs if xs is not None else load_reference_tables()[table][column])
    if not xs:
        raise ValueError(f"the {battery} battery needs at least one x")
    return [(x, [_checked(f"{battery} battery at {x:g} {unit}", make, cfg, x, mode) for mode in MODES]) for x in xs]


def _sweep(runs: list[tuple[object, list[ScenarioConfig]]], figure: str) -> list[tuple[object, list[tuple]]]:
    """Each run's link figure over battery_configs' runs: per x,
    (x, [(config, figure)] in MODES order). A run's sensor side is its config
    in MODES[0] with no attack, all that `sensor_pass` reads; a new pass is
    computed only when that differs from the run's before, so each figure
    equals that of an independent `run_link` of its config."""
    sweep, key, sensors = [], None, None
    for x, cfgs in runs:
        row = []
        for run_cfg in cfgs:
            if (k := run_cfg.with_(mode=MODES[0], attack=None)) != key:
                key, sensors = k, sensor_pass(k)
            row.append((run_cfg, link_figures(run_cfg, settle_link(run_cfg, sensors))[figure]))
        sweep.append((x, row))
    return sweep


def measure_throughput(cfg: ScenarioConfig, node_counts=None) -> list[tuple[int, float, float]]:
    """Sweep node counts in both modes with a fixed seed: (n, distb, baseline) kbps."""
    calib = cfg.resolved_calibration()
    return [
        (n, *(calib.scaled("throughput", c.mode, c.node_count, kbps) for c, kbps in row))
        for n, row in _sweep(battery_configs(cfg, "throughput", node_counts), "benign_kbps")
    ]


def measure_bandwidth_under_attack(cfg: ScenarioConfig, rates=None) -> list[tuple[float, float, float]]:
    """Benign bandwidth under flood per arrival rate: (rate_kpps, distb, baseline) Mbps."""
    calib = cfg.resolved_calibration()
    return [
        (float(rate), *(calib.scaled("bandwidth", c.mode, rate, mbps) for c, mbps in row))
        for rate, row in _sweep(battery_configs(cfg, "bandwidth", rates), "attack_window_benign_mbps")
    ]


def measure_response_time(cfg: ScenarioConfig, file_sizes=None) -> list[tuple[float, float, float]]:
    """Modelled transfer response per file size: (mb, distb_ms, core_ms)."""
    sizes = list(file_sizes) if file_sizes is not None else list(
        load_reference_tables()["response_ms"]["file_mb"]
    )
    calib = cfg.resolved_calibration()
    rows = []
    for s in sizes:
        if s <= 0:
            raise ConfigError(f"file size must be positive (got {s})")
        rows.append((float(s), calib.response_ms("distb", float(s)), calib.response_ms("core", float(s))))
    return rows


def measure_gas(cfg: ScenarioConfig, tx_counts=None) -> list[tuple[int, int]]:
    """Gas per committed batch size: (tx_count, gas units)."""
    counts = list(tx_counts) if tx_counts is not None else list(load_reference_tables()["gas"]["tx_count"])
    calib = cfg.resolved_calibration()
    return [(int(n), bc.gas_for(int(n), calib.gas_base, calib.gas_per_tx)) for n in counts]


def measure_cpu_flooding(cfg: ScenarioConfig) -> list[tuple[float, float]]:
    """CPU% trace for the flooding scenario, sampled every 0.2 s: base + kappa * smoothed load."""
    calib = cfg.resolved_calibration()
    return [
        (t_ms / 1000.0, calib.cpu_base_pct + calib.cpu_kappa * load)
        for t_ms, load in run_link(_checked("cpu battery", _cpu_cfg, cfg)).cpu_load_samples
    ]


def recalibrate(cfg: ScenarioConfig | None = None) -> Calibration:
    """Re-fit all calibration constants from the embedded reference tables.

    Gas and response are pure table fits. Throughput and bandwidth keep the
    table rows as envelopes and record the raw figures of the battery sweeps
    that `measure_throughput` and `measure_bandwidth_under_attack` run, so
    that envelope * raw/nominal reproduces the tables under the default setup
    and still tracks dynamics when a scenario deviates. The CPU gain is set
    so the nominal flood peaks at the table peak.
    """
    base = cfg if cfg is not None else ScenarioConfig()
    tables = load_reference_tables()
    gas_base, gas_per_tx = fit_gas(tables)
    response = fit_response(tables)

    def nominal(sweep) -> dict:  # each x's runs come in MODES order: distb, then of-baseline
        return {key: [row[i][1] for _, row in sweep] for i, key in enumerate(("distb", "baseline"))}

    thr = tables["throughput_kbps"]
    thr_nominal = nominal(_sweep(battery_configs(base, "throughput"), "benign_kbps"))
    bw = tables["bandwidth_mbps"]
    bw_nominal = nominal(_sweep(battery_configs(base, "bandwidth"), "attack_window_benign_mbps"))

    cpu_table = tables["cpu_pct"]
    cpu_base = float(cpu_table["cpu"][0])
    cpu_peak = float(max(cpu_table["cpu"]))
    link = run_link(_cpu_cfg(base))
    max_load = max((load for _, load in link.cpu_load_samples), default=0.0)
    kappa = (cpu_peak - cpu_base) / max_load if max_load > 0 else 0.0

    doc = {
        "gas": {"base": gas_base, "per_tx": gas_per_tx},
        "response": response,
        "throughput": {
            "nodes": [int(n) for n in thr["nodes"]],
            "env": {k: [float(v) for v in thr[k]] for k in ("distb", "baseline")},
            "nominal": thr_nominal,
        },
        "bandwidth": {
            "rates": [float(r) for r in bw["arrival_rate_kps"]],
            "env": {k: [float(v) for v in bw[k]] for k in ("distb", "baseline")},
            "nominal": bw_nominal,
        },
        "cpu": {"base_pct": cpu_base, "kappa": kappa, "smoothing": base.resolved_calibration().cpu_smoothing},
    }
    return Calibration.from_dict(doc)
