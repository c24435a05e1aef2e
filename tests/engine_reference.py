"""Longhand models of the engine's two stages, for differential tests.

`reference_link` settles each window one packet at a time in plain Python:
per-node lists for the depletion time, the packets emitted so far (each
payload's sequence number) and the block verdict, and a skip-and-continue
loop over the window's packets for the link budget. `run_link` must return
exactly the same `LinkResult`. Its flood detector keeps every offered count
as a (window end, source, count) record and sums the records inside the
detector's window again at every window end. It shares only code with tests
of its own: the topology, the clustering election, the traffic and attack
draws, and the drop table.

`reference_ledger` runs the ledger stage one packet at a time: it builds
each delivered packet's transaction at its window end, queues or parks it
by a registry set of its own, seals a block whenever `block_batch` are
queued, and sweeps a waiting room of its own (a dict from tx id to park
time) by age. Over the same `LinkResult`, the engine's ledger stage must
leave the same chain and counters. It shares only code with tests of its
own: the transaction builder, chain append and PoS sealing. It seals PoW
itself, hashing the header of each nonce from 0, built longhand
(`chain_reference.block_header_bytes`), until one has `difficulty` leading
zero bits.

`fill_budget` is the link budget of one window in longhand: the offered
packets' prefix that fits, then a skip-and-continue loop over the rest. The
engine settles every congested window in one array pass and must pick
exactly the same packets.
"""

from __future__ import annotations

import hashlib
import itertools
from collections import Counter
from operator import itemgetter

import numpy as np

from chain_reference import block_header_bytes
from distb import blockchain as bc
from distb.clustering import Geometry, elect
from distb.config import WINDOW_MS, ScenarioConfig, validate_config
from distb.errors import DuplicateTransactionError, ExhaustedNetworkError
from distb.sdn import DROP, FlowTable, block_flow, match_packet
from distb.simulator import (
    _LINK_COUNTERS,
    ATTACK_PKT_BYTES,
    BS_ID,
    CPU_SAMPLE_MS,
    LinkResult,
    generate_traffic,
    inject_attack,
)
from distb.topology import generate_topology


def fill_budget(sizes: np.ndarray, limit: float) -> np.ndarray:
    """Which packets, in arrival order, take a byte budget: skip and continue,
    so a packet that would overrun it is dropped and a later, smaller one may
    still fit. Returns a bool mask over `sizes`. Sums stay below 2**53, where
    comparing int64 with float64 is exact."""
    sizes = sizes.astype(np.int64)  # int32 sizes + acc could wrap
    csum = np.cumsum(sizes)
    k = int(np.searchsorted(csum, limit, side="right"))  # the prefix that fits
    mask = np.zeros(len(sizes), dtype=bool)
    mask[:k] = True
    acc = int(csum[k - 1]) if k else 0
    fits = k + np.flatnonzero(sizes[k:] + acc <= limit)  # a packet that misses never fits later
    while len(fits):
        mask[fits[0]] = True
        acc += int(sizes[fits[0]])
        fits = fits[1:][sizes[fits[1:]] + acc <= limit]
    return mask


def reference_link(cfg: ScenarioConfig) -> LinkResult:
    """The link stage settled one packet at a time: rounds, traffic,
    settlement, the flood detector and the CPU samples."""
    cfg = validate_config(cfg)
    x, y, z, energy, area, bs = generate_topology(cfg.node_count, cfg.area_side_m, cfg.seed, cfg)
    rng_traffic = np.random.default_rng([cfg.seed, 1])
    distb = cfg.mode == "distb"
    names = [f"s-{i}" for i in range(cfg.node_count)]  # node ids are array positions

    theta = cfg.detector_multiplier * cfg.sensor_rate_pps * (cfg.detector_window_ms / 1000.0)
    records: list[tuple[int, str, int]] = []  # (window end, source, offered count), oldest first
    drop_table = FlowTable()
    # Whether drop_table drops a source's packets, valid until a block changes
    # the table: per node id for sensors (the table starts empty), and per
    # name, filled on first use, for attack sources.
    blocked = [False] * len(names)
    verdicts: dict[str, bool] = {}

    counters = dict.fromkeys(_LINK_COUNTERS, 0)
    delivered_log: list[tuple[int, int, int, int]] = []  # (t, node_id, size, seq) per delivered packet
    settled = 0  # windows settled

    arr_t, arr_node, arr_size = generate_traffic(
        cfg.node_count, cfg.sensor_rate_pps, rng_traffic, cfg.sim_time_ms, cfg.packet_size_bytes
    )
    # Each window's attack batches, (source, packets, bytes) per attacker.
    sources = cfg.attack.sources if cfg.attack is not None else 0
    batches = [
        [(f"atk-{i}", count, count * ATTACK_PKT_BYTES) for i in range(sources)] if count else []
        for count in inject_attack(cfg.attack, cfg.sensor_rate_pps, cfg.sim_time_ms).tolist()
    ]

    # Per-node state, indexed by node id: the residual energy, the ms from
    # which the node emits nothing (past the horizon until a round depletes
    # it), and the packets it has emitted so far, its payloads' sequence number.
    geometry = Geometry(x, y, z, area, bs)
    never = cfg.sim_time_ms + 1
    depleted_from = [never] * len(names)
    emitted = [0] * len(names)
    terminated_early = False

    def next_round_at() -> int:
        return counters["rounds"] * cfg.round_period_ms

    def do_round(energy: np.ndarray) -> np.ndarray:
        due = next_round_at()
        _, energy = elect(geometry, energy, cfg)
        counters["rounds"] += 1
        for i in np.flatnonzero(energy <= 0.0).tolist():
            if depleted_from[i] == never:
                depleted_from[i] = due
        return energy

    def is_dropped(src: str) -> bool:
        return match_packet(drop_table, src) == DROP

    def refresh_verdicts() -> None:
        blocked[:] = map(is_dropped, names)
        verdicts.clear()

    def flood_suspects(t1: int) -> list[str]:
        """Sources whose offered count over (t1 - detector_window_ms, t1] exceeds theta, in sorted order."""
        totals: Counter = Counter()
        for at, src, count in records:
            if t1 - cfg.detector_window_ms < at <= t1:
                totals[src] += count
        return sorted(src for src, total in totals.items() if total > theta)

    def settle_window(t0: int, t1: int, lo: int, hi: int, window_batches: list) -> tuple[int, int, int]:
        """Settle one window over arrivals lo:hi; returns (benign bytes
        generated, benign bytes delivered, unblocked attack packets)."""
        generated = generated_bytes = n_blocked = offered_bytes = 0
        window_benign: list[tuple[int, int, int, int]] = []  # unblocked (t, node_id, size, seq)
        for t, nid, size in zip(arr_t[lo:hi].tolist(), arr_node[lo:hi].tolist(), arr_size[lo:hi].tolist()):
            if t >= depleted_from[nid]:
                continue  # depleted node emits nothing
            generated += 1
            generated_bytes += size
            seq = emitted[nid] = emitted[nid] + 1
            if blocked[nid]:
                n_blocked += 1
                continue
            window_benign.append((t, nid, size, seq))
            offered_bytes += size

        atk_generated = atk_blocked = attack_bytes = 0
        attack_offered: dict[str, tuple[int, int]] = {}  # src -> (count, bytes)
        for src, count, nbytes in window_batches:
            atk_generated += count
            verdict = verdicts.get(src)
            if verdict is None:
                verdict = verdicts[src] = is_dropped(src)
            if verdict:
                atk_blocked += count
                continue
            c, b = attack_offered.get(src, (0, 0))
            attack_offered[src] = (c + count, b + nbytes)
            attack_bytes += nbytes

        if distb:
            for nid, count in Counter(map(itemgetter(1), window_benign)).items():
                records.append((t1, names[nid], count))
            for src, (count, _) in attack_offered.items():
                records.append((t1, src, count))

        capacity = cfg.data_rate_mbps * 1e6 / 8.0 * (t1 - t0) / 1000.0
        total = offered_bytes + attack_bytes
        if total <= capacity:
            benign_budget = float(offered_bytes)
            attack_ratio = 1.0
        else:
            benign_budget = capacity * offered_bytes / total
            attack_ratio = (capacity * attack_bytes / total) / attack_bytes if attack_bytes else 0.0

        # Skip and continue: a packet that misses the budget is dropped and a
        # later, smaller one may still fit. The int sum stays below 2**53, and
        # int-float comparison is exact.
        limit = benign_budget + 1e-6
        delivered_bytes = delivered = 0
        for t, nid, size, seq in window_benign:
            if delivered_bytes + size > limit:
                continue
            delivered_bytes += size
            delivered += 1
            if distb:
                delivered_log.append((t, nid, size, seq))

        atk_delivered = atk_packets = 0
        for count, _ in attack_offered.values():
            atk_packets += count
            atk_delivered += int(count * attack_ratio)

        benign_dropped = generated - delivered
        atk_dropped = atk_generated - atk_delivered
        for key, value in (
            ("benign_generated", generated),
            ("benign_delivered", delivered),
            ("benign_dropped", benign_dropped),
            ("attack_generated", atk_generated),
            ("attack_delivered", atk_delivered),
            ("attack_dropped", atk_dropped),
            ("generated", generated + atk_generated),
            ("delivered", delivered + atk_delivered),
            ("dropped", benign_dropped + atk_dropped),
            ("blocked", n_blocked + atk_blocked),
        ):
            counters[key] += value
        return generated_bytes, delivered_bytes, atk_packets

    # Fixed cadence: one pass per settlement window, in the order documented
    # in the module docstring. Rounds need not fall on window ends. Window w
    # runs from ends[w - 1] to ends[w]; it takes the arrivals at t <= ends[w]
    # (the first window from t = 0) and its attack batches, batches[w].
    end = cfg.sim_time_ms
    ends = [*range(0, end, WINDOW_MS), end]
    arr_ends = [0, *np.searchsorted(arr_t, ends[1:], side="right").tolist()]
    last_tick = 0
    benign_bytes_generated = benign_bytes_delivered = benign_bytes_delivered_attack = 0
    cpu_acc_pkts = 0
    cpu_ewma = 0.0
    smoothing = cfg.resolved_calibration().cpu_smoothing
    cpu_samples: list[tuple[int, float]] = []
    try:
        for w in range(1, len(ends)):
            t1 = ends[w]
            while next_round_at() < t1:
                energy = do_round(energy)
            generated, delivered, attack_pkts = settle_window(ends[w - 1], t1, arr_ends[w - 1], arr_ends[w], batches[w])
            settled += 1
            benign_bytes_generated += generated
            benign_bytes_delivered += delivered
            if cfg.attack is not None:
                if cfg.attack.start_ms < t1 <= cfg.attack.stop_ms:
                    benign_bytes_delivered_attack += delivered
                cpu_acc_pkts += attack_pkts
                if t1 % CPU_SAMPLE_MS == 0:
                    kpps = cpu_acc_pkts / (CPU_SAMPLE_MS / 1000.0) / 1000.0
                    cpu_ewma = smoothing * kpps + (1.0 - smoothing) * cpu_ewma
                    cpu_samples.append((t1, cpu_ewma))
                    cpu_acc_pkts = 0
            if distb:
                changed = [block_flow(drop_table, src, t1) for src in flood_suspects(t1)]
                if any(changed):
                    refresh_verdicts()
            if next_round_at() == t1 < end:
                energy = do_round(energy)
            last_tick = t1
    except ExhaustedNetworkError:
        terminated_early = True

    return LinkResult(
        counters=counters,
        benign_bytes_generated=benign_bytes_generated,
        benign_bytes_delivered=benign_bytes_delivered,
        benign_bytes_delivered_attack_window=benign_bytes_delivered_attack,
        cpu_load_samples=cpu_samples,
        drop_table=drop_table,
        terminated_early=terminated_early,
        events_processed=settled,
        last_tick=last_tick,
        delivered=np.array(delivered_log, dtype=np.int32).reshape(-1, 4),
    )


def seal_pow(txs, prev_hash: bytes, difficulty: int, now: int, index: int) -> bc.Block:
    """A PoW block by brute force: the first nonce from 0 whose whole header
    hashes to `difficulty` leading zero bits."""
    sealer = bc.Sealer(kind="pow", difficulty=difficulty)
    tx_ids = [tx.tx_id for tx in txs]
    for nonce in itertools.count():
        block_hash = hashlib.sha256(block_header_bytes(index, now, prev_hash, tx_ids, sealer, nonce)).digest()
        if int.from_bytes(block_hash, "big") >> (256 - difficulty) == 0:
            return bc.Block(index, now, prev_hash, tuple(txs), nonce, sealer, block_hash)


def reference_ledger(cfg: ScenarioConfig, link: LinkResult, ledger: bc.Ledger, counters: dict) -> None:
    """The ledger stage one packet at a time, with its own registry, queue and
    waiting room: each delivered packet is built at its window end t1, the
    first window end at or after its own t (100 for t = 0), and
    refused if its tx id was seen before; a registered sensor's joins the
    queue and any other's is parked at t1. A block is sealed whenever
    `block_batch` are queued, and each sweep discards every entry parked
    t_pending_ms or more before it. All times are Python ints."""
    rng_misc = np.random.default_rng([cfg.seed, 3])
    names = [f"s-{i}" for i in range(cfg.node_count)]
    k = int(round(cfg.unregistered_fraction * cfg.node_count))
    unregistered = set(rng_misc.choice(cfg.node_count, size=k, replace=False).tolist())
    registered = {name for i, name in enumerate(names) if i not in unregistered}
    queue: list[bc.Transaction] = []
    parked: dict[bytes, int] = {}  # tx_id -> the window end it was parked at
    seen: set[bytes] = set()
    pos = cfg.consensus.kind == "pos"
    stakes = bc.stake_table(cfg.consensus.stakes_dict()) if pos else None

    def commit(txs, now: int) -> None:
        index = len(ledger.blocks)
        if pos:
            validator = bc.select_validator(stakes, (cfg.seed << 20) ^ index)
            block = bc.seal_block_pos(txs, ledger.tip_hash, validator, now, index)
        else:
            block = seal_pow(txs, ledger.tip_hash, cfg.consensus.difficulty, now, index)
        bc.append_block(ledger, block)
        counters["committed_txs"] += len(txs)

    commit([], 0)  # genesis
    end = cfg.sim_time_ms
    by_window: dict[int, list] = {}  # window end -> its packets, in log order
    for t, nid, size, seq in link.delivered.tolist():
        by_window.setdefault(min(max(-(-t // WINDOW_MS), 1) * WINDOW_MS, end), []).append((t, nid, size, seq))
    for w in range(1, link.events_processed + 1):
        t1 = min(w * WINDOW_MS, end)
        for t, nid, size, seq in by_window.get(t1, []):
            payload = f"{nid}|{seq}|{t}|{size}".encode()
            [tx] = bc.TxColumns(BS_ID).append([(names[nid], payload, t)])
            if tx.tx_id in seen:
                raise DuplicateTransactionError(f"tx {tx.tx_id.hex()} seen before")
            seen.add(tx.tx_id)
            if tx.sensor_id in registered:
                queue.append(tx)
            else:
                parked[tx.tx_id] = t1
                counters["parked_txs"] += 1
            if len(queue) == cfg.block_batch:
                commit(queue, t1)
                queue = []
        if t1 > link.last_tick:
            break  # a round at t1 exhausted the network before the mine
        if queue and (t1 % cfg.block_interval_ms == 0 or t1 == end):
            commit(queue, t1)
            queue = []
        if t1 % 1000 == 0 or t1 == end:
            for tx_id, at in list(parked.items()):
                if t1 - at >= cfg.t_pending_ms:
                    del parked[tx_id]
                    counters["expired_txs"] += 1
    counters["pending_at_end"] = len(parked)
    counters["queued_at_end"] = len(queue)
