"""Scenario configuration: defaults, strict JSON parsing, validation.

Each knob is declared once, as a dataclass field with its default; the five
topology knobs are `TopologyParams` fields that `ScenarioConfig` inherits.
The JSON echo (`to_dict`), the parser's known keys and each plain field's type
check (by annotation; a float must be finite) are read off those declarations.
`validate_config` runs the type checks, so configs built in Python meet them
too; only JSON is coerced (an integral float to an int, an int to a float).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from .calibration import Calibration, _is_finite_number, load_default
from .errors import ConfigError
from .topology import TopologyParams

MODES = ("distb", "of-baseline")
MAX_PACKET_BYTES = 65_535  # the largest IPv4 packet
# Five float64 draws per node, and in the clustering Geometry two copies of its coordinates, its strip and its
# cover (one shared `()` if empty): a sparse field at the cap, where every node heads, runs in 10 s and 250 MB.
MAX_NODES = 10**6
# Expected sensor packets per run, held as three int32 arrays. The link stage peaks near 35 B per arrival
# in of-baseline mode and 57 B in distb mode, 16 B of it the int32 delivered log (tracemalloc, 60 000 arrivals).
MAX_ARRIVALS = 10**8
# The chain retains about 150 B per committed transaction in the ledger stage's column store (blockchain.py):
# 32 + 32 B of id and checksum, the payload and 24 B of offset, timestamp and sensor reference, and about 35 B of
# blocks. It keeps no index over the ids, so the figure holds at any run size (tracemalloc, PoS over 20 s:
# 3 965 txs 148 B, 20 081 txs 151 B, 39 931 txs 145 B; the default run at d=0, 246 525 txs, 151 B).
MAX_ATTACK_PACKETS = 10**8  # expected attack packets per run; the detector counts them in int64
MAX_EXTENT_M = 10**7  # area_side_m and z_max_m: 10 000 km, so squared distances stay finite
MAX_SEAL_HASHES = 2**31  # expected pow hashes per run; the default run needs about 8 M
MAX_ATTACK_BATCHES = 10**6  # attack sources x windows; a flood-detector pass sorts at most one int64 key each
MAX_ATTACK_SOURCES = 1_000  # attack sources per run, the most the tests cover; a block costs one drop-table probe
MAX_STEPS = 10**6  # settlement windows, and clustering rounds, per run; the default run has 5 000 and 50
# node_count x clustering rounds per run. At 100 000 nodes in 2 500 m the first ten rounds, which find the
# covers, and the next ten each cost about 0.8 us a node-round, so capped work takes under a minute; the cap is
# MAX_NODES at the default horizon's 50 rounds, which the tests validate.
MAX_NODE_ROUNDS = 5 * 10**7
WINDOW_MS = 100  # the engine's settlement window; each attack source sends one batch per window


@dataclass(frozen=True)
class AttackConfig:
    start_ms: int
    stop_ms: int
    sources: int = 5
    multiplier: float = 10.0
    ramp_ms: int = 0  # 0 = constant multiplier; else linear ramp from 1x


@dataclass(frozen=True)
class ConsensusConfig:
    kind: str = "pow"  # pow | pos
    difficulty: int = 8
    stakes: tuple[tuple[str, float], ...] = ()

    def stakes_dict(self) -> dict[str, float]:
        return dict(self.stakes)


@dataclass(frozen=True)
class ScenarioConfig(TopologyParams):
    mode: str = "distb"
    node_count: int = 50
    area_side_m: float = 2500.0
    seed: int = 42
    data_rate_mbps: float = 10.0
    packet_size_bytes: tuple[int, int] = (128, 1024)
    sim_time_ms: int = 500_000
    sensor_rate_pps: float = 10.0
    attack: AttackConfig | None = None
    consensus: ConsensusConfig = field(default_factory=ConsensusConfig)
    unregistered_fraction: float = 0.0
    round_period_ms: int = 10_000
    detector_window_ms: int = 200
    detector_multiplier: float = 5.0
    t_pending_ms: int = 30_000
    block_batch: int = 8
    block_interval_ms: int = 1000
    calibration: Calibration | None = None  # None -> shipped default

    def resolved_calibration(self) -> Calibration:
        return self.calibration if self.calibration is not None else load_default()

    def with_(self, **kwargs) -> "ScenarioConfig":
        return replace(self, **kwargs)

    def to_dict(self) -> dict:
        """Every knob as JSON; the manifest echoes the calibration on its own."""
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "calibration"}
        doc = {k: list(v) if isinstance(v, tuple) else v for k, v in doc.items()}
        doc["attack"] = None if self.attack is None else asdict(self.attack)
        doc["consensus"] = {**asdict(self.consensus), "stakes": self.consensus.stakes_dict()}
        return doc


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def validate_config(cfg: ScenarioConfig, sealing: bool = True) -> ScenarioConfig:
    """`cfg` if it can run, else a ConfigError; sealing=False for a link-only run, which seals no block."""
    c = cfg.consensus
    sections = ((cfg, ScenarioConfig, ""), (cfg.attack, AttackConfig, "attack."), (c, ConsensusConfig, "consensus."))
    for obj, cls, prefix in sections:
        if obj is not None:  # the type checks come first, so every range check below compares numbers
            for name, (check, _) in _PLAIN_READERS[cls].items():
                check(prefix + name, getattr(obj, name))
    for entry in c.stakes:
        ok = isinstance(entry, tuple) and len(entry) == 2 and isinstance(entry[0], str)
        _require(ok, f"consensus.stakes entries must be (str name, weight) pairs (got {entry!r})")
        _finite("consensus.stakes", entry[1])
    _require(cfg.mode in MODES, f"mode must be one of {MODES} (got {cfg.mode!r})")
    _require(1 <= cfg.node_count <= MAX_NODES, f"node_count must be in 1..{MAX_NODES} (got {cfg.node_count})")
    _require(cfg.seed >= 0, f"seed must be >= 0 (got {cfg.seed})")
    _require(cfg.area_side_m > 0, f"area_side_m must be > 0 (got {cfg.area_side_m})")
    _require(cfg.sim_time_ms > 0, f"sim_time_ms must be > 0 (got {cfg.sim_time_ms})")
    _require(cfg.data_rate_mbps > 0, f"data_rate_mbps must be > 0 (got {cfg.data_rate_mbps})")
    _require(cfg.sensor_rate_pps > 0, f"sensor_rate_pps must be > 0 (got {cfg.sensor_rate_pps})")
    _require(cfg.z_max_m >= 0, f"z_max_m must be >= 0 (got {cfg.z_max_m})")
    for name in ("area_side_m", "z_max_m"):
        value = getattr(cfg, name)
        _require(value <= MAX_EXTENT_M, f"{name} must be <= {MAX_EXTENT_M} m (got {value})")
    # int * int is exact and int-vs-float comparison never overflows
    _require(
        cfg.node_count * cfg.sim_time_ms <= MAX_ARRIVALS * 1000 / cfg.sensor_rate_pps,
        f"expected arrivals node_count * sensor_rate_pps * sim_time_ms / 1000 must be <= {MAX_ARRIVALS} "
        f"(got {cfg.node_count} nodes at {cfg.sensor_rate_pps} pps for {cfg.sim_time_ms} ms)",
    )
    lo, hi = cfg.packet_size_bytes
    _require(
        0 < lo <= hi <= MAX_PACKET_BYTES,
        f"packet_size_bytes must satisfy 0 < min <= max <= {MAX_PACKET_BYTES} (got {lo}..{hi})",
    )
    for name in ("energy_range_j", "coverage_range_m"):
        lo, hi = getattr(cfg, name)
        _require(0 < lo <= hi, f"{name} must satisfy 0 < min <= max (got {lo}..{hi})")
    _require(
        0.0 <= cfg.unregistered_fraction <= 1.0,
        f"unregistered_fraction must be in [0, 1] (got {cfg.unregistered_fraction})",
    )
    _require(cfg.round_period_ms > 0, f"round_period_ms must be > 0 (got {cfg.round_period_ms})")
    for steps, period in (("settlement windows", WINDOW_MS), ("clustering rounds", cfg.round_period_ms)):
        _require(
            cfg.sim_time_ms <= MAX_STEPS * period,
            f"{steps} per run, sim_time_ms / {period} ms, must be <= {MAX_STEPS} (got {cfg.sim_time_ms} ms)",
        )
    rounds = -(-cfg.sim_time_ms // cfg.round_period_ms)  # due at 0, round_period_ms, ... before the horizon
    _require(
        cfg.node_count * rounds <= MAX_NODE_ROUNDS,
        f"clustering work node_count x rounds must be <= {MAX_NODE_ROUNDS} "
        f"(got {cfg.node_count} nodes x {rounds} rounds of {cfg.round_period_ms} ms)",
    )
    _require(cfg.head_cost_j >= 0, f"head_cost_j must be >= 0 (got {cfg.head_cost_j})")
    _require(cfg.tx_cost_j >= 0, f"tx_cost_j must be >= 0 (got {cfg.tx_cost_j})")
    _require(
        0 < cfg.detector_window_ms <= MAX_STEPS * WINDOW_MS,  # no run is longer; the detector subtracts it in int64
        f"detector_window_ms must be in 1..{MAX_STEPS * WINDOW_MS} (got {cfg.detector_window_ms})",
    )
    _require(cfg.detector_multiplier > 0, f"detector_multiplier must be > 0 (got {cfg.detector_multiplier})")
    _require(cfg.t_pending_ms > 0, f"t_pending_ms must be > 0 (got {cfg.t_pending_ms})")
    _require(cfg.block_batch >= 1, f"block_batch must be >= 1 (got {cfg.block_batch})")
    _require(cfg.block_interval_ms > 0, f"block_interval_ms must be > 0 (got {cfg.block_interval_ms})")
    if cfg.attack is not None:
        a = cfg.attack
        _require(
            0 <= a.start_ms < a.stop_ms <= cfg.sim_time_ms,
            f"attack window must satisfy 0 <= start < stop <= sim_time_ms "
            f"(got {a.start_ms}..{a.stop_ms} in {cfg.sim_time_ms})",
        )
        _require(
            1 <= a.sources <= MAX_ATTACK_SOURCES,
            f"attack.sources must be in 1..{MAX_ATTACK_SOURCES} (got {a.sources})",
        )
        windows = len(range(a.start_ms, a.stop_ms, WINDOW_MS))
        _require(
            a.sources * windows <= MAX_ATTACK_BATCHES,
            f"attack.sources x {WINDOW_MS} ms attack windows must be <= {MAX_ATTACK_BATCHES} "
            f"(got {a.sources} x {windows})",
        )
        _require(a.multiplier > 0, f"attack.multiplier must be > 0 (got {a.multiplier})")
        _require(a.ramp_ms >= 0, f"attack.ramp_ms must be >= 0 (got {a.ramp_ms})")
        packets = a.sources * a.multiplier * cfg.sensor_rate_pps * (a.stop_ms - a.start_ms) / 1000
        _require(
            packets <= MAX_ATTACK_PACKETS,
            f"expected attack packets attack.sources x attack.multiplier x sensor_rate_pps x "
            f"(stop_ms - start_ms) / 1000 must be <= {MAX_ATTACK_PACKETS} (got {packets:.3g})",
        )
    _require(c.kind in ("pow", "pos"), f"consensus.kind must be pow or pos (got {c.kind!r})")
    if c.kind == "pow":
        _require(
            0 <= c.difficulty <= 256,
            f"consensus.difficulty must be in 0..256 bits (got {c.difficulty})",
        )
        arrivals = cfg.node_count * cfg.sensor_rate_pps * cfg.sim_time_ms / 1000
        blocks = 1 + cfg.sim_time_ms / cfg.block_interval_ms + arrivals / cfg.block_batch
        _require(
            not sealing or blocks * 2.0**c.difficulty <= MAX_SEAL_HASHES,
            f"expected sealing work (1 + sim_time_ms / block_interval_ms + arrivals / block_batch) "
            f"x 2^difficulty must be <= {MAX_SEAL_HASHES} hashes (got {blocks:.0f} x 2^{c.difficulty})",
        )
    else:
        stakes = c.stakes_dict()
        _require(bool(stakes), "consensus.stakes must name at least one validator")
        for name in stakes:  # a seal carries its validator's name as UTF-8, which has no surrogates
            _require(
                name and not any("\ud800" <= c <= "\udfff" for c in name),
                f"consensus.stakes names must be non-empty UTF-8 (got {name!r})",
            )
        _require(all(v >= 0 for v in stakes.values()), "consensus.stakes must be non-negative")
        _require(sum(stakes.values()) < math.inf, "consensus.stakes must sum to a finite total")
        _require(any(v > 0 for v in stakes.values()), "consensus.stakes needs a positive stake")
    if cfg.calibration is not None:
        smoothing = cfg.calibration.cpu_smoothing
        _require(0 < smoothing <= 1, f"calibration cpu.smoothing must be in (0, 1] (got {smoothing})")
    return cfg


def _is_a(what: str, test):
    """The strict check of one type: a ConfigError naming the field unless `test(value)` holds."""

    def check(key: str, value) -> None:
        if not test(value):
            raise ConfigError(f"{key} must be {what} (got {value!r})")

    return check


def _check_pair(key: str, value, check) -> None:
    if not isinstance(value, tuple) or len(value) != 2:
        raise ConfigError(f"{key} must be a [min, max] pair")
    check(key, value[0])
    check(key, value[1])


def _integer(value):
    return int(value) if isinstance(value, float) and value.is_integer() else value


def _real(value):  # so the manifest echoes a float knob as one
    return float(value) if isinstance(value, int) and _is_finite_number(value) else value


def _pair(read):
    return lambda value: tuple(map(read, value)) if isinstance(value, (list, tuple)) and len(value) == 2 else value


def _object(key: str, value) -> dict:
    if isinstance(value, dict):
        return value
    raise ConfigError(f"{key} must be a JSON object (got {value!r})")


_int = _is_a("an integer", lambda value: type(value) is int)  # a bool is an int subclass, so it fails
_finite = _is_a("a finite number", _is_finite_number)  # a range check alone would let an infinity through
# Per annotation as written: the strict type check validate_config runs on a plain field, and how
# config_from_dict normalises a JSON value for it first: an integral float to an int, an int to a float
# and a two-item list to a tuple. It leaves every other value as it is, for the check to refuse.
_READERS = {
    "int": (_int, _integer),
    "float": (_finite, _real),
    "str": (_is_a("a string", lambda value: isinstance(value, str)), lambda value: value),
    "tuple[int, int]": (lambda key, value: _check_pair(key, value, _int), _pair(_integer)),
    "tuple[float, float]": (lambda key, value: _check_pair(key, value, _finite), _pair(_real)),
}
# The fields config_from_dict reads by hand; every other field needs a reader.
_HAND_PARSED = frozenset({"attack", "consensus", "stakes", "calibration"})


def _plain_readers(cls) -> dict:
    readers = {}
    for f in fields(cls):
        if f.name not in _HAND_PARSED:
            if f.type not in _READERS:  # a knob the parser would silently drop, and no check would type
                raise TypeError(f"{cls.__name__}.{f.name}: no config reader for {f.type!r}")
            readers[f.name] = _READERS[f.type]
    return readers


_PLAIN_READERS = {cls: _plain_readers(cls) for cls in (ScenarioConfig, AttackConfig, ConsensusConfig)}


def _read_plain(cls, doc: dict, section: str = "config") -> dict:
    """The plain fields of `cls` that `doc` sets, normalised by annotation; unknown keys are refused."""
    unknown = set(doc) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {section} key {sorted(unknown)[0]!r}")
    return {name: read(doc[name]) for name, (_, read) in _PLAIN_READERS[cls].items() if name in doc}


def config_from_dict(doc: dict) -> ScenarioConfig:
    """Build a config from a JSON-style dict; unknown keys and mistyped values are rejected."""
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    kwargs = _read_plain(ScenarioConfig, doc)
    if doc.get("attack") is not None:
        a = _read_plain(AttackConfig, _object("attack", doc["attack"]), "attack")
        if "start_ms" not in a or "stop_ms" not in a:
            raise ConfigError("attack requires start_ms and stop_ms")
        kwargs["attack"] = AttackConfig(**a)
    if doc.get("consensus") is not None:
        c = _object("consensus", doc["consensus"])
        stakes = {} if c.get("stakes") is None else _object("consensus.stakes", c["stakes"])
        kwargs["consensus"] = ConsensusConfig(
            **_read_plain(ConsensusConfig, c, "consensus"),
            stakes=tuple(sorted((str(k), _real(v)) for k, v in stakes.items())),
        )
    if doc.get("calibration") is not None:
        kwargs["calibration"] = Calibration.from_dict(_object("calibration", doc["calibration"]))
    return validate_config(ScenarioConfig(**kwargs))


def parse_config(path: str | Path) -> ScenarioConfig:
    """Read a UTF-8 JSON config file; absent fields take the defaults above."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))  # a missing file surfaces as OSError
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"config file is not valid UTF-8 JSON: {exc}") from exc
    return config_from_dict(doc)
