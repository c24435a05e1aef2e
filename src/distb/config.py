"""Scenario configuration: defaults, strict JSON parsing, validation."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

from .calibration import Calibration, load_default
from .errors import ConfigError

MODES = ("distb", "of-baseline")


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
class ScenarioConfig:
    mode: str = "distb"
    node_count: int = 50
    area_side_m: float = 2500.0
    seed: int = 42
    data_rate_mbps: float = 10.0
    packet_size_bytes: tuple[int, int] = (128, 1024)
    sim_time_ms: int = 500_000
    sensor_rate_pps: float = 10.0
    n_controllers: int = 5
    n_gateways: int = 2
    attack: AttackConfig | None = None
    consensus: ConsensusConfig = field(default_factory=ConsensusConfig)
    file_transfer_mb: tuple[float, ...] | None = None
    unregistered_fraction: float = 0.0
    round_period_ms: int = 10_000
    head_cost_j: float = 1.0
    tx_cost_j: float = 0.2
    energy_range_j: tuple[float, float] = (50.0, 100.0)
    coverage_range_m: tuple[float, float] = (100.0, 400.0)
    z_max_m: float = 30.0
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
        doc = {
            "mode": self.mode,
            "node_count": self.node_count,
            "area_side_m": self.area_side_m,
            "seed": self.seed,
            "data_rate_mbps": self.data_rate_mbps,
            "packet_size_bytes": list(self.packet_size_bytes),
            "sim_time_ms": self.sim_time_ms,
            "sensor_rate_pps": self.sensor_rate_pps,
            "n_controllers": self.n_controllers,
            "n_gateways": self.n_gateways,
            "attack": None
            if self.attack is None
            else {
                "start_ms": self.attack.start_ms,
                "stop_ms": self.attack.stop_ms,
                "sources": self.attack.sources,
                "multiplier": self.attack.multiplier,
                "ramp_ms": self.attack.ramp_ms,
            },
            "consensus": {
                "kind": self.consensus.kind,
                "difficulty": self.consensus.difficulty,
                "stakes": {k: v for k, v in self.consensus.stakes},
            },
            "file_transfer_mb": None if self.file_transfer_mb is None else list(self.file_transfer_mb),
            "unregistered_fraction": self.unregistered_fraction,
            "round_period_ms": self.round_period_ms,
            "head_cost_j": self.head_cost_j,
            "tx_cost_j": self.tx_cost_j,
            "energy_range_j": list(self.energy_range_j),
            "coverage_range_m": list(self.coverage_range_m),
            "z_max_m": self.z_max_m,
            "detector_window_ms": self.detector_window_ms,
            "detector_multiplier": self.detector_multiplier,
            "t_pending_ms": self.t_pending_ms,
            "block_batch": self.block_batch,
            "block_interval_ms": self.block_interval_ms,
        }
        return doc


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def validate_config(cfg: ScenarioConfig) -> ScenarioConfig:
    _require(cfg.mode in MODES, f"mode must be one of {MODES} (got {cfg.mode!r})")
    _require(cfg.node_count >= 1, f"node_count must be >= 1 (got {cfg.node_count})")
    _require(cfg.seed >= 0, f"seed must be >= 0 (got {cfg.seed})")
    _require(cfg.area_side_m > 0, f"area_side_m must be > 0 (got {cfg.area_side_m})")
    _require(cfg.sim_time_ms > 0, f"sim_time_ms must be > 0 (got {cfg.sim_time_ms})")
    _require(cfg.data_rate_mbps > 0, f"data_rate_mbps must be > 0 (got {cfg.data_rate_mbps})")
    _require(cfg.sensor_rate_pps > 0, f"sensor_rate_pps must be > 0 (got {cfg.sensor_rate_pps})")
    lo, hi = cfg.packet_size_bytes
    _require(0 < lo <= hi, f"packet_size_bytes must satisfy 0 < min <= max (got {lo}..{hi})")
    _require(cfg.n_controllers >= 1, f"n_controllers must be >= 1 (got {cfg.n_controllers})")
    _require(cfg.n_gateways >= 1, f"n_gateways must be >= 1 (got {cfg.n_gateways})")
    _require(
        0.0 <= cfg.unregistered_fraction <= 1.0,
        f"unregistered_fraction must be in [0, 1] (got {cfg.unregistered_fraction})",
    )
    _require(cfg.round_period_ms > 0, f"round_period_ms must be > 0 (got {cfg.round_period_ms})")
    _require(cfg.head_cost_j >= 0, f"head_cost_j must be >= 0 (got {cfg.head_cost_j})")
    _require(cfg.tx_cost_j >= 0, f"tx_cost_j must be >= 0 (got {cfg.tx_cost_j})")
    _require(cfg.detector_window_ms > 0, f"detector_window_ms must be > 0 (got {cfg.detector_window_ms})")
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
        _require(a.sources >= 1, f"attack.sources must be >= 1 (got {a.sources})")
        _require(a.multiplier > 0, f"attack.multiplier must be > 0 (got {a.multiplier})")
        _require(a.ramp_ms >= 0, f"attack.ramp_ms must be >= 0 (got {a.ramp_ms})")
    c = cfg.consensus
    _require(c.kind in ("pow", "pos"), f"consensus.kind must be pow or pos (got {c.kind!r})")
    if c.kind == "pow":
        _require(
            0 <= c.difficulty <= 256,
            f"consensus.difficulty must be in 0..256 bits (got {c.difficulty})",
        )
    else:
        stakes = c.stakes_dict()
        _require(bool(stakes), "consensus.stakes must name at least one validator")
        _require(all(v >= 0 for v in stakes.values()), "consensus.stakes must be non-negative")
        _require(any(v > 0 for v in stakes.values()), "consensus.stakes needs a positive stake")
    if cfg.calibration is not None:
        smoothing = cfg.calibration.cpu_smoothing
        _require(0 < smoothing <= 1, f"calibration cpu.smoothing must be in (0, 1] (got {smoothing})")
    if cfg.file_transfer_mb is not None:
        _require(
            all(s > 0 for s in cfg.file_transfer_mb),
            "file_transfer_mb sizes must be positive",
        )
    return cfg


_SIMPLE_KEYS = {
    "mode": str,
    "node_count": int,
    "area_side_m": float,
    "seed": int,
    "data_rate_mbps": float,
    "sim_time_ms": int,
    "sensor_rate_pps": float,
    "n_controllers": int,
    "n_gateways": int,
    "unregistered_fraction": float,
    "round_period_ms": int,
    "head_cost_j": float,
    "tx_cost_j": float,
    "z_max_m": float,
    "detector_window_ms": int,
    "detector_multiplier": float,
    "t_pending_ms": int,
    "block_batch": int,
    "block_interval_ms": int,
}

_PAIR_KEYS = {"packet_size_bytes", "energy_range_j", "coverage_range_m"}
_KNOWN_KEYS = (
    set(_SIMPLE_KEYS)
    | _PAIR_KEYS
    | {"attack", "consensus", "file_transfer_mb", "calibration"}
)


def config_from_dict(doc: dict) -> ScenarioConfig:
    """Build a config from a JSON-style dict; unknown keys are rejected."""
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(doc) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config key {sorted(unknown)[0]!r}")
    kwargs: dict = {}
    for key, caster in _SIMPLE_KEYS.items():
        if key in doc:
            try:
                kwargs[key] = caster(doc[key])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value for {key}: {doc[key]!r}") from exc
    for key in _PAIR_KEYS:
        if key in doc:
            val = doc[key]
            if not isinstance(val, (list, tuple)) or len(val) != 2:
                raise ConfigError(f"{key} must be a [min, max] pair")
            kwargs[key] = (float(val[0]), float(val[1]))
            if key == "packet_size_bytes":
                kwargs[key] = (int(val[0]), int(val[1]))
    if "attack" in doc and doc["attack"] is not None:
        a = dict(doc["attack"])
        unknown = set(a) - {"start_ms", "stop_ms", "sources", "multiplier", "ramp_ms"}
        if unknown:
            raise ConfigError(f"unknown attack key {sorted(unknown)[0]!r}")
        if "start_ms" not in a or "stop_ms" not in a:
            raise ConfigError("attack requires start_ms and stop_ms")
        kwargs["attack"] = AttackConfig(
            start_ms=int(a["start_ms"]),
            stop_ms=int(a["stop_ms"]),
            sources=int(a.get("sources", 5)),
            multiplier=float(a.get("multiplier", 10.0)),
            ramp_ms=int(a.get("ramp_ms", 0)),
        )
    if "consensus" in doc and doc["consensus"] is not None:
        c = dict(doc["consensus"])
        unknown = set(c) - {"kind", "difficulty", "stakes"}
        if unknown:
            raise ConfigError(f"unknown consensus key {sorted(unknown)[0]!r}")
        stakes = c.get("stakes") or {}
        kwargs["consensus"] = ConsensusConfig(
            kind=str(c.get("kind", "pow")),
            difficulty=int(c.get("difficulty", 8)),
            stakes=tuple(sorted((str(k), float(v)) for k, v in stakes.items())),
        )
    if "file_transfer_mb" in doc and doc["file_transfer_mb"] is not None:
        kwargs["file_transfer_mb"] = tuple(float(s) for s in doc["file_transfer_mb"])
    if "calibration" in doc and doc["calibration"] is not None:
        kwargs["calibration"] = Calibration.from_dict(doc["calibration"])
    return validate_config(ScenarioConfig(**kwargs))


def parse_config(path: str | Path) -> ScenarioConfig:
    """Read a JSON config file; absent fields take the defaults above."""
    text = Path(path).read_text()  # missing file surfaces as OSError
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    return config_from_dict(doc)
