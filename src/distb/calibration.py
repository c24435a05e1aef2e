"""Calibration record and table fits.

Desk-scale event simulation cannot derive testbed-grade figures from first
principles, so the reproduction is calibrated explicitly and auditable:

* gas is an ordinary least-squares affine fit over the embedded gas table;
* response time is an affine fit in log2(file size), least squares on
  relative residuals so the small sizes carry their weight;
* throughput and bandwidth keep the embedded reference rows as per-mode
  envelope anchors (piecewise-linear between anchors) plus the raw figures
  the nominal simulation produced when the calibration was computed; at run
  time a metric is envelope * (raw / nominal raw), so the simulated dynamics
  still move the number when a scenario deviates from the nominal setup;
* the CPU model is base + kappa * smoothed unblocked attack load, with kappa
  chosen so the nominal flooding scenario peaks at the reference peak.

`distb calibrate` recomputes everything from the embedded tables and prints
residuals; the shipped default record is exactly that output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import ConfigError

_REF_CACHE: dict | None = None
_DEFAULT_CACHE = None


def load_reference_tables() -> dict:
    """Embedded reference tables (versioned fixture, see data/reference_tables.json)."""
    global _REF_CACHE
    if _REF_CACHE is None:
        text = resources.files("distb.data").joinpath("reference_tables.json").read_text()
        _REF_CACHE = json.loads(text)
    return _REF_CACHE


def fit_gas(tables: dict | None = None) -> tuple[float, float]:
    """Affine least squares over the gas table: returns (base, per_tx)."""
    t = (tables or load_reference_tables())["gas"]
    n = np.asarray(t["tx_count"], dtype=float)
    y = np.asarray(t["gas"], dtype=float)
    a = np.vstack([np.ones_like(n), n]).T
    (base, per_tx), *_ = np.linalg.lstsq(a, y, rcond=None)
    return float(base), float(per_tx)


def fit_response(tables: dict | None = None) -> dict[str, dict[str, float]]:
    """Per-mode (alpha, beta) for response_ms = alpha + beta * log2(file_mb).

    Least squares on relative residuals: minimizes sum(((a+b*u)-y)/y)^2.
    """
    t = (tables or load_reference_tables())["response_ms"]
    u = np.log2(np.asarray(t["file_mb"], dtype=float))
    out = {}
    for mode in ("distb", "core"):
        y = np.asarray(t[mode], dtype=float)
        a = np.vstack([1.0 / y, u / y]).T
        (alpha, beta), *_ = np.linalg.lstsq(a, np.ones_like(y), rcond=None)
        out[mode] = {"alpha": float(alpha), "beta": float(beta)}
    return out


@dataclass(frozen=True)
class Calibration:
    gas_base: float
    gas_per_tx: float
    response: dict  # mode -> {"alpha": float, "beta": float}; modes distb/core
    throughput_nodes: tuple
    throughput_env: dict  # mode -> values at throughput_nodes; modes distb/baseline
    throughput_nominal: dict  # mode -> raw simulated kbps at the same anchors
    bandwidth_rates: tuple
    bandwidth_env: dict
    bandwidth_nominal: dict  # raw simulated Mbps during the nominal attack runs
    cpu_base_pct: float
    cpu_kappa: float
    cpu_smoothing: float

    # -- model evaluation ---------------------------------------------------

    def response_ms(self, mode: str, size_mb: float) -> float:
        if size_mb <= 0:
            raise ConfigError(f"file size must be positive (got {size_mb})")
        fit = self.response["core" if mode != "distb" else "distb"]
        return fit["alpha"] + fit["beta"] * float(np.log2(size_mb))

    def throughput_envelope(self, mode: str, n: int) -> float:
        key = "distb" if mode == "distb" else "baseline"
        return float(np.interp(n, self.throughput_nodes, self.throughput_env[key]))

    def throughput_nominal_kbps(self, mode: str, n: int) -> float:
        key = "distb" if mode == "distb" else "baseline"
        return float(np.interp(n, self.throughput_nodes, self.throughput_nominal[key]))

    def bandwidth_envelope(self, mode: str, rate_kpps: float) -> float:
        key = "distb" if mode == "distb" else "baseline"
        return float(np.interp(rate_kpps, self.bandwidth_rates, self.bandwidth_env[key]))

    def bandwidth_nominal_mbps(self, mode: str, rate_kpps: float) -> float:
        key = "distb" if mode == "distb" else "baseline"
        return float(np.interp(rate_kpps, self.bandwidth_rates, self.bandwidth_nominal[key]))

    # -- (de)serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "gas": {"base": self.gas_base, "per_tx": self.gas_per_tx},
            "response": {m: dict(v) for m, v in sorted(self.response.items())},
            "throughput": {
                "nodes": list(self.throughput_nodes),
                "env": {m: list(v) for m, v in sorted(self.throughput_env.items())},
                "nominal": {m: list(v) for m, v in sorted(self.throughput_nominal.items())},
            },
            "bandwidth": {
                "rates": list(self.bandwidth_rates),
                "env": {m: list(v) for m, v in sorted(self.bandwidth_env.items())},
                "nominal": {m: list(v) for m, v in sorted(self.bandwidth_nominal.items())},
            },
            "cpu": {
                "base_pct": self.cpu_base_pct,
                "kappa": self.cpu_kappa,
                "smoothing": self.cpu_smoothing,
            },
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "Calibration":
        unknown = set(doc) - set(_SHAPE)
        if unknown:
            raise ConfigError(f"unknown calibration key {sorted(unknown)[0]!r}")
        _check_shape(doc, _SHAPE, "calibration")
        for table, anchors in (("throughput", "nodes"), ("bandwidth", "rates")):
            n = len(doc[table][anchors])
            for part in ("env", "nominal"):
                for mode, values in doc[table][part].items():
                    if len(values) != n:
                        where = f"calibration.{table}.{part}.{mode}"
                        raise ConfigError(f"{where} needs {n} values, one per {anchors} entry")
        return cls(
            gas_base=float(doc["gas"]["base"]),
            gas_per_tx=float(doc["gas"]["per_tx"]),
            response={m: dict(v) for m, v in doc["response"].items()},
            throughput_nodes=tuple(doc["throughput"]["nodes"]),
            throughput_env={m: tuple(v) for m, v in doc["throughput"]["env"].items()},
            throughput_nominal={m: tuple(v) for m, v in doc["throughput"]["nominal"].items()},
            bandwidth_rates=tuple(doc["bandwidth"]["rates"]),
            bandwidth_env={m: tuple(v) for m, v in doc["bandwidth"]["env"].items()},
            bandwidth_nominal={m: tuple(v) for m, v in doc["bandwidth"]["nominal"].items()},
            cpu_base_pct=float(doc["cpu"]["base_pct"]),
            cpu_kappa=float(doc["cpu"]["kappa"]),
            cpu_smoothing=float(doc["cpu"]["smoothing"]),
        )


# The fields a calibration record must carry: a number where the shape has
# 0.0, a non-empty list of numbers where it has [].
_MODES = {"distb": [], "baseline": []}
_SHAPE = {
    "gas": {"base": 0.0, "per_tx": 0.0},
    "response": {"distb": {"alpha": 0.0, "beta": 0.0}, "core": {"alpha": 0.0, "beta": 0.0}},
    "throughput": {"nodes": [], "env": _MODES, "nominal": _MODES},
    "bandwidth": {"rates": [], "env": _MODES, "nominal": _MODES},
    "cpu": {"base_pct": 0.0, "kappa": 0.0, "smoothing": 0.0},
}


def _is_finite_number(value) -> bool:
    try:
        return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an int beyond float range
        return False


def _check_shape(value, shape, where: str) -> None:
    """Raise ConfigError unless `value` has the nested layout of `shape`."""
    if isinstance(shape, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{where} must be a JSON object")
        for key, sub in shape.items():
            if key not in value:
                raise ConfigError(f"{where} is missing field {key!r}")
            _check_shape(value[key], sub, f"{where}.{key}")
    elif isinstance(shape, list):
        if not isinstance(value, list) or not value or not all(map(_is_finite_number, value)):
            raise ConfigError(f"{where} must be a non-empty list of finite numbers")
    elif not _is_finite_number(value):
        raise ConfigError(f"{where} must be a finite number (got {value!r})")


def load_default() -> Calibration:
    """The shipped calibration record (regenerable via `distb calibrate`)."""
    global _DEFAULT_CACHE
    if _DEFAULT_CACHE is None:
        text = resources.files("distb.data").joinpath("default_calibration.json").read_text()
        _DEFAULT_CACHE = Calibration.from_dict(json.loads(text))
    return _DEFAULT_CACHE
