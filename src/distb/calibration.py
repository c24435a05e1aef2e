"""Calibration record and table fits.

Desk-scale event simulation cannot derive testbed-grade figures from first
principles, so the reproduction is calibrated explicitly and auditable:

* gas is an ordinary least-squares affine fit over the embedded gas table;
* response time is an affine fit in log2(file size), least squares on
  relative residuals so the small sizes carry their weight;
* throughput and bandwidth keep the embedded reference rows as per-mode
  envelope anchors (piecewise-linear between anchors) plus the raw figures
  the nominal simulation produced when the calibration was computed; a
  battery turns a raw figure into envelope * (raw / nominal raw), so the
  simulated dynamics still move the number when a scenario deviates from the
  nominal setup;
* the CPU model is base + kappa * smoothed unblocked attack load, with kappa
  chosen so the nominal flooding scenario peaks at the reference peak.

A `Calibration` holds its checked JSON document, whose layout `_SHAPE` alone
declares; every level of it refuses unknown keys. `distb calibrate`
recomputes everything from the embedded tables and prints residuals; the
shipped default record is exactly that output.
"""
from __future__ import annotations

import copy
import functools
import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import ConfigError


@functools.cache
def load_reference_tables() -> dict:
    """Embedded reference tables (versioned fixture, see data/reference_tables.json)."""
    return json.loads(resources.files("distb.data").joinpath("reference_tables.json").read_text())


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


# The calibration record's layout: a number where the shape has 0.0, a
# non-empty list of numbers where it has []. Each table's env and nominal rows
# hold one value per anchor, and its anchors (`_ANCHORS`) strictly increase.
_MODES = {"distb": [], "baseline": []}
_SHAPE = {
    "gas": {"base": 0.0, "per_tx": 0.0},
    "response": {"distb": {"alpha": 0.0, "beta": 0.0}, "core": {"alpha": 0.0, "beta": 0.0}},
    "throughput": {"nodes": [], "env": _MODES, "nominal": _MODES},
    "bandwidth": {"rates": [], "env": _MODES, "nominal": _MODES},
    "cpu": {"base_pct": 0.0, "kappa": 0.0, "smoothing": 0.0},
}
_ANCHORS = {"throughput": "nodes", "bandwidth": "rates"}


@dataclass(frozen=True)
class Calibration:
    """A calibration document laid out as `_SHAPE`; build one with `from_dict`."""

    doc: dict

    gas_base = property(lambda self: float(self.doc["gas"]["base"]))
    gas_per_tx = property(lambda self: float(self.doc["gas"]["per_tx"]))
    cpu_base_pct = property(lambda self: float(self.doc["cpu"]["base_pct"]))
    cpu_kappa = property(lambda self: float(self.doc["cpu"]["kappa"]))
    cpu_smoothing = property(lambda self: float(self.doc["cpu"]["smoothing"]))

    def response_ms(self, mode: str, size_mb: float) -> float:
        if size_mb <= 0:
            raise ConfigError(f"file size must be positive (got {size_mb})")
        fit = self.doc["response"]["distb" if mode == "distb" else "core"]
        return fit["alpha"] + fit["beta"] * float(np.log2(size_mb))

    def _interp(self, table: str, part: str, mode: str, x: float) -> float:
        t = self.doc[table]
        return float(np.interp(x, t[_ANCHORS[table]], t[part]["distb" if mode == "distb" else "baseline"]))

    def scaled(self, table: str, mode: str, x: float, raw: float) -> float:
        """`table`'s value at anchor x for raw figure `raw`: envelope * raw/nominal (the envelope if nominal is 0)."""
        nominal = self._interp(table, "nominal", mode, x)
        return self._interp(table, "env", mode, x) * (raw / nominal if nominal > 0 else 1.0)

    def to_dict(self) -> dict:
        return copy.deepcopy(self.doc)

    @classmethod
    def from_dict(cls, doc: dict) -> "Calibration":
        _check_shape(doc, _SHAPE, "calibration")
        for table, anchors in _ANCHORS.items():
            xs = doc[table][anchors]
            for part in ("env", "nominal"):
                for mode, values in doc[table][part].items():
                    if len(values) != len(xs):
                        where = f"calibration.{table}.{part}.{mode}"
                        raise ConfigError(f"{where} needs {len(xs)} values, one per {anchors} entry")
            if any(a >= b for a, b in zip(xs, xs[1:])):  # np.interp does not check
                raise ConfigError(f"calibration.{table}.{anchors} must be strictly increasing")
        return cls(copy.deepcopy(doc))


def _is_finite_number(value) -> bool:
    try:
        return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an int beyond float range
        return False


def _check_shape(value, shape, where: str) -> None:
    """Raise ConfigError unless `value` has the nested layout of `shape`, and no more."""
    if isinstance(shape, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{where} must be a JSON object")
        unknown = sorted(set(value) - set(shape))
        if unknown:
            raise ConfigError(f"unknown {where} key {unknown[0]!r}")
        for key, sub in shape.items():
            if key not in value:
                raise ConfigError(f"{where} is missing field {key!r}")
            _check_shape(value[key], sub, f"{where}.{key}")
    elif isinstance(shape, list):
        if not isinstance(value, list) or not value or not all(map(_is_finite_number, value)):
            raise ConfigError(f"{where} must be a non-empty list of finite numbers")
    elif not _is_finite_number(value):
        raise ConfigError(f"{where} must be a finite number (got {value!r})")


@functools.cache
def load_default() -> Calibration:
    """The shipped calibration record (regenerable via `distb calibrate`)."""
    text = resources.files("distb.data").joinpath("default_calibration.json").read_text()
    return Calibration.from_dict(json.loads(text))
