"""Self-test of the benchmark on shrunk workloads.

Tracing and the host-speed gauge must leave every output byte unchanged,
per-layer counts must repeat exactly between traced runs, and the traced runs
must yield every per-layer metric BENCHMARK.json lists.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import signal

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import gauge  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from distb import simulator  # noqa: E402


def traced_run(name, cfg):
    tracer = spans.Tracer()
    with tracer.installed():
        wall_s, out = workloads.run(name, cfg, shrunk=True)
    unscaled = {"spent_s": 0.0, "samples": 0, "scale": 1.0}
    return {"wall_s": wall_s, "gauge": unscaled, "digest": workloads.digest(out), "trace": tracer.summary()}


@pytest.mark.parametrize("name", list(workloads.SHAPES))
def test_tracing_keeps_outputs_and_counts_repeat(name):
    cfg = workloads.set_up(name, 7, shrunk=True)
    wall_s, plain = workloads.run(name, cfg, shrunk=True)
    assert wall_s > 0
    assert workloads.check(name, cfg, plain, shrunk=True) == []
    first, second = traced_run(name, cfg), traced_run(name, cfg)
    assert first["digest"] == second["digest"] == workloads.digest(plain)
    assert first["trace"]["counts"] == second["trace"]["counts"]
    for span_name, span in first["trace"]["spans"].items():
        assert span["calls"] == second["trace"]["spans"][span_name]["calls"], span_name
        assert span["self_s"] >= 0.0, span_name
    entry = "simulator.measure_throughput" if name == workloads.BATTERY else "simulator.run_raw"
    assert first["trace"]["spans"][entry]["calls"] == 1


def test_wrappers_are_removed_on_exit():
    original = simulator.match_packet
    with spans.Tracer().installed():
        assert simulator.match_packet is not original
    assert simulator.match_packet is original


def test_every_listed_per_layer_metric_is_produced():
    cfg = workloads.set_up("flood-pos", 3, shrunk=True)
    wall_s, _ = workloads.run("flood-pos", cfg, shrunk=True)
    traced = [traced_run("flood-pos", cfg) for _ in range(2)]
    layer, problems = run.trace_metrics([{"wall_s": wall_s}], traced)
    assert problems == []
    listed = [m["name"] for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]]
    assert [n for n in listed if n not in layer] == []
    assert layer["sdn.match_packet.rules_per_lookup"] > 0
    assert layer["blockchain.seal_yield"] == 1.0  # proof of stake: one hash per block


def test_gauge_keeps_outputs_and_takes_its_own_time_out():
    cfg = workloads.set_up("ledger-pow", 5, shrunk=True)
    _, plain = workloads.run("ledger-pow", cfg, shrunk=True)
    meter = gauge.Gauge()
    meter.start(0.001)  # sample often enough that even the shrunk run is read
    try:
        mark = meter.mark()
        host_s, gauged = workloads.run("ledger-pow", cfg, shrunk=True)
        reading = meter.since(mark)
    finally:
        meter.stop()
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert workloads.digest(gauged) == workloads.digest(plain)
    assert reading["samples"] >= 1 and reading["scale"] > 0
    assert 0 < reading["spent_s"] < host_s
    assert gauge.steady_seconds(host_s, reading) == (host_s - reading["spent_s"]) * reading["scale"]
