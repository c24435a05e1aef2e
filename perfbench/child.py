"""One benchmark run in a fresh process.

    python3 perfbench/child.py <workload> <seed> <setup|run|trace>

The process starts the host-speed gauge (gauge.py) first, then imports the
simulator from the checkout's `src/`, builds and validates the workload's
config and loads the calibration tables, then prints `ready`. `run.py`
takes the time from starting the process to that line as its set-up time.
Otherwise it runs the workload once (under the span tracer in `trace` mode),
stops the gauge, checks the outputs outside the timed region, and prints
one JSON line with the result. Every mode prints the gauge's reading over
set-up; `setup` mode prints nothing else.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

import gauge

GAUGE = gauge.Gauge()
GAUGE.start(gauge.SETUP_PERIOD_S)

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402

import distb  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def main(name: str, seed: int, mode: str) -> int:
    if not Path(distb.__file__).resolve().is_relative_to(SRC):
        print(f"distb was imported from {distb.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    cfg = workloads.set_up(name, seed)
    print("ready", flush=True)
    setup_gauge = GAUGE.since((0, 0.0))  # since the gauge started, before any import
    if mode == "setup":
        print(json.dumps({"setup_gauge": setup_gauge, "problems": []}), flush=True)
        return 0

    tracer = spans.Tracer()
    GAUGE.start(gauge.PERIOD_S)
    start = GAUGE.mark()
    if mode == "trace":
        with tracer.installed():
            host_s, out = workloads.run(name, cfg)
    else:
        host_s, out = workloads.run(name, cfg)
    run_gauge = GAUGE.since(start)
    GAUGE.stop()
    # Peak RSS of the run itself: taken before the checks allocate anything.
    maxrss_kb = sum(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    result = {
        "host_s": host_s,
        "wall_s": gauge.steady_seconds(host_s, run_gauge),
        "gauge": run_gauge,
        "setup_gauge": setup_gauge,
        "sim_s": workloads.simulated_seconds(name, cfg),
        "maxrss_kb": maxrss_kb,
        "problems": workloads.check(name, cfg, out),
        "digest": workloads.digest(out),
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__},
    }
    if mode == "trace":
        result["trace"] = tracer.summary()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    workload, seed_arg, run_mode = sys.argv[1:4]
    try:
        sys.exit(main(workload, int(seed_arg), run_mode))
    finally:
        GAUGE.stop()
