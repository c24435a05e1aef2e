"""distb benchmark driver.

    python3 perfbench/run.py --workload ledger-pow --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Runs one workload (or, with `all`, every workload with the order rotated
between rounds) for about `--seconds` per workload. Every run is a fresh
child process (child.py) started one at a time from this process. The
child's set-up time is taken from here, from starting it to its `ready`
line; its run time is taken inside it, around the library calls only.
Both are scaled to a fixed host speed by the gauge the child runs on its
own thread (gauge.py), since this shared host's speed drifts.
Each run's outputs are checked and digested outside the timed region, and
a run that fails its checks or crashes counts as a failed op.

With `--trace 0` the result holds the end-to-end metrics; with `--trace 1`
traced and untraced runs alternate and the result holds the per-layer
metrics listed in BENCHMARK.json. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. Lines before
it record the environment, each metric with its sample count, and the
output digest. Only in-process timers are used (perf_counter, thread_time,
getrusage): no system-wide tracing or hardware counters.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import gauge
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
WORKLOADS = ("ledger-pow", "flood-pos", "dense-baseline", "battery-sweep")

SPAN_FIELDS = ("incl_s", "self_s", "p50_us", "p99_us")
MIN_RUNS = 3  # per workload; with --trace 1, one untraced and two traced
SETUP_SAMPLES = 9  # set-up samples per workload, topped up with set-up-only children
DEADLINE_S = 170.0  # every child is killed by then

# Children keep compiled bytecode in the checkout, whatever the caller's settings,
# so every measured start loads it as an installed package would.
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
CHILD_ENV["PYTHONPYCACHEPREFIX"] = str(ROOT / ".bench_build" / "pycache")


@dataclass
class Child:
    """Outcome of one child process."""

    mode: str  # setup | run | trace
    setup_s: float | None = None  # steady seconds (gauge.py) from start to `ready`
    elapsed_s: float = 0.0
    result: dict | None = None
    error: str | None = None


def run_child(workload: str, seed: int, mode: str, deadline: float) -> Child:
    child = Child(mode)
    ready_s = None
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), workload, str(seed), mode],
        cwd=ROOT,
        env=CHILD_ENV,
        stdout=subprocess.PIPE,
        text=True,
    )
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        if first == "ready\n":
            ready_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    child.elapsed_s = time.perf_counter() - t0
    if proc.returncode != 0 or ready_s is None:
        child.error = f"{mode} child exited with code {proc.returncode}"
        return child
    try:
        child.result = json.loads(rest.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        child.error = f"{mode} child printed no result"
        return child
    child.setup_s = gauge.steady_seconds(ready_s, child.result["setup_gauge"])
    if child.result["problems"]:
        child.error = "; ".join(child.result["problems"])
    return child


def child_mode(index: int, trace: bool) -> str:
    """The n-th run of a workload: untraced always, or one untraced per two traced."""
    if not trace:
        return "run"
    return "run" if index % 3 == 0 else "trace"


def measure(workloads: list[str], seed: int, seconds: float, trace: bool) -> dict[str, list[Child]]:
    """Run children for every workload in rotated round-robin order until the budget is spent."""
    deadline = time.monotonic() + DEADLINE_S
    children: dict[str, list[Child]] = {w: [] for w in workloads}
    start = time.perf_counter()
    budget = seconds * len(workloads)
    rounds = 0
    while True:
        shift = rounds % len(workloads)
        for w in workloads[shift:] + workloads[:shift]:
            children[w].append(run_child(w, seed, child_mode(len(children[w]), trace), deadline))
        rounds += 1
        round_cost = sum(statistics.fmean(c.elapsed_s for c in children[w]) for w in workloads)
        if time.monotonic() + round_cost > deadline - 5.0:
            break
        if rounds >= MIN_RUNS and time.perf_counter() - start + round_cost > budget:
            break
    if not trace:
        for w in workloads:
            for _ in range(SETUP_SAMPLES - len(children[w])):
                if time.monotonic() > deadline - 5.0:
                    break
                children[w].append(run_child(w, seed, "setup", deadline))
    return children


def quartiles(values: list[float]) -> list[float]:
    """First quartile, median, third quartile."""
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def trace_metrics(runs: list[dict], traced: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Every per-layer figure the traced runs give: timings as medians, counts exact."""
    problems = []
    first = traced[0]["trace"]
    for other in traced[1:]:
        o = other["trace"]
        if o["counts"] != first["counts"] or any(
            o["spans"][n]["calls"] != first["spans"][n]["calls"] for n in first["spans"]
        ):
            problems.append("per-layer counts differ between traced runs")
            break
    out: dict[str, float] = {}
    for name, span in first["spans"].items():
        out[f"{name}.calls"] = span["calls"]
        for field in SPAN_FIELDS:
            # Span times, like wall_s, read at the gauge's nominal host speed.
            out[f"{name}.{field}"] = statistics.median(
                t["trace"]["spans"][name][field] * t["gauge"]["scale"] for t in traced
            )
    counts = first["counts"]
    out.update(counts)
    out["simulator.engine.self_s"] = out["simulator.run_raw.self_s"]
    out["blockchain.seal_yield"] = counts["blockchain.blocks"] / counts["blockchain.hashes"] if counts["blockchain.hashes"] else 0.0
    out["simulator.delivered_ratio"] = counts["simulator.delivered"] / counts["simulator.packets"] if counts["simulator.packets"] else 0.0
    lookups = first["spans"]["sdn.match_packet"]["calls"]
    out["sdn.match_packet.rules_per_lookup"] = counts["sdn.match_packet.rules_scanned"] / lookups if lookups else 0.0
    out["trace.overhead_s"] = statistics.median(t["wall_s"] for t in traced) - statistics.median(r["wall_s"] for r in runs)
    return out, problems


def summarize(workload: str, children: list[Child], trace: bool, spec: dict) -> dict:
    """Metrics, checks and human-readable lines for one workload."""
    runs = [c.result for c in children if c.mode == "run" and c.error is None]
    traced = [c.result for c in children if c.mode == "trace" and c.error is None]
    attempted = [c for c in children if c.mode != "setup"]
    problems = [f"{c.mode} child {i}: {c.error}" for i, c in enumerate(children) if c.error]
    digests = sorted({r["digest"] for r in runs + traced})
    if len(digests) > 1:
        problems.append(f"runs disagree on the output digest: {digests}")
    lines = []
    metrics: dict[str, float] = {}
    if runs:
        samples = {
            "wall_s": [r["wall_s"] for r in runs],
            "sim_s_per_s": [r["sim_s"] / r["wall_s"] for r in runs],
            "setup_s": [c.setup_s for c in children if c.setup_s is not None],
            "peak_rss_mb": [r["maxrss_kb"] / 1024.0 for r in runs],
        }
        for name, values in samples.items():
            q1, med, q3 = quartiles(values)
            metrics[name] = med
            lines.append(f"{workload:15s} {name:12s} {med:12.4f} {spec['units'].get(name, '')}"
                         f"  median of n={len(values)}, q1 {q1:.4f}, q3 {q3:.4f}")
        host_s = statistics.median(r["host_s"] for r in runs)
        scale = statistics.median(r["gauge"]["scale"] for r in runs)
        lines.append(f"{workload:15s} unscaled: host seconds per run {host_s:.4f} (median), "
                     f"host speed {scale:.4f} of nominal (median over runs of the gauge's mean)")
    if trace:
        if runs and len(traced) >= 2:
            layer, trace_problems = trace_metrics(runs, traced)
            problems += trace_problems
            lines += trace_table(workload, layer, traced[0]["trace"]["edges"], traced[0]["gauge"]["scale"])
            missing = [n for n in spec["per_layer"] if n not in layer]
            if missing:
                problems.append(f"per-layer metrics not produced: {missing}")
            metrics = {n: layer[n] for n in spec["per_layer"] if n in layer}
        else:
            problems.append("too few good runs for per-layer metrics (need 1 untraced, 2 traced)")
            metrics = {}
    failed = sum(c.error is not None for c in attempted)
    digest = digests[0] if len(digests) == 1 else "-"
    lines.append(f"{workload:15s} ops {len(attempted)}  ops_failed {failed}  digest {digest}")
    return {
        "metrics": metrics,
        "attempted": len(attempted),
        "failed": failed,
        "problems": problems,
        "lines": lines,
        "versions": (runs + traced)[0]["versions"] if runs + traced else None,
    }


def trace_table(workload: str, layer: dict[str, float], edges: dict, scale: float) -> list[str]:
    """Spans with calls, hottest self time first; then caller edges (of one traced run, scaled
    like the spans), counts and derived figures."""
    lines = [f"{workload:15s} {'span':36s} {'calls':>9s} " + " ".join(f"{f:>9s}" for f in SPAN_FIELDS)]
    for s in sorted((s for s in spans.SPAN_NAMES if layer[f"{s}.calls"]), key=lambda s: -layer[f"{s}.self_s"]):
        lines.append(f"{workload:15s} {s:36s} {layer[s + '.calls']:9d} "
                     + " ".join(f"{layer[f'{s}.{f}']:9.4f}" for f in SPAN_FIELDS))
    for edge, e in edges.items():
        lines.append(f"{workload:15s} {edge:60s} {e['calls']:9d} {e['incl_s'] * scale:9.4f}")
    span_keys = {f"{s}.{f}" for s in spans.SPAN_NAMES for f in ("calls",) + SPAN_FIELDS}
    for k in sorted(set(layer) - span_keys):
        lines.append(f"{workload:15s} {k:36s} {layer[k]:.6g}")
    return lines


def environment() -> dict:
    src_loc = sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "src_loc": src_loc,
        "timers": "in-process only: time.perf_counter, time.thread_time and getrusage; no system-wide tracing or hardware counters",
    }


def load_spec() -> dict:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = doc["end_to_end"] + doc["per_layer"]
    return {
        "per_layer": [m["name"] for m in doc["per_layer"]],
        "units": {m["name"]: m["unit"] for m in metrics},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "distb" / "__init__.py").is_file():
        print(f"no distb package under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    spec = load_spec()
    env = environment()
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]

    # One unmeasured start fills the bytecode cache; users do not pay for that on every run.
    warm = run_child(workloads[0], args.seed, "setup", time.monotonic() + DEADLINE_S)
    if warm.error:
        print(f"the simulator does not start: {warm.error}", file=sys.stderr)
        return 2

    children = measure(workloads, args.seed, args.seconds, bool(args.trace))
    results = {w: summarize(w, children[w], bool(args.trace), spec) for w in workloads}

    env["versions"] = next((r["versions"] for r in results.values() if r["versions"]), None)
    print(f"# distb benchmark: workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    for w in workloads:
        for line in results[w]["lines"]:
            print(line)
        for p in results[w]["problems"]:
            print(f"{w:15s} PROBLEM {p}")

    prefix = (lambda w, n: f"{w}.{n}") if len(workloads) > 1 else (lambda w, n: n)
    metrics = {
        prefix(w, n): {"value": v, "unit": spec["units"].get(n, "")}
        for w in workloads
        for n, v in results[w]["metrics"].items()
    }
    final = {
        "correct": all(not r["problems"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
