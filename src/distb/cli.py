"""`distb` command line: run scenarios, compare modes, sweep node counts,
re-fit calibration, validate ledger exports, and print the embedded tables.

Exit codes: 0 success, 1 config error, 2 simulation error, 3 integrity
failure, 4 I/O or parse error. Metric files are staged and moved into the
output directory only after every file rendered, so a failed invocation
leaves no partial output.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from collections.abc import Iterable
from pathlib import Path

from . import blockchain as bc
from .calibration import load_reference_tables
from .config import ScenarioConfig, parse_config, validate_config
from .errors import ConfigError, DistbError
from .sdn import flow_table_to_dict
from .simulator import (
    bundle_from_raw,
    measure_bandwidth_under_attack,
    measure_cpu_flooding,
    measure_gas,
    measure_response_time,
    measure_throughput,
    recalibrate,
    run_raw,
    throughput_cfg,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SIM = 2
EXIT_INTEGRITY = 3
EXIT_IO = 4

CSV_HEADERS = {
    "throughput.csv": "nodes,distb_kbps,baseline_kbps",
    "bandwidth.csv": "arrival_rate_kps,distb_mbps,baseline_mbps",
    "response.csv": "file_mb,distb_ms,core_ms",
    "gas.csv": "tx_count,gas",
    "cpu.csv": "time_s,cpu_pct",
}


def _fmt(v) -> str:
    if isinstance(v, int):
        return str(v)
    return format(float(v), ".6g")


def render_csv(name: str, rows) -> str:
    lines = [CSV_HEADERS[name]]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _apply_env_seed(cfg: ScenarioConfig) -> ScenarioConfig:
    env = os.environ.get("DISTB_SEED")
    if env is None:
        return cfg
    try:
        seed = int(env)
    except ValueError as exc:
        raise ConfigError(f"DISTB_SEED must be an integer (got {env!r})") from exc
    return validate_config(cfg.with_(seed=seed))


def _load_config(path: str | None) -> ScenarioConfig:
    cfg = parse_config(path) if path else ScenarioConfig()
    return _apply_env_seed(cfg)


def _write_outputs(out_dir: Path, files: dict[str, str | Iterable[str]]) -> None:
    """Stage everything, then move into place; no partial output on failure.

    A file's content is a string or an iterable of lines, which is written
    to the staging file as it is produced."""
    out_dir.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=".distb-staging-", dir=out_dir))
    try:
        for name, content in files.items():
            with open(staging / name, "w") as f:
                if isinstance(content, str):
                    f.write(content)
                else:
                    f.writelines(content)
        for name in files:
            os.replace(staging / name, out_dir / name)
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def _battery_files(cfg: ScenarioConfig) -> tuple[dict[str, str], dict]:
    thr = measure_throughput(cfg)
    bw = measure_bandwidth_under_attack(cfg)
    resp = measure_response_time(cfg)
    gas = measure_gas(cfg)
    cpu = measure_cpu_flooding(cfg)
    files = {
        "throughput.csv": render_csv("throughput.csv", thr),
        "bandwidth.csv": render_csv("bandwidth.csv", bw),
        "response.csv": render_csv("response.csv", resp),
        "gas.csv": render_csv("gas.csv", gas),
        "cpu.csv": render_csv("cpu.csv", cpu),
    }
    series = {"throughput": thr, "bandwidth": bw, "response": resp, "gas": gas, "cpu": cpu}
    return files, series


def _manifest(cfg: ScenarioConfig, bundle, extra: dict | None = None) -> str:
    doc = {
        "config": cfg.to_dict(),
        "seed": cfg.seed,
        "calibration": cfg.resolved_calibration().to_dict(),
        "counters": {k: bundle.counters[k] for k in sorted(bundle.counters)},
        "terminated_early": bundle.terminated_early,
        "raw": {k: bundle.raw[k] for k in sorted(bundle.raw)},
    }
    if extra:
        doc.update(extra)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _flow_tables_json(raw) -> str:
    """The run's one drop table, which every gateway enforces."""
    doc = {"drop_table": flow_table_to_dict(raw.drop_table)}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def cmd_run(args) -> int:
    cfg = _load_config(args.config)
    files, _ = _battery_files(cfg)  # first: each battery refuses its own config before the main run
    raw = run_raw(cfg)
    bundle = bundle_from_raw(cfg, raw)
    files["manifest.json"] = _manifest(cfg, bundle)
    files["ledger.ndjson"] = bc.ledger_lines(raw.ledger)
    files["flow_tables.json"] = _flow_tables_json(raw)
    _write_outputs(Path(args.out), files)
    print(f"wrote {len(files)} files to {args.out}")
    return EXIT_OK


def _pct(part: float, whole: float) -> float | None:
    """part / whole in percent; None (JSON null) where whole is 0 and the figure is undefined."""
    return part / whole * 100.0 if whole else None


def cmd_compare(args) -> int:
    cfg = _load_config(args.config)
    files, series = _battery_files(cfg)  # first: each battery refuses its own config before the main runs
    raw_distb = run_raw(cfg.with_(mode="distb"))
    raw_base = run_raw(cfg.with_(mode="of-baseline"))
    bundle_distb = bundle_from_raw(cfg.with_(mode="distb"), raw_distb)
    bundle_base = bundle_from_raw(cfg.with_(mode="of-baseline"), raw_base)

    reduction = [_pct(core - d, core) for _, d, core in series["response"]]
    bw = series["bandwidth"]
    distb_col = [r[1] for r in bw]
    base_col = [r[2] for r in bw]
    main_distb_mbps = bundle_distb.raw["benign_mbps"]
    main_base_mbps = bundle_base.raw["benign_mbps"]
    summary = {
        "response_reduction_pct_avg": None if None in reduction else sum(reduction) / len(reduction),
        "bandwidth_drop_pct": {
            "distb": _pct(distb_col[0] - distb_col[-1], distb_col[0]),
            "baseline": _pct(base_col[0] - base_col[-1], base_col[0]),
        },
        "main_bandwidth_delta_pct": _pct(abs(main_distb_mbps - main_base_mbps), main_base_mbps),
        "throughput_ratio": {
            str(n): (d / b if b else None) for n, d, b in series["throughput"]
        },
    }
    files["summary.json"] = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    files["manifest.json"] = _manifest(
        cfg,
        bundle_distb,
        extra={"baseline_counters": {k: bundle_base.counters[k] for k in sorted(bundle_base.counters)}},
    )
    files["ledger.ndjson"] = bc.ledger_lines(raw_distb.ledger)
    files["flow_tables.json"] = _flow_tables_json(raw_distb)
    _write_outputs(Path(args.out), files)
    print(f"wrote {len(files)} files to {args.out}")
    return EXIT_OK


def _parse_nodes_spec(spec: str, cfg: ScenarioConfig) -> list[int]:
    """The --nodes counts; the largest one's run is validated before the list is built."""
    is_range = ":" in spec
    parts = spec.split(":") if is_range else [p for p in spec.split(",") if p]
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise ConfigError(f"--nodes expects integers (got {spec!r})") from None
    if is_range:
        if len(values) != 3:
            raise ConfigError("--nodes expects start:stop:step or a comma list")
        start, stop, step = values
        if step <= 0 or start < 1 or stop < start:
            raise ConfigError(f"bad --nodes range {spec!r}")
        values = range(start, stop + 1, step)
    elif not values or any(c < 1 for c in values):
        raise ConfigError(f"bad --nodes list {spec!r}")
    validate_config(throughput_cfg(cfg, values[-1] if is_range else max(values), "distb"), sealing=False)
    return list(values)


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    counts = _parse_nodes_spec(args.nodes, cfg)
    rows = measure_throughput(cfg, node_counts=counts)
    # The runs share throughput_cfg's config; each sets its own node_count and mode.
    shared = throughput_cfg(cfg, counts[0], "distb").to_dict()
    del shared["node_count"], shared["mode"]
    manifest = {
        "config": shared,
        "seed": cfg.seed,
        "calibration": cfg.resolved_calibration().to_dict(),
        "node_counts": counts,
    }
    files = {
        "throughput.csv": render_csv("throughput.csv", rows),
        "manifest.json": json.dumps(manifest, indent=2, sort_keys=True) + "\n",
    }
    _write_outputs(Path(args.out), files)
    print(f"wrote {len(files)} files to {args.out}")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    calib = recalibrate()
    tables = load_reference_tables()
    doc = calib.to_dict()

    gas_t = tables["gas"]
    gas_err = max(
        abs(bc.gas_for(int(n), calib.gas_base, calib.gas_per_tx) - g) / g
        for n, g in zip(gas_t["tx_count"], gas_t["gas"])
    )
    resp_t = tables["response_ms"]
    resp_err = 0.0
    for mode in ("distb", "core"):
        for s, y in zip(resp_t["file_mb"], resp_t[mode]):
            resp_err = max(resp_err, abs(calib.response_ms(mode, float(s)) - y) / y)
    print(f"gas: base={calib.gas_base:.3f} per_tx={calib.gas_per_tx:.3f} max_rel_err={gas_err:.4f}")
    for mode in ("distb", "core"):
        fit = doc["response"][mode]
        print(f"response[{mode}]: alpha={fit['alpha']:.3f} beta={fit['beta']:.3f}")
    print(f"response max_rel_err={resp_err:.4f}")
    print(f"cpu: base={calib.cpu_base_pct} kappa={calib.cpu_kappa:.4f} smoothing={calib.cpu_smoothing}")
    out = Path(args.out)
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_validate_chain(args) -> int:
    count, odd = 0, None  # blocks read, the first line that is not its block's canonical export

    def blocks(lines):  # each block checked as its line is parsed, and the line compared on the spot
        nonlocal count, odd
        for k, raw in enumerate(lines):
            line = raw.decode()  # no newline translation
            if line.strip():
                block = bc.block_from_dict(json.loads(line))
                count += 1
                yield block
            if odd is None and (not line.strip() or block is None or line != next(bc.ledger_lines(bc.Ledger([block])))):
                odd = k  # up to the first blank line, line k holds block k

    try:
        with open(args.ledger, "rb") as f:
            bad_index = bc.first_bad_block(blocks(f))
        if not count:
            raise ValueError("empty ledger file")
    except OSError:
        raise
    except Exception as exc:
        print(f"cannot parse ledger: {exc}", file=sys.stderr)
        return EXIT_IO
    note = ""
    if bad_index is None:  # a valid chain must also be its one canonical export, line for line
        bad_index, note = odd, " (not canonical)"
    if bad_index is None:
        print(f"chain valid ({count} blocks)")
        return EXIT_OK
    print(f"chain INVALID at block {bad_index}{note}")
    return EXIT_INTEGRITY


def cmd_tables(args) -> int:
    print(json.dumps(load_reference_tables(), indent=2, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="distb", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the scenario and emit metric CSVs")
    p_run.add_argument("-c", "--config", default=None, help="JSON config file (defaults apply)")
    p_run.add_argument("-o", "--out", required=True, help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run both modes and emit a comparison summary")
    p_cmp.add_argument("-c", "--config", default=None)
    p_cmp.add_argument("-o", "--out", required=True)
    p_cmp.set_defaults(func=cmd_compare)

    p_sweep = sub.add_parser("sweep", help="throughput sweep over node counts")
    p_sweep.add_argument("--nodes", required=True, help="start:stop:step or comma list")
    p_sweep.add_argument("-c", "--config", default=None)
    p_sweep.add_argument("-o", "--out", required=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_cal = sub.add_parser("calibrate", help="re-fit calibration from the embedded tables")
    p_cal.add_argument("-o", "--out", default="calibration.json")
    p_cal.set_defaults(func=cmd_calibrate)

    p_val = sub.add_parser("validate-chain", help="check a ledger export")
    p_val.add_argument("ledger")
    p_val.set_defaults(func=cmd_validate_chain)

    p_tab = sub.add_parser("tables", help="print the embedded reference tables")
    p_tab.set_defaults(func=cmd_tables)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DistbError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_SIM
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
