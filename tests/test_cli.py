import contextlib
import io
import json
import math
import os
import stat
import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from distb.blockchain import export_ledger
from distb.calibration import load_default
from distb.cli import CSV_HEADERS, EXIT_CONFIG, EXIT_INTEGRITY, EXIT_IO, EXIT_OK, EXIT_SIM, _write_outputs, main
from distb.config import (
    MAX_ARRIVALS,
    MAX_ATTACK_PACKETS,
    MAX_ATTACK_SOURCES,
    MAX_EXTENT_M,
    MAX_PACKET_BYTES,
    MAX_STEPS,
    WINDOW_MS,
    config_from_dict,
    parse_config,
)
from distb.simulator import run_raw

SMALL_CFG = {
    "node_count": 8,
    "sim_time_ms": 2000,
    "seed": 5,
}


# A horizon whose expected arrivals and seals stay small
HUGE_HORIZON = {"sim_time_ms": 10**12, "node_count": 1, "sensor_rate_pps": 1e-4}


@pytest.fixture
def small_cfg_path(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(SMALL_CFG))
    return path


@pytest.fixture(scope="module")
def run_out(tmp_path_factory):
    """The output directory of one `distb run` on SMALL_CFG, shared by the tests that read it."""
    tmp = tmp_path_factory.mktemp("export")
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps(SMALL_CFG))
    assert main(["run", "-c", str(cfg), "-o", str(tmp / "out")]) == EXIT_OK
    return tmp / "out"


@pytest.fixture(scope="module")
def run_export(run_out):
    """The lines of that run's ledger export, shared by the tests that edit it."""
    return (run_out / "ledger.ndjson").read_text().splitlines()


def read_metric_files(out_dir):
    return {name: (out_dir / name).read_bytes() for name in CSV_HEADERS}


def test_run_writes_expected_files(run_out):
    for name, header in CSV_HEADERS.items():
        text = (run_out / name).read_text()
        assert text.splitlines()[0] == header
    assert (run_out / "manifest.json").exists()
    assert (run_out / "ledger.ndjson").exists()
    assert (run_out / "flow_tables.json").exists()
    manifest = json.loads((run_out / "manifest.json").read_text())
    assert manifest["seed"] == 5
    assert manifest["counters"]["generated"] == manifest["counters"]["delivered"] + manifest["counters"]["dropped"]


def test_run_twice_is_byte_identical(tmp_path, small_cfg_path, run_out):
    out = tmp_path / "again"
    assert main(["run", "-c", str(small_cfg_path), "-o", str(out)]) == EXIT_OK
    assert read_metric_files(out) == read_metric_files(run_out)
    assert (out / "ledger.ndjson").read_bytes() == (run_out / "ledger.ndjson").read_bytes()


@pytest.mark.parametrize(
    "doc",
    [{"nodecount": 5}, {"n_controllers": 5}, {"n_gateways": 2}, {"file_transfer_mb": [2.0, 32.0]}],
    ids=["misspelt", "retired", "retired-gateways", "retired-file-sizes"],
)
def test_unknown_config_key_exit_1(tmp_path, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["run", "-c", str(bad), "-o", str(tmp_path / "out")]) == EXIT_CONFIG


def test_missing_config_exit_4(tmp_path):
    assert main(["run", "-c", str(tmp_path / "nope.json"), "-o", str(tmp_path / "out")]) == EXIT_IO


def test_unwritable_out_dir_no_partial_files(tmp_path, small_cfg_path):
    if os.geteuid() == 0:
        pytest.skip("permission bits do not bind as root")
    locked = tmp_path / "locked"
    locked.mkdir()
    locked.chmod(stat.S_IRUSR | stat.S_IXUSR)
    try:
        code = main(["run", "-c", str(small_cfg_path), "-o", str(locked / "out")])
        assert code == EXIT_IO
        assert list(locked.iterdir()) == []
    finally:
        locked.chmod(stat.S_IRWXU)


def test_out_dir_path_collides_with_file(tmp_path, small_cfg_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("i am a file")
    code = main(["run", "-c", str(small_cfg_path), "-o", str(blocker / "out")])
    assert code == EXIT_IO


def test_distb_seed_env_overrides(tmp_path, small_cfg_path, monkeypatch):
    out = tmp_path / "out"
    monkeypatch.setenv("DISTB_SEED", "99")
    assert main(["run", "-c", str(small_cfg_path), "-o", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 99


def test_distb_seed_env_rejects_garbage(tmp_path, small_cfg_path, monkeypatch):
    monkeypatch.setenv("DISTB_SEED", "not-a-number")
    assert main(["run", "-c", str(small_cfg_path), "-o", str(tmp_path / "out")]) == EXIT_CONFIG


def test_distb_seed_env_rejects_negative(tmp_path, small_cfg_path, monkeypatch, capsys):
    monkeypatch.setenv("DISTB_SEED", "-1")
    assert main(["run", "-c", str(small_cfg_path), "-o", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err.strip().splitlines() == ["config error: seed must be >= 0 (got -1)"]


@pytest.mark.parametrize(
    "override",
    [
        {"seed": -1},
        {"consensus": {"difficulty": 300}},
        {"consensus": {"difficulty": "x"}},
        {"packet_size_bytes": ["a", 2]},
        {"attack": [1]},
        {"calibration": {"gas": 1}},
        {"consensus": {"kind": "pos", "stakes": [1]}},
        {"node_count": 1.7},
        {"energy_range_j": [100, 50]},
        {"energy_range_j": [float("nan"), 50]},
        {"coverage_range_m": [-50, -10]},
        {"sensor_rate_pps": 1e300},
        {"packet_size_bytes": [1, 2**70]},
        {"consensus": {"difficulty": 40}},
        {"sim_time_ms": 500_000, "attack": {"start_ms": 0, "stop_ms": 500_000, "sources": 10**9}},
        # 10**10 settlement windows, under every other bound, in each consensus and mode
        {**HUGE_HORIZON, "consensus": {"difficulty": 0}},
        {**HUGE_HORIZON, "consensus": {"kind": "pos", "stakes": {"a": 1.0}}},
        {**HUGE_HORIZON, "consensus": {"difficulty": 0}, "mode": "of-baseline"},
        # 10**7 clustering rounds in 10**5 windows; free rounds never exhaust the network
        {"sim_time_ms": 10**7, "round_period_ms": 1, "head_cost_j": 0, "tx_cost_j": 0},
        pytest.param(b"\xff\xfe{}", id="not-utf8"),
        pytest.param(b"[" * 100_000, id="nested-too-deep"),
    ],
)
def test_out_of_range_config_exit_1(tmp_path, override, capsys):
    bad = tmp_path / "bad.json"
    if isinstance(override, bytes):
        bad.write_bytes(override)
    else:
        bad.write_text(json.dumps({**SMALL_CFG, **override}))
    assert main(["run", "-c", str(bad), "-o", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "override",
    [
        # 2e20 attack packets: past int64, where the detector counts them
        {"sim_time_ms": 1000, "attack": {"start_ms": 0, "stop_ms": 1000, "sources": 2, "multiplier": 1e19}},
        {"sim_time_ms": 1000, "attack": {"start_ms": 0, "stop_ms": 1000, "sources": 2, "multiplier": 1e300}},
        # squared coordinate differences that overflow a float
        {"area_side_m": 1e300},
        {"z_max_m": 1e300},
        # stake names a PoS seal cannot carry
        {"consensus": {"kind": "pos", "stakes": {"": 1.0}}},
        {"consensus": {"kind": "pos", "stakes": {"\ud800": 1.0}}},
        # finite stakes whose total is not: the draw would always pick the last validator
        {"consensus": {"kind": "pos", "stakes": {"a": 1e308, "b": 1e308}}},
        # a detector window the detector cannot subtract from an int64 window end
        {"detector_window_ms": 2**63},
        # more attack sources than the drop table blocks in well under a second
        {"attack": {"start_ms": 0, "stop_ms": 2000, "sources": MAX_ATTACK_SOURCES + 1}},
    ],
    ids=[
        "attack-1e19",
        "attack-1e300",
        "area-1e300",
        "z-1e300",
        "stake-empty",
        "stake-lone-surrogate",
        "stake-sum-overflow",
        "detector-window-2e63",
        "attack-sources-over-cap",
    ],
)
def test_configs_the_engine_cannot_run_exit_1_with_one_line(tmp_path, override, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SMALL_CFG, **override}))
    assert main(["run", "-c", str(cfg), "-o", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_sensor_rate_too_small_for_the_bandwidth_battery_is_named(tmp_path, capsys):
    # the battery's flood multiplier, attack rate / (5 x sensor_rate_pps), overflows to inf
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SMALL_CFG, "sensor_rate_pps": 1e-320}))
    assert main(["run", "-c", str(cfg), "-o", str(tmp_path / "out")]) == EXIT_CONFIG
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: sensor_rate_pps ")


_TINY = 5e-324  # the smallest positive float
_HUGE = sys.float_info.max


def _up_to(cap, *also):
    """A float at `cap`, one step under it, one of `also`, or any in (0, cap]."""
    return st.sampled_from([cap, math.nextafter(cap, 0), *also]) | st.floats(_TINY, cap)


@st.composite
def near_cap_configs(draw):
    """Configs at or near each cap `validate_config` holds, small enough to run
    in milliseconds: horizons up to 2 s, PoW d up to 4, at most 12 nodes, and
    sensor rates up to 1 pps, so the batteries' runs (up to 60 nodes for 20 s)
    stay small too. A run at the arrival cap would hold 10^8 readings, so
    that cap is met only from just above, where it refuses."""
    horizon = draw(st.integers(1, 2000))
    nodes = draw(st.integers(1, 12))
    rate = draw(_up_to(1.0, 1e-3, 0.01))
    if draw(st.integers(0, 19)) == 0:  # expected arrivals one part in 10^12 over the cap
        rate = MAX_ARRIVALS * 1000 / (nodes * horizon) * (1 + 1e-12)
    ints = st.sampled_from([1, 2, 100, 10**6, 2**62, 10**30])
    doc = {
        "mode": draw(st.sampled_from(["distb", "of-baseline"])),
        "seed": draw(st.sampled_from([0, 2**32 - 1, 10**30]) | st.integers(0, 2**16)),
        "node_count": nodes,
        "sim_time_ms": horizon,
        "sensor_rate_pps": rate,
        "area_side_m": draw(_up_to(MAX_EXTENT_M, _TINY)),
        "z_max_m": draw(st.just(0.0) | _up_to(MAX_EXTENT_M)),
        "data_rate_mbps": draw(_up_to(_HUGE, _TINY, 1e-3, 10.0)),
        "packet_size_bytes": sorted(draw(st.lists(st.sampled_from([1, 128, MAX_PACKET_BYTES]), min_size=2, max_size=2))),
        "energy_range_j": sorted(draw(st.lists(_up_to(_HUGE, _TINY, 0.05, 100.0), min_size=2, max_size=2))),
        "coverage_range_m": sorted(draw(st.lists(_up_to(_HUGE, _TINY, 300.0), min_size=2, max_size=2))),
        "head_cost_j": draw(st.sampled_from([0.0, _TINY, 1.0, 1e300])),
        "tx_cost_j": draw(st.sampled_from([0.0, _TINY, 0.2, 1e300])),
        "unregistered_fraction": draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
        "round_period_ms": draw(st.sampled_from([500, 10_000, 10**30])),
        "detector_window_ms": draw(st.sampled_from([1, 99, 200, MAX_STEPS * WINDOW_MS, 10**30])),
        "detector_multiplier": draw(_up_to(_HUGE, _TINY, 5.0)),
        "t_pending_ms": draw(ints),
        "block_batch": draw(ints),
        "block_interval_ms": draw(ints),
    }
    if draw(st.booleans()):
        start = draw(st.integers(0, horizon - 1))
        stop = draw(st.integers(start + 1, horizon))
        sources = draw(st.sampled_from([1, 5, MAX_ATTACK_SOURCES]))
        # the multiplier that meets the attack-packet cap, where that is a finite float
        cap = min(MAX_ATTACK_PACKETS * 1000 / (sources * rate * (stop - start)), _HUGE)
        doc["attack"] = {
            "start_ms": start,
            "stop_ms": stop,
            "sources": sources,
            "multiplier": draw(_up_to(cap, _TINY, 10.0)),
            "ramp_ms": draw(st.sampled_from([0, 1, horizon, 10**30])),
        }
    if draw(st.booleans()):
        doc["consensus"] = {"kind": "pow", "difficulty": draw(st.integers(0, 4))}
    else:
        names = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=3)
        stakes = st.sampled_from([_TINY, 1.0, 3.0, 1e308, _HUGE, 0.0])
        doc["consensus"] = {"kind": "pos", "stakes": draw(st.dictionaries(names, stakes, min_size=1, max_size=3))}
    return doc


@settings(derandomize=True, max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=near_cap_configs())
def test_configs_near_every_cap_run_or_exit_with_one_line(tmp_path, capsys, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    code = main(["run", "-c", str(cfg), "-o", str(tmp_path / "out")])
    err = capsys.readouterr().err
    if code != EXIT_OK:
        assert code in (EXIT_CONFIG, EXIT_SIM)
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_run_streams_the_ledger_export(tmp_path, run_export):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SMALL_CFG))
    expected = export_ledger(run_raw(parse_config(cfg)).ledger)
    assert "".join(line + "\n" for line in run_export) == expected


def test_failing_line_generator_leaves_no_output(tmp_path):
    def lines():
        yield "{}\n"
        raise RuntimeError("export failed")

    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match="export failed"):
        _write_outputs(out, {"gas.csv": "tx_count,gas\n", "ledger.ndjson": lines(), "flow_tables.json": "{}\n"})
    assert list(out.iterdir()) == []


def test_validate_chain_on_run_export(tmp_path, run_export, capsys):
    ledger = tmp_path / "ledger.ndjson"
    ledger.write_text("\n".join(run_export) + "\n")
    assert main(["validate-chain", str(ledger)]) == EXIT_OK
    assert "valid" in capsys.readouterr().out


def test_validate_chain_detects_tampered_export(tmp_path, run_export, capsys):
    lines = list(run_export)
    assert len(lines) >= 3
    doc = json.loads(lines[2])
    assert doc["txs"], "expected transactions in block 2"
    payload = doc["txs"][0]["payload_hex"]
    doc["txs"][0]["payload_hex"] = ("0" if payload[0] != "0" else "1") + payload[1:]
    lines[2] = json.dumps(doc, sort_keys=True)
    path = tmp_path / "ledger.ndjson"
    path.write_text("\n".join(lines) + "\n")
    assert main(["validate-chain", str(path)]) == EXIT_INTEGRITY
    assert "block 2" in capsys.readouterr().out


@pytest.mark.parametrize("nonce", [-1, 2**64])
def test_validate_chain_flags_out_of_range_nonce(tmp_path, run_export, capsys, nonce):
    lines = list(run_export)
    doc = json.loads(lines[1])
    doc["nonce"] = nonce
    lines[1] = json.dumps(doc, sort_keys=True)
    path = tmp_path / "ledger.ndjson"
    path.write_text("\n".join(lines) + "\n")
    assert main(["validate-chain", str(path)]) == EXIT_INTEGRITY
    assert "block 1" in capsys.readouterr().out


@pytest.mark.parametrize("timestamp", [-1, 2**64])
def test_validate_chain_flags_out_of_range_tx_timestamp(tmp_path, run_export, capsys, timestamp):
    lines = list(run_export)
    doc = json.loads(lines[1])
    doc["txs"][0]["timestamp"] = timestamp
    lines[1] = json.dumps(doc, sort_keys=True)
    path = tmp_path / "ledger.ndjson"
    path.write_text("\n".join(lines) + "\n")
    assert main(["validate-chain", str(path)]) == EXIT_INTEGRITY
    assert "chain INVALID at block 1" in capsys.readouterr().out


@pytest.mark.parametrize(
    "path, value",
    [
        (("txs", 0, "sensor_id"), 5),
        (("txs", 0, "destination"), 5),
        (("sealer", "validator"), 5),
        (("sealer", "kind"), 5),
        (("index",), "1"),
        (("txs", 0, "timestamp"), 1.5),
        (("sealer", "difficulty"), "0"),
    ],
    ids=["sensor_id", "destination", "validator", "kind", "index", "tx_timestamp", "difficulty"],
)
def test_validate_chain_mistyped_field_exit_4(tmp_path, run_export, capsys, path, value):
    lines = list(run_export)
    doc = json.loads(lines[1])
    *outer, key = path
    target = doc
    for part in outer:
        target = target[part]
    target[key] = value
    lines[1] = json.dumps(doc, sort_keys=True)
    ledger = tmp_path / "ledger.ndjson"
    ledger.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["validate-chain", str(ledger)]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("cannot parse ledger: ") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "consensus, key, value",
    [({}, "validator", "mallory"), ({"kind": "pos", "stakes": {"a": 1.0}}, "difficulty", 99)],
    ids=["pow-validator", "pos-difficulty"],
)
def test_validate_chain_flags_a_sealer_field_its_kind_does_not_hash(tmp_path, capsys, consensus, key, value):
    # a pow header holds no validator and a pos header no difficulty, so the
    # edit leaves the hash intact; the seal check must refuse it all the same
    raw = run_raw(config_from_dict({"node_count": 4, "sim_time_ms": 1000, "consensus": consensus}))
    lines = export_ledger(raw.ledger).splitlines()
    doc = json.loads(lines[1])
    doc["sealer"][key] = value
    lines[1] = json.dumps(doc, sort_keys=True)
    ledger = tmp_path / "ledger.ndjson"
    ledger.write_text("\n".join(lines) + "\n")
    assert main(["validate-chain", str(ledger)]) == EXIT_INTEGRITY
    assert "chain INVALID at block 1" in capsys.readouterr().out


def _with_nested_key(doc):  # on the first transaction, or on the sealer of a block without one
    (doc["txs"][0] if doc["txs"] else doc["sealer"])["note"] = "x"
    return json.dumps(doc, sort_keys=True)


# Re-encodings of one export line that parse to the same block: each is a
# non-canonical export of a valid chain.
REENCODINGS = {
    "key-order": lambda doc: json.dumps(dict(reversed(doc.items()))),
    "compact-separators": lambda doc: json.dumps(doc, sort_keys=True, separators=(",", ":")),
    "wide-separators": lambda doc: json.dumps(doc, sort_keys=True, separators=(",  ", ": ")),
    "upper-case-hash": lambda doc: json.dumps({**doc, "hash": doc["hash"].upper()}, sort_keys=True),
    "extra-block-key": lambda doc: json.dumps({**doc, "note": "x"}, sort_keys=True),
    "extra-nested-key": _with_nested_key,
    "leading-space": lambda doc: " " + json.dumps(doc, sort_keys=True),
    "trailing-space": lambda doc: json.dumps(doc, sort_keys=True) + " ",
    "blank-line-before": lambda doc: "\n" + json.dumps(doc, sort_keys=True),
    "crlf": lambda doc: json.dumps(doc, sort_keys=True) + "\r",
    "escaped-letter": lambda doc: json.dumps(doc, sort_keys=True).replace('"pow"', '"\\u0070ow"'),
}


@pytest.fixture(scope="module")
def reencoded_path(tmp_path_factory):
    return tmp_path_factory.mktemp("reencoded") / "ledger.ndjson"


@settings(derandomize=True, max_examples=60, deadline=None)
@given(edit=st.sampled_from(sorted(REENCODINGS)), pick=st.integers(min_value=0))
def test_validate_chain_accepts_only_the_canonical_export(run_export, reencoded_path, edit, pick):
    lines = list(run_export)
    index = pick % len(lines)
    lines[index] = REENCODINGS[edit](json.loads(lines[index]))
    assert lines[index] != run_export[index]
    reencoded_path.write_bytes(("\n".join(lines) + "\n").encode())
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert main(["validate-chain", str(reencoded_path)]) == EXIT_INTEGRITY
    assert printed.getvalue() == f"chain INVALID at block {index} (not canonical)\n"


@pytest.mark.parametrize("end, bad_line", [("", -1), ("\n\n", 0)], ids=["no-final-newline", "trailing-blank-line"])
def test_validate_chain_flags_a_non_canonical_file_end(tmp_path, run_export, capsys, end, bad_line):
    path = tmp_path / "ledger.ndjson"
    path.write_text("\n".join(run_export) + end)
    assert main(["validate-chain", str(path)]) == EXIT_INTEGRITY
    assert capsys.readouterr().out == f"chain INVALID at block {len(run_export) + bad_line} (not canonical)\n"


def test_validate_chain_empty_file_is_parse_error(tmp_path):
    empty = tmp_path / "empty.ndjson"
    empty.write_text("")
    assert main(["validate-chain", str(empty)]) == EXIT_IO


def test_validate_chain_missing_file(tmp_path):
    assert main(["validate-chain", str(tmp_path / "nope.ndjson")]) == EXIT_IO


def test_tables_prints_reference_tables(capsys):
    assert main(["tables"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"throughput_kbps", "bandwidth_mbps", "response_ms", "gas", "cpu_pct"}
    assert doc["gas"]["gas"][0] == 25000


def test_sweep_over_node_list(tmp_path, small_cfg_path):
    out = tmp_path / "out"
    assert main(["sweep", "--nodes", "1,5,10", "-c", str(small_cfg_path), "-o", str(out)]) == EXIT_OK
    lines = (out / "throughput.csv").read_text().splitlines()
    assert lines[0] == CSV_HEADERS["throughput.csv"]
    assert [row.split(",")[0] for row in lines[1:]] == ["1", "5", "10"]


def test_sweep_manifest_echoes_the_runs_config(tmp_path):
    # every sweep run is a 10 s, attack-free throughput run, whatever the user's horizon and attack
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 5, "sim_time_ms": 60000, "attack": {"start_ms": 1000, "stop_ms": 5000}}))
    out = tmp_path / "out"
    assert main(["sweep", "--nodes", "5,10", "-c", str(cfg), "-o", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["sim_time_ms"] == 10000
    assert manifest["config"]["attack"] is None
    assert "node_count" not in manifest["config"] and "mode" not in manifest["config"]
    assert manifest["node_counts"] == [5, 10] and manifest["seed"] == 5
    assert manifest["calibration"] == load_default().to_dict()


def test_sweep_range_spec(tmp_path, small_cfg_path):
    out = tmp_path / "out"
    assert main(["sweep", "--nodes", "5:15:5", "-c", str(small_cfg_path), "-o", str(out)]) == EXIT_OK
    lines = (out / "throughput.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in lines[1:]] == ["5", "10", "15"]


def test_sweep_bad_spec_exit_1(tmp_path, small_cfg_path, capsys):
    # 1:1000000000:1 is refused before its list of 10^9 counts is built
    for spec in ("5:1:2", "abc", "1:x:2", "1,,b", "1:1000000000:1"):
        assert main(["sweep", "--nodes", spec, "-c", str(small_cfg_path), "-o", str(tmp_path / "o")]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: "), spec


def test_sweep_checks_largest_count_before_any_run(tmp_path, small_cfg_path, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("measure_throughput ran before the node counts were checked")

    monkeypatch.setattr("distb.cli.measure_throughput", no_run)
    code = main(["sweep", "--nodes", "1,2000000", "-c", str(small_cfg_path), "-o", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: node_count")
    assert not (tmp_path / "o").exists()


def test_calibrate_writes_round_trippable_record(tmp_path, recalibration):
    # `recalibration` ran `distb calibrate -o <dir>/calibration.json` from that dir.
    out = recalibration.out
    printed = recalibration.printed
    assert "gas:" in printed and "response[distb]" in printed and "kappa" in printed
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"calibration": json.loads(out.read_text())}))
    cfg = parse_config(cfg_path)
    assert cfg.calibration is not None
    assert cfg.calibration.to_dict() == json.loads(out.read_text())
    assert out.read_bytes() == resources.files("distb.data").joinpath("default_calibration.json").read_bytes()


def test_compare_summary(tmp_path, small_cfg_path, capsys):
    out = tmp_path / "out"
    assert main(["compare", "-c", str(small_cfg_path), "-o", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["response_reduction_pct_avg"] >= 5.0
    assert summary["bandwidth_drop_pct"]["distb"] <= 15.0
    assert summary["bandwidth_drop_pct"]["baseline"] >= 70.0
    # no attack in this config: the paired main runs should sit within 5%
    assert summary["main_bandwidth_delta_pct"] <= 5.0
    ratios = summary["throughput_ratio"]
    assert all(v >= 1.0 for n, v in ratios.items() if int(n) >= 5)


def _compare_summary(tmp_path, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["compare", "-c", str(cfg), "-o", str(out)]) == EXIT_OK
    return json.loads((out / "summary.json").read_text())


def test_compare_writes_null_for_a_drop_from_a_dead_battery(tmp_path):
    # the bandwidth battery's network dies, so its first row, the drop's denominator, is 0;
    # the main runs' network dies in round 0 too, so the delta's denominator, the baseline's
    # delivered bandwidth, is 0 as well
    summary = _compare_summary(tmp_path, {"energy_range_j": [0.01, 0.02], "sim_time_ms": 2000})
    assert summary["bandwidth_drop_pct"] == {"distb": None, "baseline": None}
    assert summary["main_bandwidth_delta_pct"] is None


def test_compare_writes_null_for_a_reduction_against_a_zero_core_response(tmp_path):
    calib = load_default().to_dict()
    calib["response"]["core"] = {"alpha": 0, "beta": 0}
    summary = _compare_summary(tmp_path, {**SMALL_CFG, "calibration": calib})
    assert summary["response_reduction_pct_avg"] is None
    assert summary["bandwidth_drop_pct"]["distb"] is not None
