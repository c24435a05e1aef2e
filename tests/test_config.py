import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distb.calibration import load_default
from distb.config import (
    MAX_NODES,
    _HAND_PARSED,
    _READERS,
    AttackConfig,
    ConsensusConfig,
    ScenarioConfig,
    _plain_readers,
    config_from_dict,
    parse_config,
)
from distb.errors import ConfigError


def write_cfg(tmp_path, doc):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return path


def test_empty_object_gives_defaults(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, {}))
    assert cfg.node_count == 50
    assert cfg.sim_time_ms == 500_000
    assert cfg.data_rate_mbps == 10.0
    assert cfg.area_side_m == 2500.0
    assert cfg.packet_size_bytes == (128, 1024)
    assert cfg.consensus.kind == "pow" and cfg.consensus.difficulty == 8
    assert cfg.mode == "distb"


def test_negative_node_count_names_field(tmp_path):
    with pytest.raises(ConfigError, match="node_count"):
        parse_config(write_cfg(tmp_path, {"node_count": -3}))


def test_node_count_bounded_at_any_rate():
    # a tiny rate keeps the arrivals bound loose, so only MAX_NODES refuses 10^9 nodes
    with pytest.raises(ConfigError, match="node_count"):
        config_from_dict({"node_count": 10**9, "sensor_rate_pps": 1e-9})
    assert config_from_dict({"node_count": MAX_NODES, "sensor_rate_pps": 1e-9}).node_count == MAX_NODES


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="nodecount"):
        parse_config(write_cfg(tmp_path, {"nodecount": 5}))


def test_unknown_nested_key_rejected():
    with pytest.raises(ConfigError, match="rampms"):
        config_from_dict({"attack": {"start_ms": 0, "stop_ms": 10, "rampms": 5}})


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        parse_config(tmp_path / "nope.json")


def test_malformed_json_is_config_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        parse_config(path)


def test_attack_window_validation():
    with pytest.raises(ConfigError, match="attack window"):
        config_from_dict({"sim_time_ms": 1000, "attack": {"start_ms": 500, "stop_ms": 2000}})
    with pytest.raises(ConfigError, match="attack window"):
        config_from_dict({"attack": {"start_ms": 900, "stop_ms": 900}})


def test_mode_validation():
    with pytest.raises(ConfigError, match="mode"):
        config_from_dict({"mode": "fancy"})
    cfg = config_from_dict({"mode": "of-baseline"})
    assert cfg.mode == "of-baseline"


def test_consensus_pos_needs_positive_stake():
    with pytest.raises(ConfigError, match="stakes"):
        config_from_dict({"consensus": {"kind": "pos", "stakes": {}}})
    with pytest.raises(ConfigError, match="stakes"):
        config_from_dict({"consensus": {"kind": "pos", "stakes": {"a": 0}}})
    cfg = config_from_dict({"consensus": {"kind": "pos", "stakes": {"a": 2, "b": 1}}})
    assert cfg.consensus.stakes_dict() == {"a": 2.0, "b": 1.0}


def test_packet_size_pair_validation():
    with pytest.raises(ConfigError, match="packet_size_bytes"):
        config_from_dict({"packet_size_bytes": [1024, 128]})
    with pytest.raises(ConfigError, match="pair"):
        config_from_dict({"packet_size_bytes": [128]})


def test_pow_difficulty_bounded():
    with pytest.raises(ConfigError, match="difficulty"):
        config_from_dict({"consensus": {"kind": "pow", "difficulty": 300}})
    # the default run needs 31 751 blocks: 2^16 hashes each fit the 2^31 budget, 2^17 do not
    assert config_from_dict({"consensus": {"difficulty": 16}}).consensus.difficulty == 16
    for difficulty in (17, 256):
        with pytest.raises(ConfigError, match="sealing work"):
            config_from_dict({"consensus": {"difficulty": difficulty}})


def test_negative_seed_rejected():
    with pytest.raises(ConfigError, match="seed"):
        config_from_dict({"seed": -1})
    assert config_from_dict({"seed": 0}).seed == 0


def test_calibration_smoothing_bounded():
    for bad in (0.0, 1.5, float("nan")):
        doc = load_default().to_dict()
        doc["cpu"]["smoothing"] = bad
        with pytest.raises(ConfigError, match="smoothing"):
            config_from_dict({"calibration": doc})


def test_calibration_field_round_trips(tmp_path):
    calib = load_default()
    cfg = parse_config(write_cfg(tmp_path, {"calibration": calib.to_dict()}))
    assert cfg.calibration is not None
    assert cfg.calibration.to_dict() == calib.to_dict()


def test_calibration_unknown_key_rejected():
    # Each edit leaves a field the engine would ignore or misread; every level refuses it.
    cases = [
        (lambda d: d.update(extra=1), "unknown calibration key 'extra'"),
        (lambda d: d["gas"].update(bogus=1), "unknown calibration.gas key 'bogus'"),
        (lambda d: d["response"]["distb"].update(gamma=1.0), "unknown calibration.response.distb key 'gamma'"),
        (lambda d: d["response"].update(edge=d["response"]["distb"]), "unknown calibration.response key 'edge'"),
        (
            lambda d: d["throughput"]["env"].update(pos=d["throughput"]["env"]["distb"]),
            "unknown calibration.throughput.env key 'pos'",
        ),
        (lambda d: d["throughput"]["nodes"].reverse(), "calibration.throughput.nodes must be strictly increasing"),
        (lambda d: d["bandwidth"]["rates"].reverse(), "calibration.bandwidth.rates must be strictly increasing"),
        (
            lambda d: d["bandwidth"]["rates"].__setitem__(1, d["bandwidth"]["rates"][0]),
            "calibration.bandwidth.rates must be strictly increasing",
        ),
    ]
    for edit, message in cases:
        doc = load_default().to_dict()
        edit(doc)
        with pytest.raises(ConfigError) as err:
            config_from_dict({"calibration": doc})
        assert str(err.value) == message


# Every knob away from its default: an attack with a ramp and PoS stakes.
EVERY_KNOB = ScenarioConfig(
    mode="of-baseline", node_count=12, area_side_m=1800.5, seed=7, data_rate_mbps=12.5,
    packet_size_bytes=(64, 512), sim_time_ms=60_000, sensor_rate_pps=4.5,
    attack=AttackConfig(start_ms=1000, stop_ms=9000, sources=4, multiplier=6.5, ramp_ms=2500),
    consensus=ConsensusConfig(kind="pos", difficulty=5, stakes=(("v-a", 3.0), ("v-b", 1.5))),
    unregistered_fraction=0.25, round_period_ms=5000,
    head_cost_j=1.25, tx_cost_j=0.3, energy_range_j=(40.0, 90.0), coverage_range_m=(150.0, 350.0),
    z_max_m=20.0, detector_window_ms=300, detector_multiplier=4.0, t_pending_ms=15_000,
    block_batch=6, block_interval_ms=2000,
)


def test_to_dict_echo_is_pinned():
    # The manifest's config echo of EVERY_KNOB, byte for byte; no knob is at its default.
    assert all(v != ScenarioConfig().to_dict()[k] for k, v in EVERY_KNOB.to_dict().items())
    assert json.dumps(EVERY_KNOB.to_dict(), sort_keys=True) == (
        '{"area_side_m": 1800.5, "attack": {"multiplier": 6.5, "ramp_ms": 2500, "sources": 4, '
        '"start_ms": 1000, "stop_ms": 9000}, "block_batch": 6, "block_interval_ms": 2000, '
        '"consensus": {"difficulty": 5, "kind": "pos", "stakes": {"v-a": 3.0, "v-b": 1.5}}, '
        '"coverage_range_m": [150.0, 350.0], "data_rate_mbps": 12.5, "detector_multiplier": 4.0, '
        '"detector_window_ms": 300, "energy_range_j": [40.0, 90.0], '
        '"head_cost_j": 1.25, "mode": "of-baseline", "node_count": 12, '
        '"packet_size_bytes": [64, 512], "round_period_ms": 5000, "seed": 7, "sensor_rate_pps": 4.5, '
        '"sim_time_ms": 60000, "t_pending_ms": 15000, "tx_cost_j": 0.3, "unregistered_fraction": 0.25, '
        '"z_max_m": 20.0}'
    )


def test_to_dict_round_trips_through_from_dict():
    small = ScenarioConfig(
        node_count=12,
        attack=None,
        consensus=ScenarioConfig().consensus,
    )
    for cfg in (small, EVERY_KNOB):
        again = config_from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()
        assert again == cfg


def test_config_knobs_agree_across_dataclass_echo_and_parser():
    # A knob is a dataclass field, a to_dict() key and a parser key at once,
    # so a deleted knob cannot linger in any one of them.
    knobs = {f.name for f in dataclasses.fields(ScenarioConfig)} - {"calibration"}
    assert set(ScenarioConfig().to_dict()) == knobs
    assert config_from_dict(ScenarioConfig().to_dict()) == ScenarioConfig()
    with pytest.raises(ConfigError, match="unknown config key 'n_controllers'"):
        config_from_dict({"n_controllers": 5})


def test_every_config_field_has_a_reader():
    for cls in (ScenarioConfig, AttackConfig, ConsensusConfig):
        for f in dataclasses.fields(cls):
            assert f.type in _READERS or f.name in _HAND_PARSED, f"{cls.__name__}.{f.name}"
    assert set(_plain_readers(AttackConfig)) == {"start_ms", "stop_ms", "sources", "multiplier", "ramp_ms"}
    assert set(_plain_readers(ConsensusConfig)) == {"kind", "difficulty"}

    @dataclasses.dataclass(frozen=True)
    class WithNewKnob(ScenarioConfig):
        weights: list[float] = dataclasses.field(default_factory=list)

    with pytest.raises(TypeError, match="WithNewKnob.weights"):
        _plain_readers(WithNewKnob)


# --- every input either parses or raises ConfigError ---------------------------

_NESTED_KEYS = [
    "start_ms", "stop_ms", "sources", "multiplier", "ramp_ms", "kind", "difficulty", "stakes",
    "gas", "base", "per_tx", "response", "alpha", "beta", "throughput", "bandwidth", "nodes",
    "rates", "env", "nominal", "distb", "baseline", "core", "cpu", "base_pct", "kappa", "smoothing",
]
_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=4)
    | st.sampled_from(["pow", "pos", "distb", "of-baseline"])
)
_json = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_NESTED_KEYS) | st.text(max_size=3), inner, max_size=5),
    max_leaves=20,
)
_KEYS = sorted(set(ScenarioConfig().to_dict()) | {"calibration"})


@settings(max_examples=400, deadline=None)
@given(st.dictionaries(st.sampled_from(_KEYS), _json, max_size=6))
def test_config_from_dict_returns_or_raises_config_error(doc):
    try:
        cfg = config_from_dict(doc)
    except ConfigError as exc:
        assert len(str(exc).splitlines()) == 1
    else:
        assert isinstance(cfg, ScenarioConfig)


@pytest.mark.parametrize("value", [1.7, True, "5", float("inf"), None])
def test_integer_fields_refuse_non_integers(value):
    with pytest.raises(ConfigError, match="node_count must be an integer"):
        config_from_dict({"node_count": value})
    with pytest.raises(ConfigError, match="attack.sources must be an integer"):
        config_from_dict({"attack": {"start_ms": 0, "stop_ms": 10, "sources": value}})


def test_integral_float_is_an_integer():
    cfg = config_from_dict({"node_count": 3.0, "consensus": {"difficulty": 4.0}})
    assert cfg.node_count == 3 and type(cfg.node_count) is int
    assert cfg.consensus.difficulty == 4 and type(cfg.consensus.difficulty) is int


@pytest.mark.parametrize(
    "key,pair",
    [
        ("energy_range_j", [100, 50]),
        ("energy_range_j", [float("nan"), 50]),
        ("energy_range_j", [0, 50]),
        ("energy_range_j", [50, float("inf")]),
        ("coverage_range_m", [-50, -10]),
        ("coverage_range_m", [0, 10]),
        ("coverage_range_m", [400, 100]),
        ("coverage_range_m", [100, float("nan")]),
    ],
)
def test_geometry_and_energy_ranges_bounded(key, pair):
    with pytest.raises(ConfigError, match=key):
        config_from_dict({key: pair})


def test_loop_counts_capped_at_a_million_each():
    # 10**8 ms holds exactly 10**6 windows of 100 ms and 10**6 rounds of 100 ms.
    quiet = {"node_count": 1, "sensor_rate_pps": 1e-4, "consensus": {"difficulty": 0}}
    config_from_dict({**quiet, "sim_time_ms": 10**8, "round_period_ms": 100})
    with pytest.raises(ConfigError) as err:
        config_from_dict({**quiet, "sim_time_ms": 10**8 + 1, "round_period_ms": 1000})
    assert str(err.value) == (
        "settlement windows per run, sim_time_ms / 100 ms, must be <= 1000000 (got 100000001 ms)"
    )
    with pytest.raises(ConfigError) as err:
        config_from_dict({**quiet, "sim_time_ms": 10**8, "round_period_ms": 99})
    assert str(err.value) == "clustering rounds per run, sim_time_ms / 99 ms, must be <= 1000000 (got 100000000 ms)"


def test_equal_range_bounds_accepted():
    cfg = config_from_dict({"energy_range_j": [5, 5], "coverage_range_m": [0.5, 0.5]})
    assert cfg.energy_range_j == (5.0, 5.0) and cfg.coverage_range_m == (0.5, 0.5)


@pytest.mark.parametrize(
    "key,value",
    [
        ("area_side_m", float("inf")),
        ("sensor_rate_pps", float("inf")),
        ("z_max_m", float("inf")),
        ("z_max_m", -1.0),
        ("head_cost_j", float("inf")),
        ("data_rate_mbps", float("inf")),
        ("tx_cost_j", float("inf")),
        ("detector_multiplier", float("inf")),
        ("unregistered_fraction", float("inf")),
        ("area_side_m", float("nan")),
        ("data_rate_mbps", float("nan")),
        ("sensor_rate_pps", float("nan")),
        ("head_cost_j", float("nan")),
        ("tx_cost_j", float("nan")),
        ("z_max_m", float("nan")),
        ("detector_multiplier", float("nan")),
        ("unregistered_fraction", float("nan")),
    ],
)
def test_unbounded_floats_rejected(key, value):
    with pytest.raises(ConfigError, match=key):
        config_from_dict({key: value})
