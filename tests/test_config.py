import json

import pytest

from distb.calibration import load_default
from distb.config import ScenarioConfig, config_from_dict, parse_config
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
    assert cfg.n_controllers == 5
    assert cfg.n_gateways == 2
    assert cfg.area_side_m == 2500.0
    assert cfg.packet_size_bytes == (128, 1024)
    assert cfg.consensus.kind == "pow" and cfg.consensus.difficulty == 8
    assert cfg.mode == "distb"


def test_negative_node_count_names_field(tmp_path):
    with pytest.raises(ConfigError, match="node_count"):
        parse_config(write_cfg(tmp_path, {"node_count": -3}))


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
    assert config_from_dict({"consensus": {"difficulty": 256}}).consensus.difficulty == 256


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
    doc = load_default().to_dict()
    doc["extra"] = 1
    with pytest.raises(ConfigError, match="extra"):
        config_from_dict({"calibration": doc})


def test_to_dict_round_trips_through_from_dict():
    cfg = ScenarioConfig(
        node_count=12,
        attack=None,
        file_transfer_mb=(2.0, 8.0),
        consensus=ScenarioConfig().consensus,
    )
    again = config_from_dict(cfg.to_dict())
    assert again.to_dict() == cfg.to_dict()
