import json

import numpy as np
import pytest

from distb.calibration import fit_gas, fit_response, load_default, load_reference_tables


@pytest.fixture(scope="module")
def refit(recalibration):
    return recalibration.calibration


def test_gas_fit_rows_within_10pct():
    base, per_tx = fit_gas()
    t = load_reference_tables()["gas"]
    for n, g in zip(t["tx_count"], t["gas"]):
        assert abs((base + per_tx * n) - g) / g <= 0.10


def test_response_fit_rows_within_15pct():
    import math

    fits = fit_response()
    t = load_reference_tables()["response_ms"]
    for mode in ("distb", "core"):
        a, b = fits[mode]["alpha"], fits[mode]["beta"]
        for s, y in zip(t["file_mb"], t[mode]):
            pred = a + b * math.log2(s)
            assert abs(pred - y) / y <= 0.15, (mode, s, pred, y)


def test_default_record_matches_recalibration(refit):
    # the shipped default is exactly what recalibrate() produces
    shipped = load_default().to_dict()
    fresh = refit.to_dict()
    assert json.dumps(shipped, sort_keys=True) == json.dumps(fresh, sort_keys=True)


def test_envelopes_interpolate_anchors(refit):
    # a raw figure equal to the nominal one scales to the envelope itself
    t = load_reference_tables()["throughput_kbps"]
    nominal = refit.to_dict()["throughput"]["nominal"]
    for i, (n, d, b) in enumerate(zip(t["nodes"], t["distb"], t["baseline"])):
        assert refit.scaled("throughput", "distb", n, nominal["distb"][i]) == d
        assert refit.scaled("throughput", "of-baseline", n, nominal["baseline"][i]) == b
    # between anchors: linear and monotone
    assert 2.0 <= refit.scaled("throughput", "distb", 3, float(np.interp(3, t["nodes"], nominal["distb"]))) <= 4.0


def test_response_model_orders_modes(refit):
    for s in (2, 16, 128, 1024):
        assert refit.response_ms("distb", s) < refit.response_ms("core", s)


def test_cpu_constants(refit):
    assert refit.cpu_base_pct == 3.0
    assert refit.cpu_kappa > 0
    assert refit.cpu_smoothing == 0.35
