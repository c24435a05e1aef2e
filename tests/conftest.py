"""Fixtures shared by more than one test module."""

import contextlib
import io
from dataclasses import dataclass
from pathlib import Path

import pytest

import distb.cli
from distb.calibration import Calibration


@dataclass
class Recalibration:
    calibration: Calibration  # what `recalibrate()` returned inside the command
    printed: str  # what `distb calibrate` printed
    out: Path  # the record it wrote


@pytest.fixture(scope="session")
def recalibration(tmp_path_factory):
    """One `distb calibrate` run, shared by the tests that need a refit, since
    each refit takes seconds. The command runs the real `recalibrate()`; a
    wrapper only keeps what it returned."""
    tmp = tmp_path_factory.mktemp("calibrate")
    out = tmp / "calibration.json"
    real = distb.cli.recalibrate
    returned = []

    def keep_result():
        returned.append(real())
        return returned[-1]

    printed = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(printed):
        mp.chdir(tmp)
        mp.setattr(distb.cli, "recalibrate", keep_result)
        assert distb.cli.main(["calibrate", "-o", str(out)]) == distb.cli.EXIT_OK
    (calibration,) = returned
    return Recalibration(calibration, printed.getvalue(), out)
