"""Smoke test: the walkthrough demos run to completion against the library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = (
    "01_topology_and_clustering.py",
    "02_flow_rules_and_flood_mitigation.py",
    "03_transaction_ledger_pipeline.py",
    "04_reproduce_evaluation_tables.py",
)


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_zero(demo):
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
