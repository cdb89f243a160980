"""Each demo runs end to end, at small arguments, in its own process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DEMOS = {
    "demo_conditions": ["--kmax", "16", "--lo", "4", "--hi", "10"],
    "demo_schedule": ["--kmax", "2000"],
    "demo_spectral": ["--dim", "8", "--nmax", "1024"],
    "demo_dichotomy": ["--samples", "2000"],
}


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_runs(name):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / (name + ".py")), *DEMOS[name]],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    if name == "demo_dichotomy":
        assert "verdict: DIFFERENT_LIMITS" in proc.stdout.splitlines()
