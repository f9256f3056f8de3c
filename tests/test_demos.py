"""The narrated demo scripts run to completion against the current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["correction_cycle.py", "tomography_roundtrip.py",
                                    "lifetime_comparison.py --quick"])
def test_demo_exits_cleanly(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    name, *args = script.split()
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name), *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
