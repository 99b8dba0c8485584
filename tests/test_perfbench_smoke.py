"""The benchmark's own self-test, run as part of the suite.

`perfbench/smoke.py` checks its oracles against hand-worked answers and
runs one untraced and one traced pass of every workload over small inputs.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_perfbench_smoke_passes():
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "smoke test passed" in proc.stdout
