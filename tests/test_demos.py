"""Smoke test: each quick demo runs to completion as a script.

Demos 01-04 and 06 take a few seconds in total.  Demo 05 trains the
sequence model for minutes, so it is left out; run it by hand after a
change to the API it calls (``build_sequence``, ``train``, ``predict``).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
QUICK_DEMOS = ("01_synthetic_dataset.py", "02_scalograms.py",
               "03_handcrafted_features.py", "04_beat_detection.py",
               "06_stats_toolkit.py")

pytestmark = pytest.mark.slow


@pytest.mark.parametrize("demo", QUICK_DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
