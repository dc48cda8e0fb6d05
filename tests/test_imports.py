"""The library runs on numpy alone: scipy is a test-only dependency."""

import os
import subprocess
import sys
from pathlib import Path

import alarmsift

_CODE = """
import sys
import numpy as np
import alarmsift
from alarmsift.scalogram import SCALES

rng = np.random.default_rng(0)
t = np.arange(2500) / 250.0
ecg = np.sin(2 * np.pi * 1.2 * t) ** 31 + 0.05 * rng.standard_normal(t.size)
beats = alarmsift.detect_beats(ecg, 250.0)
labels = np.arange(20) % 2 == 0
result = alarmsift.delong_test(labels + rng.standard_normal(20),
                               labels + rng.standard_normal(20), labels)
coeffs = alarmsift.cwt(ecg[:600], SCALES)
ci = alarmsift.bootstrap_auc_diff(labels + rng.standard_normal(20),
                                  labels + rng.standard_normal(20), labels,
                                  n_iter=50)
assert beats.size > 0 and 0.0 < result.p <= 1.0 and coeffs.shape[1] == 600
assert ci.lower <= ci.upper
for package in ("scipy", "numpy.ma"):
    print(sorted(m for m in sys.modules
                 if m == package or m.startswith(package + ".")))
"""


def test_import_and_calls_load_no_scipy():
    """A fresh interpreter imports alarmsift, detects beats, runs a DeLong
    test, a CWT and a bootstrap, and has loaded no scipy module and no
    ``numpy.ma``, which ``np.percentile`` would import."""
    env = dict(os.environ, PYTHONPATH=str(Path(alarmsift.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _CODE], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout.splitlines() == ["[]", "[]"], proc.stdout
