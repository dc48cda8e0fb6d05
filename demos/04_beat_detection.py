"""Pan-Tompkins beat detection on synthetic ECG.

Runs the full cascade (bandpass, derivative, squaring, integration,
adaptive thresholds) at three heart rates and summarizes the detected
rhythm with the beat-morphology features.
"""

import numpy as np

from alarmsift import beat_features, detect_beats, synthetic_ecg
from alarmsift.features import BEAT_FEATURE_NAMES

FS = 250.0

for bpm in (60, 90, 120):
    rng = np.random.default_rng(bpm)
    ecg = synthetic_ecg(60.0, FS, bpm, rng)
    ecg += 0.05 * rng.standard_normal(ecg.size)  # white noise, std 0.05
    beats = detect_beats(ecg, FS)
    bf = dict(zip(BEAT_FEATURE_NAMES, beat_features(ecg, beats)))
    print(f"{bpm:3d} bpm: detected {beats.n_beats:3d} beats, "
          f"mean RR {bf['rr_mean']:.3f}s, est. rate {60 / bf['rr_mean']:.1f} bpm")

print("\nflatline:", detect_beats(np.zeros(int(60 * FS)), FS).n_beats, "beats")

# refractory demonstration: two impulses 100 ms apart yield one detection
x = np.zeros(int(4 * FS))
x[500] = 1.0
x[525] = 1.0
print("impulses 100 ms apart ->", detect_beats(x, FS).n_beats, "detection")
