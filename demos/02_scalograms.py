"""Continuous wavelet transform scalograms, chunk by chunk.

Splits a 60-second record into six 10-second chunks and renders each chunk
of ECG lead II as a 64x64 Morlet scalogram.  A true-alarm record shows the
anomaly band appearing only in the last two chunks; run with a false-alarm
record index to see the abrupt single-chunk signature instead.
"""

import numpy as np

from alarmsift import SynthSpec, build_sequence, synth_dataset
from alarmsift.records import ANOMALY_FREQ_HZ, Channel
from alarmsift.scalogram import MORLET, SCALES

records = synth_dataset(SynthSpec(n=4, true_ratio=0.5), seed=7)
record = records[0]  # a true alarm
print(f"{record.record_id}: label={record.label}, type={record.alarm_type.value}")

# scale a (in samples) has pseudo-frequency fc * fs / a
print(f"scales {SCALES[0]:.0f}..{SCALES[-1]:.0f}, "
      f"pseudo-frequencies {MORLET.fc * record.fs / SCALES[-1]:.2f}"
      f"..{MORLET.fc * record.fs / SCALES[0]:.1f} Hz")

seq = build_sequence(record, 6)
print(f"sequence tensor: {seq.shape} (chunks x channels x scales x time)")

# mean intensity of the anomaly-frequency rows per chunk: the temporal code
anomaly_scale = MORLET.fc * record.fs / ANOMALY_FREQ_HZ
row = int(np.argmin(np.abs(SCALES - anomaly_scale)))
ecg = record.channels.index(Channel.ECG_II)
profile = seq[:, ecg, row - 1:row + 2, :].mean(axis=(1, 2))
print("anomaly-band intensity per chunk:",
      " ".join(f"{v:.3f}" for v in profile))

# ASCII render of the final chunk's scalogram
img = seq[-1, ecg]
shades = " .:-=+*#%@"
print("\nfinal chunk, ECG II (rows = scales, low freq at bottom):")
for r in range(0, 64, 4):
    line = "".join(shades[int(v * (len(shades) - 1))] for v in img[r, ::2])
    print(f"  a={SCALES[r]:7.2f} |{line}|")
