"""Continuous wavelet transform scalograms, chunk by chunk.

Splits a 60-second record into six 10-second chunks and renders each chunk
of ECG lead II as a 64x64 Morlet scalogram.  A true-alarm record shows the
anomaly band appearing only in the last two chunks; run with a false-alarm
record index to see the abrupt single-chunk signature instead.
"""

import numpy as np

from alarmsift import (MorletParams, SynthSpec, build_sequence, log_scales,
                       synth_dataset)
from alarmsift.records import Channel

records = synth_dataset(SynthSpec(n=4, true_ratio=0.5), seed=7)
record = records[0]  # a true alarm
print(f"{record.record_id}: label={record.label}, type={record.alarm_type.value}")

grid = log_scales(64, 1.0, 128.0)
params = MorletParams()
print(f"scales {grid[0]:.0f}..{grid[-1]:.0f}, "
      f"pseudo-frequencies {params.freq_for_scale(grid[-1], record.fs):.2f}"
      f"..{params.freq_for_scale(grid[0], record.fs):.1f} Hz")

seq = build_sequence(record, 6)
print(f"sequence tensor: {seq.shape} (chunks x channels x scales x time)")

# mean intensity of the anomaly-frequency rows per chunk: the temporal code
anomaly_scale = params.scale_for_freq(8.0, record.fs)
row = int(np.argmin(np.abs(grid - anomaly_scale)))
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
    print(f"  a={grid[r]:7.2f} |{line}|")
