"""Train the chunk-sequence classifier end to end (small, a few minutes).

Builds 6-chunk scalogram sequences for a synthetic dataset, trains the
shared-encoder + two-layer LSTM model with class-weighted loss, gradient
clipping, and early stopping, then evaluates the held-out split and shows
why the static (single-chunk, zero LSTM layers) variant cannot match it.
"""

import numpy as np

from alarmsift import (ModelConfig, SynthSpec, auc, build_sequence,
                       synth_dataset, train)
from alarmsift.harness import stratified_split
from alarmsift.net import predict

N_RECORDS = 80  # raise to 240 for the full desk-scale run

records = synth_dataset(SynthSpec(n=N_RECORDS, true_ratio=0.5), seed=42)
labels = np.array([r.label for r in records])
print(f"building {N_RECORDS} sequences ...")
x6 = np.stack([build_sequence(r, 6) for r in records])

cfg = ModelConfig(embed_dim=32, lstm_hidden=16, head_hidden=16,
                  learning_rate=2e-3, max_epochs=25, batch_size=16, seed=42)
tr, va, te = stratified_split(labels, [0.6, 0.15, 0.25], seed=42)
params, history = train(x6, labels, tr, va, cfg)
print(f"stopped after {history.epochs_run} epochs ({history.stop_reason}), "
      f"best epoch {history.best_epoch}")
print("val AUC:", " ".join(f"{v:.2f}" for v in history.val_auc))
print(f"temporal held-out AUC: {auc(predict(x6[te], params), labels[te]):.3f}")

# static baseline: one 60 s scalogram per channel, head directly on the
# embedding; global pooling erases where in the window the anomaly sits
x1 = np.stack([build_sequence(r, 1) for r in records])
cfg_static = ModelConfig(embed_dim=32, lstm_hidden=16, head_hidden=16,
                         learning_rate=2e-3, max_epochs=25, batch_size=16,
                         seed=42, n_chunks=1, lstm_layers=0)
params_s, hist_s = train(x1, labels, tr, va, cfg_static)
print(f"static held-out AUC:   {auc(predict(x1[te], params_s), labels[te]):.3f}")
