"""The 103-feature catalogue and the logistic baseline.

Extracts per-channel statistical/spectral descriptors, cross-channel
correlations, and the chunk-drift features, then cross-validates the
class-weighted logistic baseline on them.
"""

import numpy as np

from alarmsift import (FEATURE_NAMES, SynthSpec, auc, extract_features,
                       linear_classifier_fit, linear_classifier_predict,
                       stratified_kfold, synth_dataset)

records = synth_dataset(SynthSpec(n=60, true_ratio=0.5), seed=3)
features = np.stack([extract_features(r) for r in records])
labels = np.array([r.label for r in records])
print(f"feature matrix: {features.shape}, registry holds {len(FEATURE_NAMES)} names")

fv = dict(zip(FEATURE_NAMES, extract_features(records[0])))
for name in ("ecg_ii_dominant_freq", "ecg_ii_spectral_entropy",
             "ecg_ii_energy_drift_slope", "corr_ecg_ii_ecg_v",
             "rms_ratio_last_first_chunk"):
    print(f"  {name:32s} = {fv[name]: .4f}")

folds = stratified_kfold(labels, k=5, seed=42)
train_folds = [folds.train_indices(f) for f in range(5)]
# the five fold models fitted in one call, each from its training rows and seed 0
models = linear_classifier_fit([(features[tr], labels[tr], 0) for tr in train_folds])
oof = np.empty(len(records))
for f, model in enumerate(models):
    te = folds.test_indices(f)
    oof[te] = linear_classifier_predict(model, features[te])
print(f"\n5-fold out-of-fold AUC of the feature baseline: {auc(oof, labels):.3f}")
print("(the synthetic families are deliberately easy for this catalogue: the "
      "chunk-drift features read the end-of-window placement directly, and "
      "the 20-second ramp vs 10-second rectangle leaves distinct spectral "
      "line shapes at equal energy; real monitor artifacts are far less "
      "stylized, which is where sequence models earn their keep)")
