"""The evaluation statistics toolkit on its own.

Walks through AUC with ties, the clinical metric table, stratified folds,
the DeLong paired test, and the bootstrap interval on an AUC difference.
"""

import numpy as np

from alarmsift import (Confusion, auc, bootstrap_auc_diff, confusion_metrics,
                       delong_test, fold_summary, stratified_kfold)

print("== AUC ==")
print("perfect ranking:", auc([0.9, 0.8, 0.3, 0.2], [1, 1, 0, 0]))
print("all ties:       ", auc([0.5] * 4, [1, 0, 1, 0]))

print("\n== clinical metrics from confusion counts ==")
m = confusion_metrics(Confusion(tp=93, tn=288, fp=52, fn=65))
for k, v in m.as_dict().items():
    print(f"  {k:12s} {v:.3f}")

print("\n== fold aggregation ==")
s = fold_summary([0.7923, 0.8254, 0.8185, 0.8344, 0.8373])
print(f"  mean {s.mean:.4f} +/- {s.std:.4f}, 95% interval "
      f"[{s.ci_lo:.3f}, {s.ci_hi:.3f}]")

print("\n== stratified 5-fold on a 498-record label vector ==")
labels = np.zeros(498, bool)
labels[:158] = True
fa = stratified_kfold(labels, 5, seed=42)
for f in range(5):
    te = fa.test_indices(f)
    print(f"  fold {f}: n={te.size}, positives={int(labels[te].sum())}")

print("\n== paired model comparison ==")
rng = np.random.default_rng(11)
n = 400
y = rng.random(n) < 0.35
strong = y + 0.6 * rng.standard_normal(n)
weak = y + 2.0 * rng.standard_normal(n)
res = delong_test(weak, strong, y)  # (baseline, improved)
print(f"  AUC baseline={res.auc_a:.3f}, improved={res.auc_b:.3f}")
print(f"  DeLong z={res.z:.3f}, p={res.p:.2g}")
ci = bootstrap_auc_diff(strong, weak, y, n_iter=1000, seed=42)
print(f"  bootstrap 95% CI on the AUC gain: [{ci.lower:.3f}, {ci.upper:.3f}]")
