"""Walk the preprocessing pipeline: clean, split, scale, encode.

Cleaning drops non-finite rows and the one sub-attack class with no valid
instances. The split is stratified per class with chronological order kept
inside each half, and min-max statistics come from training rows only.
"""

import numpy as np

from driftfed import (CODECS, FlowTable, apply_scaler, clean, encode_labels,
                      default_drift_scenario, fit_scaler, generate,
                      records_by_class, stratified_split)
from driftfed.pipeline import REMOVED_SUB_ATTACK

records = generate(default_drift_scenario(seed=7, rows_per_subattack=100))

# append rows that cleaning must remove: one NaN row, five of the removed class
legacy = 5
dirty = FlowTable.of(np.vstack([records.X, np.full((1, 45), np.nan), np.ones((legacy, 45))]),
                     records.labels + ["Benign"] + [REMOVED_SUB_ATTACK] * legacy)
cleaned = clean(dirty)
print(f"clean: {len(dirty)} rows in, {len(cleaned)} out "
      f"(dropped 1 NaN row and {legacy} rows of {REMOVED_SUB_ATTACK})")

train, test = stratified_split(cleaned, train_fraction=0.8, seed=7)
print(f"split: {len(train)} train / {len(test)} test")
for cls in ("Benign", "ARP_Spoofing"):
    n_train = len(records_by_class(train)[cls])
    n_test = len(records_by_class(test)[cls])
    print(f"  {cls:<13} {n_train:>4} train / {n_test:>3} test")

stats = fit_scaler(train)
train_scaled = apply_scaler(stats, train)
test_scaled = apply_scaler(stats, test)
matrix = test_scaled.X
print(f"scale: test features now span [{matrix.min():.3f}, {matrix.max():.3f}] "
      "(clamped to [0, 1], statistics fitted on train only)")

for codec in CODECS.values():
    data = encode_labels(codec, train_scaled)
    counts = np.bincount(data.y, minlength=codec.num_classes)
    pairs = ", ".join(f"{name}={n}" for name, n in zip(codec.class_names, counts))
    print(f"encode[{codec.task}]: {pairs}")
