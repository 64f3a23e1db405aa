"""Walk the preprocessing pipeline: clean, split, scale, encode.

Cleaning drops non-finite rows and the one sub-attack class with no valid
instances. The split is stratified per class with chronological order kept
inside each half and returns row indices, so the one cleaned table is
min-max scaled once, on statistics of its training rows only.
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

# the split is two arrays of row indices into the cleaned table
train_rows, test_rows = stratified_split(cleaned, train_fraction=0.8, seed=7)
print(f"split: {len(train_rows)} train / {len(test_rows)} test rows")
train_by_class = records_by_class(cleaned, train_rows)
test_by_class = records_by_class(cleaned, test_rows)
for cls in ("Benign", "ARP_Spoofing"):
    print(f"  {cls:<13} {len(train_by_class[cls]):>4} train / "
          f"{len(test_by_class[cls]):>3} test")

# one table is scaled once, on statistics of its training rows
table = apply_scaler(fit_scaler(cleaned, train_rows), cleaned)
matrix = table.X[test_rows]
print(f"scale: test features now span [{matrix.min():.3f}, {matrix.max():.3f}] "
      "(clamped to [0, 1], statistics fitted on train only)")

for codec in CODECS.values():
    data = encode_labels(codec, table, train_rows)
    counts = np.bincount(data.y, minlength=codec.num_classes)
    pairs = ", ".join(f"{name}={n}" for name, n in zip(codec.class_names, counts))
    print(f"encode[{codec.task}]: {pairs}")
