"""Generate a synthetic flow dataset and round-trip it through the loader.

The default scenario mirrors the full timeline roster: 17 attack sub-classes
in five families plus Benign, with each family sitting at its own mean in
feature space. MQTT and DDoS occupy the same feature block with opposite
signs, so they are the farthest-apart pair.
"""

import tempfile
from pathlib import Path

import numpy as np

from driftfed import (category_of, default_drift_scenario, generate, load_records,
                      records_by_class, write_delimited)

spec = default_drift_scenario(seed=42, rows_per_subattack=120)
records = generate(spec)
print(f"generated {len(records)} rows, {records.width} features each")

by_class = records_by_class(records)
print(f"{len(by_class)} classes:")
for cls in sorted(by_class):
    print(f"  {category_of(cls):<9} {cls:<26} {len(by_class[cls])} rows")

# pairwise family mean distances: MQTT vs DDoS should be the widest gap
means = {f.category: f.mean for f in spec.families if f.category != "Benign"}
print("\npairwise family mean distances:")
names = sorted(means)
for i, a in enumerate(names):
    for b in names[i + 1:]:
        print(f"  {a:<9} vs {b:<9} {np.linalg.norm(means[a] - means[b]):6.2f}")

# the emitted CSV is exactly what the pipeline loader consumes
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "flows.csv"
    colspec = write_delimited(records, path)
    loaded = load_records(path, colspec)
    identical = loaded == records  # same labels, row order and feature bits
    print(f"\nCSV round trip: {len(loaded)} rows restored, bit-identical: {identical}")
