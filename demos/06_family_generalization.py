"""Family transfer: does a model that keeps learning new families still detect the old ones?

A run scores every checkpoint on every period's test set, and each of those
cells keeps its counts of test rows by true category and predicted class.
The transfer table reads them per strategy and attack family:

  before  recall on the family's first test set by the newest checkpoint
          trained before the family arrived (forward transfer: does a
          detector carry to a family it never saw?)
  at      the same test set, scored by the newest checkpoint at or before
          that period (the family's self-test)
  last    recall on the last test set by the newest checkpoint (what is
          left of the family by the end of the timeline)

Recall is the share of the family's rows predicted as its class: Attack in
the binary task, the family itself in six-class. Here: the desk-scale preset
at learning rate 0.01, 300 rows per sub-attack, five strategies.
"""

import tempfile

from driftfed import desk_scale, run_experiment
from driftfed.runner import config_from_dict

with tempfile.TemporaryDirectory() as out:
    cfg = desk_scale(config_from_dict({
        "seed": 3,
        "output_dir": out,
        "data": {"synthetic": {"rows_per_subattack": 300}},
        "federation": {"train": {"learning_rate": 0.01}},
        "strategies": [{"kind": "static"}, {"kind": "cumulative"}, {"kind": "simple"},
                       {"kind": "representative"}, {"kind": "retain", "retain_r": 100}],
    }))
    result = run_experiment(cfg)
    rows = [line.split(",") for line in
            (result.output_dir / "transfer_binary.csv").read_text().splitlines()]

widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
for i, row in enumerate(rows):
    if i > 1 and row[0] != rows[i - 1][0]:  # a blank line between strategies
        print()
    print("  ".join(field.rjust(width) for field, width in zip(row, widths)))

recall = {(row[0], row[1]): row[3] for row in rows[1:]}
print(f"\ncumulative on DoS before it arrives: {recall['cumulative', 'DoS']} "
      "(the detector does not carry to an unseen family)")
print(f"representative on DoS before it arrives: {recall['representative', 'DoS']} "
      "(it trains on every family's representative from t1)")
