"""Attack-to-attack generalization: how far does one family's detector carry?

For every family, train a binary detector on (Benign, that family), then
score it against every other family's test rows. Diagonal cells are
self-tests; off-diagonal cells measure distributional overlap. In the
bundled scenario MQTT and DDoS are engineered to be the farthest-apart
pair, so their cross cells collapse while DoS-style neighbours transfer.
At full scale on real flood traffic the DoS/DDoS cross cell is typically
near-perfect; treat published figures as reference points, not targets.

The matrix reads a run config and prepares, deals and trains as a run
does: here the desk-scale preset at learning rate 0.01.
"""

from driftfed import attack_generalization_matrix, desk_scale
from driftfed.runner import config_from_dict

cfg = desk_scale(config_from_dict({
    "seed": 3,
    "data": {"synthetic": {"rows_per_subattack": 300}},
    "federation": {"train": {"learning_rate": 0.01}},
}))
matrix = attack_generalization_matrix(cfg)

header = " ".join(f"{name:>9}" for name in matrix.families) + "      mean"
corner = "train \\ test"
print(f"{corner:<14}{header}")
for i, name in enumerate(matrix.families):
    cells = " ".join(f"{v:9.3f}" for v in matrix.values[i])
    print(f"{name:<14}{cells}")

mqtt = matrix.row("MQTT")
ddos_col = matrix.families.index("DDoS")
print(f"\nMQTT-trained detector on DDoS traffic: {mqtt[ddos_col]:.3f} "
      "(the engineered worst pair)")
