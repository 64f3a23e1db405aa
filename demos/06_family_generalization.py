"""Attack-to-attack generalization: how far does one family's detector carry?

For every family, train a binary detector on (Benign, that family), then
score it against every other family's test rows. Diagonal cells are
self-tests; off-diagonal cells measure distributional overlap. In the
bundled scenario MQTT and DDoS are engineered to be the farthest-apart
pair, so their cross cells collapse while DoS-style neighbours transfer.
At full scale on real flood traffic the DoS/DDoS cross cell is typically
near-perfect; treat published figures as reference points, not targets.
"""

from driftfed import (FedConfig, ModelArch, TrainConfig, attack_generalization_matrix,
                      default_drift_scenario, generate, stratified_split)
from driftfed.timeline import FAMILY_MEMBERS

records = generate(default_drift_scenario(seed=3, rows_per_subattack=300))
train_rows, test_rows = stratified_split(records, 0.8, seed=3)

families = ["MQTT", "DoS", "DDoS", "Recon", "Spoofing"]
cfg = FedConfig(num_clients=5, rounds=3, train=TrainConfig(local_epochs=5))
arch = ModelArch(input_dim=45, hidden_layers=1, hidden_units=16, output_dim=2)

matrix = attack_generalization_matrix(families, records, train_rows, test_rows, cfg, arch,
                                      FAMILY_MEMBERS, seed=3)

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
