"""Federated mechanics: size-weighted aggregation, rounds, averaging init.

Five clients train locally from a broadcast model; the server averages the
results proportionally to client data size. Periods chain through their
final checkpoints, and the averaging variants instead restart each period
from a parameter average over everything trained so far.
"""

import numpy as np

from driftfed import (Checkpoint, FedConfig, LabeledData, ModelArch, ModelParams,
                      TrainConfig, fedavg_aggregate, init_from_history, init_params,
                      predict, run_round)
from driftfed.nn import param_count

arch = ModelArch(input_dim=4, hidden_layers=1, hidden_units=6, output_dim=2)
width = param_count(arch)

# size-weighted mean: a client with 3x the data pulls 3x as hard
a = ModelParams(arch, np.zeros(width))
b = ModelParams(arch, np.ones(width))
merged = fedavg_aggregate([a, b], [100, 300])
print(f"fedavg of 0s (n=100) and 1s (n=300): every element = {merged.vec[0]}")

# communication rounds over five IID shards; the clients of a round train in
# lockstep, so a round reports one training time for all of them
rng = np.random.default_rng(0)
shards = []
for _ in range(5):
    X = rng.normal(size=(60, 4))
    shards.append(LabeledData(X, (X[:, 0] + X[:, 1] > 0).astype(int)))
cfg = FedConfig(num_clients=5, rounds=3,
                train=TrainConfig(local_epochs=5, learning_rate=0.01))
model = init_params(arch, seed=2)
full = LabeledData.concat(shards)
for rnd in range(cfg.rounds):
    model, seconds = run_round(model, shards, cfg, seed=9, round_index=rnd)
    acc = np.mean(predict(model, full.X) == full.y)
    print(f"round {rnd}: global accuracy {acc:.3f} (training {seconds * 1000:.0f} ms)")

# averaging-initialization variants over a fake checkpoint history
history = [
    Checkpoint(ModelParams(arch, np.full(width, 0.0)), 1, 100, 0.0),
    Checkpoint(ModelParams(arch, np.full(width, 1.0)), 2, 300, 0.0),
    Checkpoint(ModelParams(arch, np.full(width, 1.0)), 3, 100, 0.0),
]
for mode in ("equal", "sample", "ema"):
    merged = init_from_history(mode, history, ema_alpha=0.6)
    print(f"init_from_history[{mode:<6}] -> element value {merged.vec[0]:.3f}")
