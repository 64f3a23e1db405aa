"""Federated mechanics: size-weighted aggregation, rounds, averaging init.

Five clients train locally from a broadcast model; the server averages the
results proportionally to client data size. Periods chain through their
final checkpoints, and the averaging variants instead restart each period
from a parameter average over everything trained so far.
"""

import numpy as np

from driftfed import (ALL_STRATEGIES, Checkpoint, FedConfig, ModelArch, ModelParams,
                      RowShard, TrainConfig, fedavg_aggregate, init_from_history,
                      init_params, predict, run_round)
from driftfed.federation import RunningAverage
from driftfed.nn import param_count

arch = ModelArch(input_dim=4, hidden_layers=1, hidden_units=6, output_dim=2)
width = param_count(arch)

# size-weighted mean: a client with 3x the data pulls 3x as hard
a = ModelParams(arch, np.zeros(width))
b = ModelParams(arch, np.ones(width))
merged = fedavg_aggregate([a, b], [100, 300])
print(f"fedavg of 0s (n=100) and 1s (n=300): every element = {merged.vec[0]}")

# communication rounds over five IID shards, each 60 rows of one matrix; the
# clients of a round train in lockstep, and the round returns the
# size-weighted average of their models
rng = np.random.default_rng(0)
X = rng.normal(size=(300, 4))
y = (X[:, 0] + X[:, 1] > 0).astype(int)
shards = [RowShard(X, rows, y[rows]) for rows in np.split(np.arange(300), 5)]
cfg = FedConfig(num_clients=5, rounds=3,
                train=TrainConfig(local_epochs=5, learning_rate=0.01))
model = init_params(arch, seed=2)
for rnd in range(cfg.rounds):
    model = run_round(model, shards, cfg, seed=9, round_index=rnd)
    acc = np.mean(predict(model, X) == y)
    print(f"round {rnd}: global accuracy {acc:.3f}")

# averaging-initialization variants over a fake checkpoint history, folded in
# one checkpoint at a time as each period ends
history = [
    Checkpoint(ModelParams(arch, np.full(width, 0.0)), 1, 100),
    Checkpoint(ModelParams(arch, np.full(width, 1.0)), 2, 300),
    Checkpoint(ModelParams(arch, np.full(width, 1.0)), 3, 100),
]
for strategy in [s for s in ALL_STRATEGIES if s.averages]:
    running = RunningAverage(strategy)
    for ckpt in history:
        merged = init_from_history(running, ckpt)
    print(f"init_from_history[{strategy.label:<10}] -> element value {merged.vec[0]:.3f}")
