"""Exercise the LSTM engine: shapes, gradient checking, and local training.

The engine is a stacked LSTM plus a softmax head in plain numpy, with
backpropagation through time written out by hand. Double precision makes
the analytic gradients checkable against central finite differences.
"""

import numpy as np

from driftfed import (ModelArch, ModelParams, RowShard, TrainConfig, backward,
                      cross_entropy, forward, init_params, param_count, predict,
                      train_local)

arch = ModelArch(input_dim=6, hidden_layers=2, hidden_units=5, output_dim=3, seq_len=2)
print(f"architecture: {arch}")
print(f"parameter count: {param_count(arch)}")

params = init_params(arch, seed=0)
rng = np.random.default_rng(0)
X = rng.normal(size=(8, arch.feature_width))
y = rng.integers(0, 3, 8)
logits, cache = forward(params, X)
print(f"forward: batch of {X.shape[0]} -> logits {logits.shape}, "
      f"loss {cross_entropy(logits, y):.4f}")

# gradient check against central differences on a few random coordinates
flat = params.vec
analytic = backward(params, cache, y).vec
step = 1e-5
worst = 0.0
for k in rng.choice(flat.size, size=25, replace=False):
    up, dn = flat.copy(), flat.copy()
    up[k] += step
    dn[k] -= step
    hi, _ = forward(ModelParams(arch, up), X)
    lo, _ = forward(ModelParams(arch, dn), X)
    numeric = (cross_entropy(hi, y) - cross_entropy(lo, y)) / (2 * step)
    denom = max(1e-6, abs(analytic[k]), abs(numeric))
    worst = max(worst, abs(analytic[k] - numeric) / denom)
print(f"gradient check on 25 random coordinates: max relative error {worst:.2e}")

# train on two separable blobs and watch accuracy converge
blob_a = rng.normal(-1.5, 0.5, size=(80, 4))
blob_b = rng.normal(+1.5, 0.5, size=(80, 4))
# a shard is row indices into a matrix, here all 160 rows of the blobs'
data = RowShard(np.vstack([blob_a, blob_b]), np.arange(160), np.array([0] * 80 + [1] * 80))
small = ModelArch(input_dim=4, hidden_layers=1, hidden_units=8, output_dim=2)
model = init_params(small, seed=1)
for epochs in (1, 5, 20):
    [trained] = train_local(model, [data], TrainConfig(local_epochs=epochs), seeds=[3])
    acc = np.mean(predict(trained, data.X) == data.y)
    print(f"train_local: {epochs:>2} epochs over {len(data)} rows -> accuracy {acc:.3f}")
