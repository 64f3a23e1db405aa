"""Per-tensor reference formulation of the LSTM engine, for bit-equality tests.

This is the straightforward form of the arithmetic in ``driftfed.nn``: one
array per tensor, the full BPTT recurrence at every timestep (including the
zero-state terms at t=0), and Adam applied to every tensor. The engine in
``driftfed.nn`` must produce the same bits from the same inputs.
"""

import numpy as np

from driftfed.nn import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, tensor_shapes
from driftfed.seeds import rng_for


def split(arch, flat):
    tensors, offset = [], 0
    for shape in tensor_shapes(arch):
        size = int(np.prod(shape))
        tensors.append(np.array(flat[offset:offset + size]).reshape(shape))
        offset += size
    return tensors


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def forward(arch, tensors, X):
    n, hu = X.shape[0], arch.hidden_units
    steps = X.reshape(n, arch.seq_len, arch.input_dim)
    inputs = [steps[:, t, :] for t in range(arch.seq_len)]
    caches = []
    for layer in range(arch.hidden_layers):
        wx, wh, bias = tensors[3 * layer:3 * layer + 3]
        h = np.zeros((n, hu))
        c = np.zeros((n, hu))
        cache = []
        outputs = []
        for t in range(arch.seq_len):
            z = inputs[t] @ wx + h @ wh + bias
            gi = _sigmoid(z[:, :hu])
            gf = _sigmoid(z[:, hu:2 * hu])
            gg = np.tanh(z[:, 2 * hu:3 * hu])
            go = _sigmoid(z[:, 3 * hu:])
            cache.append((inputs[t], h, c, gi, gf, gg, go))
            c = gf * c + gi * gg
            tc = np.tanh(c)
            h = go * tc
            cache[-1] += (tc,)
            outputs.append(h)
        caches.append(cache)
        inputs = outputs
    logits = inputs[-1] @ tensors[-2] + tensors[-1]
    return logits, (caches, inputs[-1], logits)


def backward(arch, tensors, cache, labels):
    caches, h_last, logits = cache
    n, hu, seq_len = h_last.shape[0], arch.hidden_units, arch.seq_len
    shifted = logits - logits.max(axis=1, keepdims=True)
    ex = np.exp(shifted)
    dlogits = ex / ex.sum(axis=1, keepdims=True)
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    grads = [None] * len(tensors)
    grads[-2] = h_last.T @ dlogits
    grads[-1] = dlogits.sum(axis=0)
    upstream = [np.zeros_like(h_last) for _ in range(seq_len)]
    upstream[-1] = dlogits @ tensors[-2].T
    for layer in reversed(range(arch.hidden_layers)):
        wx, wh, bias = tensors[3 * layer:3 * layer + 3]
        gwx, gwh, gb = np.zeros_like(wx), np.zeros_like(wh), np.zeros_like(bias)
        dxs = [None] * seq_len
        dh_carry = np.zeros((n, hu))
        dc_carry = np.zeros((n, hu))
        for t in reversed(range(seq_len)):
            x, h_prev, c_prev, gi, gf, gg, go, tc = caches[layer][t]
            dh = upstream[t] + dh_carry
            do = dh * tc
            dc = dh * go * (1.0 - tc * tc) + dc_carry
            dc_carry = dc * gf
            dz = np.concatenate([dc * gg * gi * (1.0 - gi),
                                 dc * c_prev * gf * (1.0 - gf),
                                 dc * gi * (1.0 - gg * gg),
                                 do * go * (1.0 - go)], axis=1)
            gwx += x.T @ dz
            gwh += h_prev.T @ dz
            gb += dz.sum(axis=0)
            dxs[t] = dz @ wx.T
            dh_carry = dz @ wh.T
        upstream = dxs
        grads[3 * layer:3 * layer + 3] = [gwx, gwh, gb]
    return grads


def train(arch, flat, X, y, cfg, seed):
    """Local training as ``driftfed.nn.train_local``; returns the flat vector."""
    tensors = split(arch, flat)
    m = [np.zeros_like(t) for t in tensors]
    v = [np.zeros_like(t) for t in tensors]
    step = 0
    for epoch in range(cfg.local_epochs):
        order = rng_for(seed, "shuffle", epoch).permutation(len(y))
        for lo in range(0, len(y), cfg.batch_size):
            idx = order[lo:lo + cfg.batch_size]
            _, cache = forward(arch, tensors, X[idx])
            grads = backward(arch, tensors, cache, y[idx])
            step += 1
            bc1 = 1.0 - ADAM_BETA1 ** step
            bc2 = 1.0 - ADAM_BETA2 ** step
            for k, (tensor, grad) in enumerate(zip(tensors, grads)):
                m[k] = ADAM_BETA1 * m[k] + (1.0 - ADAM_BETA1) * grad
                v[k] = ADAM_BETA2 * v[k] + (1.0 - ADAM_BETA2) * grad * grad
                tensor -= cfg.learning_rate * (m[k] / bc1) / (np.sqrt(v[k] / bc2) + ADAM_EPS)
    return np.concatenate([t.ravel() for t in tensors])
