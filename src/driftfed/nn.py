"""Minimal stacked-LSTM classifier with hand-rolled backpropagation.

The model is a fixed graph: ``seq_len`` timesteps through ``hidden_layers``
LSTM layers (standard input/forget/cell/output gates), then a dense softmax
head on the last hidden state. Everything is plain numpy in double precision,
so gradients can be checked against finite differences.

All parameters of a model are one contiguous float64 vector,
``ModelParams.vec``; ``wx``, ``wh``, ``b``, ``w_out`` and ``b_out`` are views
into it in canonical order. Gradients, optimizer state, FedAvg and
checkpoints all work on such vectors.

Zero-state fast path: the carried ``h`` and ``c`` are zero at timestep 0, so
forward and backward skip the terms that only add exact zeros there (``h @
wh``, the forget gate, the carries into t=-1). At ``seq_len == 1`` ``wh`` is
therefore inert: its gradient is exactly zero, so with fresh optimizer moments
per :func:`train_local` call it would never change, and the optimizer skips it.

Determinism contract: every function here is a pure function of its inputs
plus the seeds carried in the configs. Shuffling uses per-epoch generators
derived from ``TrainConfig.seed``, so identical inputs give bit-identical
outputs across runs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dataset import LabeledData
from .errors import ConfigError, DataError, LabelError, ShapeError
from .seeds import rng_for

OPTIMIZERS = ("adam", "sgd")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class ModelArch:
    """Shape of the classifier: LSTM stack plus dense softmax output."""

    input_dim: int = 45
    hidden_layers: int = 5
    hidden_units: int = 128
    output_dim: int = 6
    seq_len: int = 1

    def __post_init__(self):
        for name in ("input_dim", "hidden_layers", "hidden_units", "output_dim", "seq_len"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 1:
                raise ConfigError(f"arch.{name} must be a positive integer, got {value!r}")
        if self.output_dim < 2:
            raise ConfigError("arch.output_dim must be at least 2")

    @property
    def layer_input_dims(self) -> tuple[int, ...]:
        return (self.input_dim,) + (self.hidden_units,) * (self.hidden_layers - 1)

    @property
    def feature_width(self) -> int:
        return self.input_dim * self.seq_len

    @cached_property
    def layout(self) -> tuple[tuple, tuple[slice, ...]]:
        """``(slots, live)`` of the flat parameter vector, computed once.

        ``slots`` is ``(slice, shape)`` per tensor in canonical order. ``live``
        is what the optimizer updates, split at every ``wh`` so each segment
        stays cache-sized; at ``seq_len == 1`` the inert ``wh`` are left out.
        """
        slots, live = [], []
        offset = start = 0
        for k, shape in enumerate(tensor_shapes(self)):
            end = offset + math.prod(shape)
            slots.append((slice(offset, end), shape))
            if k < 3 * self.hidden_layers and k % 3 == 1:  # a recurrent wh
                live.append(slice(start, offset))
                if self.seq_len > 1:
                    live.append(slice(offset, end))
                start = end
            offset = end
        return tuple(slots), tuple(live + [slice(start, offset)])


def param_count(arch: ModelArch) -> int:
    """Total number of scalar parameters, a pure function of the arch."""
    h = arch.hidden_units
    fan_in = arch.input_dim + (arch.hidden_layers - 1) * h
    return 4 * h * (fan_in + arch.hidden_layers * (h + 1)) + arch.output_dim * (h + 1)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    batch_size: int = 16
    local_epochs: int = 100
    optimizer: str = "adam"
    seed: int = 0

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ConfigError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")
        if self.local_epochs < 1:
            raise ConfigError("local_epochs must be at least 1")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"optimizer must be one of {OPTIMIZERS}")


def tensor_shapes(arch: ModelArch) -> list[tuple[int, ...]]:
    h = arch.hidden_units
    shapes: list[tuple[int, ...]] = []
    for d in arch.layer_input_dims:
        shapes.extend([(d, 4 * h), (h, 4 * h), (4 * h,)])
    shapes.extend([(h, arch.output_dim), (arch.output_dim,)])
    return shapes


def _split(arch: ModelArch, vec: np.ndarray):
    """``(wx, wh, b, w_out, b_out)`` views of a flat vector."""
    views = [vec[sl].reshape(shape) for sl, shape in arch.layout[0]]
    n = 3 * arch.hidden_layers
    return (tuple(views[0:n:3]), tuple(views[1:n:3]), tuple(views[2:n:3]),
            views[-2], views[-1])


@dataclass(frozen=True)
class ModelParams:
    """All weights of one model: one float64 vector with named views.

    Per LSTM layer: ``wx`` (layer_input, 4H) input weights, ``wh`` (H, 4H)
    recurrent weights and ``b`` (4H,) bias, gate order (input, forget, cell,
    output). Output head: ``w_out`` (H, C) and ``b_out`` (C,). They are views,
    in that order, into ``vec``, itself a read-only view of the array passed
    in. Instances returned by public functions own their memory; treat them
    as values.
    """

    arch: ModelArch
    vec: np.ndarray
    wx: tuple[np.ndarray, ...] = field(init=False, repr=False)
    wh: tuple[np.ndarray, ...] = field(init=False, repr=False)
    b: tuple[np.ndarray, ...] = field(init=False, repr=False)
    w_out: np.ndarray = field(init=False, repr=False)
    b_out: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        vec, size = self.vec, param_count(self.arch)
        if not (isinstance(vec, np.ndarray) and vec.dtype == np.float64
                and vec.shape == (size,) and vec.flags.c_contiguous):
            raise ShapeError(f"parameters must be a contiguous float64 vector of "
                             f"length {size} (param_count of the arch)")
        vec = vec.view()
        vec.flags.writeable = False
        object.__setattr__(self, "vec", vec)
        for name, value in zip(("wx", "wh", "b", "w_out", "b_out"), _split(self.arch, vec)):
            object.__setattr__(self, name, value)

    def flatten(self) -> np.ndarray:
        """The parameter vector itself (read-only, no copy)."""
        return self.vec


def unflatten(arch: ModelArch, flat: np.ndarray) -> ModelParams:
    """Params holding a float64 copy of ``flat``; inverse of ``ModelParams.flatten``."""
    return ModelParams(arch, np.array(flat, dtype=np.float64))


def init_params(arch: ModelArch, seed: int) -> ModelParams:
    """Deterministic initialization.

    Weights are uniform on (-k, k) with k = 1/sqrt(fan_in). Biases are zero
    except the LSTM forget-gate slice, which starts at 1 so cells keep state
    early in training.
    """
    rng = rng_for(seed, "init")
    h = arch.hidden_units
    vec = np.zeros(param_count(arch))
    wx, wh, b, w_out, _ = _split(arch, vec)
    for layer, d in enumerate(arch.layer_input_dims):
        kx = 1.0 / np.sqrt(d)
        kh = 1.0 / np.sqrt(h)
        wx[layer][...] = rng.uniform(-kx, kx, size=wx[layer].shape)
        wh[layer][...] = rng.uniform(-kh, kh, size=wh[layer].shape)
        b[layer][h:2 * h] = 1.0
    ko = 1.0 / np.sqrt(h)
    w_out[...] = rng.uniform(-ko, ko, size=w_out.shape)
    return ModelParams(arch, vec)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # piecewise form avoids exp overflow for large |x|: 1/(1+exp(-x)) for
    # x >= 0 and exp(x)/(1+exp(x)) below, both from e = exp(-|x|)
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=1, keepdims=True)


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-likelihood of the true classes."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1))
    picked = shifted[np.arange(len(labels)), labels]
    return float(np.mean(logz - picked))


def forward(params: ModelParams, batch: np.ndarray):
    """Run the network on a batch of rows.

    ``batch`` is (n, input_dim * seq_len); columns are timestep-major, i.e.
    the first ``input_dim`` columns are timestep 0. Returns (logits, cache)
    where the cache holds every intermediate needed by :func:`backward`.
    """
    arch = params.arch
    X = np.asarray(batch, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != arch.feature_width:
        raise ShapeError(
            f"batch has {X.shape[1] if X.ndim == 2 else '?'} columns, "
            f"expected input_dim*seq_len = {arch.feature_width}"
        )
    n = X.shape[0]
    hu = arch.hidden_units
    steps = X.reshape(n, arch.seq_len, arch.input_dim)
    inputs = [steps[:, t, :] for t in range(arch.seq_len)]

    layer_caches = []
    for layer in range(arch.hidden_layers):
        wx, wh, bias = params.wx[layer], params.wh[layer], params.b[layer]
        h = c = None  # the zero state before timestep 0
        cache, outputs = [], []
        for x in inputs:
            z = x @ wx
            if h is not None:
                z += h @ wh
            z += bias
            act = _sigmoid(z)  # gates i, f, o; the cell slice goes through tanh
            gi, gf, go = act[:, :hu], act[:, hu:2 * hu], act[:, 3 * hu:]
            gg = np.tanh(z[:, 2 * hu:3 * hu])
            c_prev = c
            c = gi * gg if c_prev is None else gf * c_prev + gi * gg
            tc = np.tanh(c)
            cache.append((x, h, c_prev, act, gg, tc))
            h = go * tc
            outputs.append(h)
        layer_caches.append(cache)
        inputs = outputs

    h_last = inputs[-1]
    logits = h_last @ params.w_out + params.b_out
    full_cache = {"layers": layer_caches, "h_last": h_last, "logits": logits, "n": n}
    return logits, full_cache


def backward(params: ModelParams, cache, labels: np.ndarray,
             out: np.ndarray | None = None) -> ModelParams:
    """Gradients of the mean cross-entropy loss w.r.t. every parameter.

    ``cache`` must come from :func:`forward` on the same params. Returns a
    ModelParams-shaped container of gradients. Its vector is a fresh zero
    vector, or ``out`` if given (float64, param_count long): backward
    overwrites every element except each ``wh`` when ``seq_len == 1``, whose
    gradient is zero, so ``out`` must hold zeros there.
    """
    arch = params.arch
    n = cache["n"]
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise LabelError(f"labels must be a vector of length {n}")
    if labels.size and (labels.min() < 0 or labels.max() >= arch.output_dim):
        raise LabelError(
            f"label out of range: max {int(labels.max())} for output_dim {arch.output_dim}"
        )

    grad = np.zeros(param_count(arch)) if out is None else out
    grads = ModelParams(arch, grad)  # checks ``out``; read-only views that follow grad
    g_wx, g_wh, g_b, g_w_out, g_b_out = _split(arch, grad)
    dlogits = softmax(cache["logits"])
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    np.matmul(cache["h_last"].T, dlogits, out=g_w_out)
    np.sum(dlogits, axis=0, out=g_b_out)

    hu = arch.hidden_units
    last = arch.seq_len - 1
    # gradient flowing into the hidden outputs of the layer above; None is zero
    upstream: list[np.ndarray | None] = [None] * last + [dlogits @ params.w_out.T]
    for layer in reversed(range(arch.hidden_layers)):
        wx, wh = params.wx[layer], params.wh[layer]
        gwx, gwh, gb = g_wx[layer], g_wh[layer], g_b[layer]
        dxs: list[np.ndarray | None] = [None] * (last + 1)
        for t in reversed(range(last + 1)):
            x, h_prev, c_prev, act, gg, tc = cache["layers"][layer][t]
            gi, gf, go = act[:, :hu], act[:, hu:2 * hu], act[:, 3 * hu:]
            if t == last:
                dh = upstream[t]
            elif upstream[t] is None:
                dh = dh_carry
            else:
                dh = upstream[t] + dh_carry
            dc = dh * go * (1.0 - tc * tc)
            if t < last:
                dc += dc_carry
            one_minus = 1.0 - act
            dz = np.concatenate([
                dc * gg * gi * one_minus[:, :hu],
                np.zeros_like(dc) if c_prev is None else dc * c_prev * gf * one_minus[:, hu:2 * hu],
                dc * gi * (1.0 - gg * gg),
                dh * tc * go * one_minus[:, 3 * hu:],
            ], axis=1)
            if t == last:
                np.matmul(x.T, dz, out=gwx)
                np.sum(dz, axis=0, out=gb)
            else:
                gwx += x.T @ dz
                gb += dz.sum(axis=0)
            if h_prev is not None:
                if t == last:
                    np.matmul(h_prev.T, dz, out=gwh)
                else:
                    gwh += h_prev.T @ dz
                dh_carry = dz @ wh.T
                dc_carry = dc * gf
            if layer:
                dxs[t] = dz @ wx.T
        upstream = dxs

    return grads


def predict(params: ModelParams, batch: np.ndarray, chunk: int = 8192) -> np.ndarray:
    """Argmax class per row; ties resolve to the lowest class index."""
    X = np.asarray(batch, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != params.arch.feature_width:
        raise ShapeError(
            f"batch has {X.shape[1] if X.ndim == 2 else '?'} columns, "
            f"expected {params.arch.feature_width}"
        )
    out = np.empty(X.shape[0], dtype=np.int64)
    for start in range(0, X.shape[0], chunk):
        logits, _ = forward(params, X[start:start + chunk])
        out[start:start + chunk] = np.argmax(logits, axis=1)
    return out


class _Optimizer:
    """Adam or SGD, in place on the live segments of ``vec`` (see ``ModelArch.layout``).

    Per-segment views of the vector, the gradient, the moments and two scratch
    buffers are built once; a step allocates nothing.
    """

    def __init__(self, cfg: TrainConfig, arch: ModelArch, vec: np.ndarray, grad: np.ndarray):
        self.adam = cfg.optimizer == "adam"
        self.lr = cfg.learning_rate
        self.t = 0
        longest = max(sl.stop - sl.start for sl in arch.layout[1])
        scratch = np.empty(longest), np.empty(longest)
        m, v = np.zeros_like(vec), np.zeros_like(vec)
        self.segments = [
            (vec[sl], grad[sl], m[sl], v[sl], *(s[:sl.stop - sl.start] for s in scratch))
            for sl in arch.layout[1]
        ]

    def step(self):
        if not self.adam:
            for p, g, _, _, a, _ in self.segments:
                np.multiply(g, self.lr, out=a)  # p -= lr * g
                p -= a
            return
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        for p, g, m, v, a, b in self.segments:
            # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), op for op
            m *= ADAM_BETA1
            np.multiply(g, 1.0 - ADAM_BETA1, out=a)
            m += a
            v *= ADAM_BETA2
            np.multiply(g, 1.0 - ADAM_BETA2, out=a)
            a *= g
            v += a
            np.divide(m, bc1, out=a)
            a *= self.lr
            np.divide(v, bc2, out=b)
            np.sqrt(b, out=b)
            b += ADAM_EPS
            a /= b
            p -= a


def train_local(params: ModelParams, data: LabeledData, cfg: TrainConfig):
    """Mini-batch training on one client's shard.

    Runs ``cfg.local_epochs`` epochs with a fresh optimizer state; shuffling
    is a per-epoch permutation from a generator derived from ``cfg.seed``.
    Returns ``(updated_params, sample_count, wall_clock_seconds)``.
    """
    n = len(data)
    if n == 0:
        raise DataError("cannot train on an empty dataset")
    y = np.asarray(data.y)
    if y.min() < 0 or y.max() >= params.arch.output_dim:
        raise LabelError(
            f"label out of range: max {int(y.max())} for output_dim {params.arch.output_dim}"
        )
    X = np.asarray(data.X, dtype=np.float64)

    start = time.perf_counter()
    arch = params.arch
    vec = params.vec.copy()
    working = ModelParams(arch, vec)  # read-only views that follow vec
    grad = np.zeros_like(vec)
    optimizer = _Optimizer(cfg, arch, vec, grad)

    for epoch in range(cfg.local_epochs):
        order = rng_for(cfg.seed, "shuffle", epoch).permutation(n)
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo:lo + cfg.batch_size]
            _, cache = forward(working, X[idx])
            backward(working, cache, y[idx], out=grad)
            optimizer.step()

    return working, n, time.perf_counter() - start
