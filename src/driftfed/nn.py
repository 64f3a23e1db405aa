"""Minimal stacked-LSTM classifier with hand-rolled backpropagation.

The model is a fixed graph: ``seq_len`` timesteps through ``hidden_layers``
LSTM layers (standard input/forget/cell/output gates), then a dense softmax
head on the last hidden state. Everything is plain numpy in double precision,
so gradients can be checked against finite differences.

All parameters of a model are one contiguous float64 vector,
``ModelParams.vec``; ``wx``, ``wh``, ``b``, ``w_out`` and ``b_out`` are views
into it in canonical order. Gradients, optimizer state, FedAvg and
checkpoints all work on such vectors. A stack of ``g`` models is a ``(g, P)``
block whose views gain a leading ``g`` axis; :func:`forward` and
:func:`backward` take either form.

Zero-state fast path: the carried ``h`` and ``c`` are zero at timestep 0, so
forward and backward skip the terms that only add exact zeros there (``h @
wh``, the forget gate, the carries into t=-1). At ``seq_len == 1`` ``wh`` is
therefore inert: its gradient is exactly zero, so with fresh optimizer moments
per :func:`train_local` call it would never change, and the optimizer skips it.

Lockstep clients: :func:`train_local` trains the clients of a FedAvg round
together. The clients are ordered by shard size, so at each step of an epoch
the clients whose batch has the same row count are consecutive. Each maximal
such run is stacked on a leading axis, and forward, backward and the Adam or
SGD update run once per run over ``(g, b, F)`` batches and ``(g, P)``
parameter, gradient and moment blocks. A ragged last batch forms its own run:
batches are stacked, never padded. Clients train in cohorts of at most
``max(1, COHORT_PARAMS // param_count(arch))``, so a cohort's optimizer state
stays cache-sized; at the full 5x128 arch a cohort is one client. The
gradient, the moments and the optimizer scratch are allocated once per call,
for the largest cohort, and reused by every cohort. Per client
stay the shuffle, Adam's step count (clients with different batch counts
share runs from the second epoch on) and the batch size that divides the
loss gradient.

Stacking is exact. A 3-D ``matmul`` runs the same BLAS call per stacked
matrix as a 2-D ``matmul`` on that matrix, since the matrices have the same
shapes and strides; a sum over the batch axis adds the same rows in the same
order; elementwise ufuncs do not depend on their neighbours. Padding would
not be exact: OpenBLAS picks its kernel by the row count, so ``x @ wx`` on a
batch padded with zero rows can differ in the last bit. The per-client
formulation in ``tests/reference_lstm.py`` pins this byte for byte.

Determinism contract: every function here is a pure function of its inputs,
seeds included. Shuffling uses per-epoch generators derived from each
client's seed argument, so identical inputs give bit-identical outputs
across runs.
"""

from __future__ import annotations

import itertools
import math
import time
from collections.abc import Sequence
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

# Parameters trained together: a cohort of lockstep clients holds at most
# max(1, COHORT_PARAMS // param_count(arch)) of them.
COHORT_PARAMS = 2**16


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
    """``(wx, wh, b, w_out, b_out)`` views of a flat vector or a ``(g, P)`` stack.

    In a stack every view gains a leading ``g`` axis, and the biases become
    ``(g, 1, n)`` so that they broadcast over a batch axis.
    """
    lead = vec.shape[:-1]
    views = []
    for sl, shape in arch.layout[0]:
        if lead and len(shape) == 1:
            shape = (1,) + shape
        views.append(vec[..., sl].reshape(lead + shape))
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
                and vec.ndim in (1, 2) and vec.shape[-1] == size and vec.flags.c_contiguous):
            raise ShapeError(f"parameters must be a contiguous float64 vector of "
                             f"length {size} (param_count of the arch), or a stack of them")
        vec = vec.view()
        vec.flags.writeable = False
        object.__setattr__(self, "vec", vec)
        for name, value in zip(("wx", "wh", "b", "w_out", "b_out"), _split(self.arch, vec)):
            object.__setattr__(self, name, value)


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
    """Row-wise softmax over the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-likelihood of the true classes."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1))
    picked = shifted[np.arange(len(labels)), labels]
    return float(np.mean(logz - picked))


def _t(a: np.ndarray) -> np.ndarray:
    """Transpose of the matrices in the last two axes."""
    return a.swapaxes(-1, -2)


def _check_batch(params: ModelParams, X: np.ndarray) -> None:
    stack = params.vec.shape[:-1]
    width = params.arch.feature_width
    if X.ndim != len(stack) + 2 or X.shape[:len(stack)] != stack or X.shape[-1] != width:
        expected = f"{stack[0]} stacked batches of " if stack else ""
        raise ShapeError(f"batch has shape {X.shape}, expected {expected}rows of "
                         f"input_dim*seq_len = {width} columns")


def _lstm(params: ModelParams, X: np.ndarray, keep: bool):
    """Logits ``(g, n, C)`` of a ``(g, n, F)`` batch, and the BPTT cache if ``keep``.

    Without ``keep`` every intermediate is dropped as soon as the next one
    exists, which is all inference needs.
    """
    arch = params.arch
    hu = arch.hidden_units
    g, n = X.shape[:2]
    steps = X.reshape(g, n, arch.seq_len, arch.input_dim)
    inputs = [steps[:, :, t] for t in range(arch.seq_len)]

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
            gi, gf, go = act[..., :hu], act[..., hu:2 * hu], act[..., 3 * hu:]
            gg = np.tanh(z[..., 2 * hu:3 * hu])
            del z
            c_prev = c
            c = gi * gg if c_prev is None else gf * c_prev + gi * gg
            tc = np.tanh(c)
            if keep:
                cache.append((x, h, c_prev, act, gg, tc))
            h = go * tc
            del act, gi, gf, go, gg, tc
            outputs.append(h)
        layer_caches.append(cache)
        inputs = outputs

    h_last = inputs[-1]
    logits = h_last @ params.w_out + params.b_out
    return logits, layer_caches, h_last


def forward(params: ModelParams, batch: np.ndarray):
    """Run the network on a batch of rows.

    ``batch`` is (n, input_dim * seq_len); columns are timestep-major, i.e.
    the first ``input_dim`` columns are timestep 0. For a stack of ``g``
    models it is (g, n, input_dim * seq_len), one batch per model. Returns
    (logits, cache), logits (n, C) or (g, n, C), where the cache holds every
    intermediate needed by :func:`backward`.
    """
    X = np.asarray(batch, dtype=np.float64)
    _check_batch(params, X)
    stacked = X.ndim == 3
    logits, layers, h_last = _lstm(params, X if stacked else X[None], keep=True)
    cache = {"layers": layers, "h_last": h_last, "logits": logits, "n": X.shape[-2]}
    return (logits if stacked else logits[0]), cache


def backward(params: ModelParams, cache, labels: np.ndarray,
             out: np.ndarray | None = None) -> ModelParams:
    """Gradients of the mean cross-entropy loss w.r.t. every parameter.

    ``cache`` must come from :func:`forward` on the same params, and
    ``labels`` has the shape of the batch without its feature axis. Returns a
    ModelParams-shaped container of gradients (a stack for stacked params).
    Its vector is fresh zeros, or ``out`` if given (float64, shaped like
    ``params.vec``): backward overwrites every element except each ``wh``
    when ``seq_len == 1``, whose gradient is zero, so ``out`` must hold zeros
    there.
    """
    arch = params.arch
    n = cache["n"]
    labels = np.asarray(labels)
    if labels.shape != params.vec.shape[:-1] + (n,):
        raise LabelError(f"labels must have shape {params.vec.shape[:-1] + (n,)}")
    if labels.size and (labels.min() < 0 or labels.max() >= arch.output_dim):
        raise LabelError(
            f"label out of range: max {int(labels.max())} for output_dim {arch.output_dim}"
        )

    grad = np.zeros(params.vec.shape) if out is None else out
    grads = ModelParams(arch, grad)  # checks ``out``; read-only views that follow grad
    if grad.shape != params.vec.shape:
        raise ShapeError(f"gradient buffer has shape {grad.shape}, expected {params.vec.shape}")
    g_wx, g_wh, g_b, g_w_out, g_b_out = _split(arch, grad.reshape(-1, grad.shape[-1]))
    dlogits = softmax(cache["logits"])
    dlogits.reshape(-1, arch.output_dim)[np.arange(labels.size), labels.ravel()] -= 1.0
    dlogits /= n
    np.matmul(_t(cache["h_last"]), dlogits, out=g_w_out)
    np.sum(dlogits, axis=-2, keepdims=True, out=g_b_out)

    hu = arch.hidden_units
    last = arch.seq_len - 1
    # gradient flowing into the hidden outputs of the layer above; None is zero
    upstream: list[np.ndarray | None] = [None] * last + [dlogits @ _t(params.w_out)]
    for layer in reversed(range(arch.hidden_layers)):
        wx, wh = params.wx[layer], params.wh[layer]
        gwx, gwh, gb = g_wx[layer], g_wh[layer], g_b[layer]
        dxs: list[np.ndarray | None] = [None] * (last + 1)
        for t in reversed(range(last + 1)):
            x, h_prev, c_prev, act, gg, tc = cache["layers"][layer][t]
            gi, gf, go = act[..., :hu], act[..., hu:2 * hu], act[..., 3 * hu:]
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
                dc * gg * gi * one_minus[..., :hu],
                np.zeros_like(dc) if c_prev is None else dc * c_prev * gf * one_minus[..., hu:2 * hu],
                dc * gi * (1.0 - gg * gg),
                dh * tc * go * one_minus[..., 3 * hu:],
            ], axis=-1)
            if t == last:
                np.matmul(_t(x), dz, out=gwx)
                np.sum(dz, axis=-2, keepdims=True, out=gb)
            else:
                gwx += _t(x) @ dz
                gb += dz.sum(axis=-2, keepdims=True)
            if h_prev is not None:
                if t == last:
                    np.matmul(_t(h_prev), dz, out=gwh)
                else:
                    gwh += _t(h_prev) @ dz
                dh_carry = dz @ _t(wh)
                dc_carry = dc * gf
            if layer:
                dxs[t] = dz @ _t(wx)
        upstream = dxs

    return grads


def predict(params: ModelParams, batch: np.ndarray, chunk: int = 8192) -> np.ndarray:
    """Argmax class per row; ties resolve to the lowest class index.

    Runs without the BPTT cache, chunk by chunk, so memory stays at a few
    gate blocks of one chunk.
    """
    X = np.asarray(batch, dtype=np.float64)
    if params.vec.ndim != 1:
        raise ShapeError("predict takes the parameters of one model")
    _check_batch(params, X)
    out = np.empty(X.shape[0], dtype=np.int64)
    for start in range(0, X.shape[0], chunk):
        logits, _, _ = _lstm(params, X[None, start:start + chunk], keep=False)
        out[start:start + chunk] = np.argmax(logits[0], axis=1)
    return out


class _Optimizer:
    """Adam or SGD, in place on the rows of a ``(K, P)`` block of ``K`` models.

    One optimizer serves a whole :func:`train_local` call and holds its
    workspace, sized for the largest cohort: the gradient block, Adam's two
    moments and two scratch vectors. The moments cover only the live
    segments (see ``ModelArch.layout``), packed side by side, and
    :meth:`reset` zeroes them for each cohort. The gradient is zeroed once:
    backward overwrites all of it but the inert ``wh``, whose zeros stay.
    :meth:`segments` builds the per-segment views of a run's rows once; a
    step allocates nothing beyond its bias-correction column.
    """

    def __init__(self, cfg: TrainConfig, arch: ModelArch, rows: int):
        self.adam = cfg.optimizer == "adam"
        self.lr = cfg.learning_rate
        self.live = arch.layout[1]
        widths = [sl.stop - sl.start for sl in self.live]
        offsets = list(itertools.accumulate(widths, initial=0))
        self.packed = [slice(lo, hi) for lo, hi in zip(offsets, offsets[1:])]
        self.grad = np.zeros((rows, param_count(arch)))
        self.moments = np.zeros((2, rows, offsets[-1] if self.adam else 0))  # SGD keeps none
        self.scratch = np.empty((2, rows * max(widths)))

    def reset(self, rows: int) -> None:
        """Fresh moments for a cohort of ``rows`` models."""
        self.moments[:, :rows] = 0.0

    def segments(self, vec: np.ndarray, rows: slice) -> list[tuple[np.ndarray, ...]]:
        """``(p, g, m, v, a, b)`` views per live segment of ``rows``; a, b are scratch."""
        g = rows.stop - rows.start
        m, v = self.moments
        out = []
        for sl, packed in zip(self.live, self.packed):
            width = sl.stop - sl.start
            out.append((vec[rows, sl], self.grad[rows, sl], m[rows, packed], v[rows, packed])
                       + tuple(s[:g * width].reshape(g, width) for s in self.scratch))
        return out

    def step(self, segments, t):
        """One update of a run's rows; ``t`` is their Adam step count, an int or a list."""
        if not self.adam:
            for p, g, _, _, a, _ in segments:
                np.multiply(g, self.lr, out=a)  # p -= lr * g
                p -= a
            return
        if isinstance(t, int):
            bc1 = 1.0 - ADAM_BETA1 ** t
            bc2 = 1.0 - ADAM_BETA2 ** t
        else:  # per row, with Python's float power like the scalar case
            bc1 = np.array([[1.0 - ADAM_BETA1 ** k] for k in t])
            bc2 = np.array([[1.0 - ADAM_BETA2 ** k] for k in t])
        for p, g, m, v, a, b in segments:
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


@dataclass(frozen=True)
class _Run:
    """Consecutive clients of a cohort whose batch at one step has the same row count."""

    step: int                    # index of the batch within the epoch
    batches: int | tuple[int, ...]  # batches per epoch: one int if the rows agree, else per row
    params: ModelParams          # stacked working parameters of the rows
    grad: np.ndarray
    X: np.ndarray                # (g, b, F) view of the shuffled shards
    y: np.ndarray
    segments: list

    def adam_step(self, epoch: int):
        """Adam's step count after this run's update, an int or one per row."""
        if isinstance(self.batches, int):
            return epoch * self.batches + self.step + 1
        return [epoch * nb + self.step + 1 for nb in self.batches]


def _train_cohort(start: ModelParams, shards: list[LabeledData], seeds: list[int],
                  cfg: TrainConfig, vec: np.ndarray, optimizer: _Optimizer) -> None:
    """Train clients sorted by shard size in lockstep; their results go to the rows of ``vec``."""
    arch = start.arch
    bs = cfg.batch_size
    sizes = [len(s) for s in shards]
    vec[...] = start.vec
    optimizer.reset(len(shards))
    X = np.empty((len(shards), max(sizes), arch.feature_width))
    y = np.empty((len(shards), max(sizes)), dtype=np.int64)

    # The run schedule is the same every epoch; only the buffer contents change.
    batches = [-(-n // bs) for n in sizes]
    schedule = []
    for step in range(max(batches)):
        lo = step * bs
        rows = [min(bs, n - lo) for n in sizes]
        i = 0
        while i < len(rows):
            j = i + 1
            while j < len(rows) and rows[j] == rows[i]:
                j += 1
            if rows[i] > 0:
                run, hi = slice(i, j), lo + rows[i]
                counts = tuple(batches[run])
                schedule.append(_Run(step, counts[0] if len(set(counts)) == 1 else counts,
                                     ModelParams(arch, vec[run]), optimizer.grad[run],
                                     X[run, lo:hi], y[run, lo:hi],
                                     optimizer.segments(vec, run)))
            i = j

    for epoch in range(cfg.local_epochs):
        for k, (shard, seed) in enumerate(zip(shards, seeds)):
            order = rng_for(seed, "shuffle", epoch).permutation(sizes[k])
            X[k, :sizes[k]] = shard.X[order]
            y[k, :sizes[k]] = shard.y[order]
        for run in schedule:
            _, cache = forward(run.params, run.X)
            backward(run.params, cache, run.y, out=run.grad)
            optimizer.step(run.segments, run.adam_step(epoch))


def train_local(params: ModelParams, data: LabeledData | Sequence[LabeledData],
                cfg: TrainConfig, seed: int | Sequence[int]):
    """Mini-batch training of one client's shard, or of several clients in lockstep.

    ``data`` is one shard and ``seed`` one seed, or a list of client shards
    that all start from ``params`` and a parallel list of seeds. Each client
    runs ``cfg.local_epochs`` epochs with a fresh optimizer state; shuffling
    is a per-epoch permutation from a generator derived from its seed. The
    result for a client does not depend on which other clients train beside
    it. Returns ``(updated_params, sample_count, wall_clock_seconds)``; for a
    list of shards the first two are lists in shard order and the seconds
    cover all of them.
    """
    single = isinstance(data, LabeledData)
    shards = [data] if single else list(data)
    seeds = list(seed) if isinstance(seed, Sequence) else [seed]
    if not shards or len(seeds) != len(shards):
        raise ConfigError(f"need one seed per shard and at least one shard, got "
                          f"{len(seeds)} seed(s) for {len(shards)} shard(s)")
    arch = params.arch
    prepared = []
    for shard in shards:
        if len(shard) == 0:
            raise DataError("cannot train on an empty dataset")
        y = np.asarray(shard.y)
        if y.min() < 0 or y.max() >= arch.output_dim:
            raise LabelError(
                f"label out of range: max {int(y.max())} for output_dim {arch.output_dim}"
            )
        X = np.asarray(shard.X, dtype=np.float64)
        if X.shape[1] != arch.feature_width:
            raise ShapeError(f"shard has {X.shape[1]} columns, expected "
                             f"input_dim*seq_len = {arch.feature_width}")
        prepared.append(LabeledData(X, y))

    start = time.perf_counter()
    sizes = [len(s) for s in prepared]
    order = sorted(range(len(sizes)), key=sizes.__getitem__)  # stable: ties keep shard order
    trained = np.empty((len(order), param_count(arch)))
    per_cohort = max(1, COHORT_PARAMS // param_count(arch))
    optimizer = _Optimizer(cfg, arch, min(per_cohort, len(order)))
    for lo in range(0, len(order), per_cohort):
        cohort = order[lo:lo + per_cohort]
        _train_cohort(params, [prepared[k] for k in cohort], [seeds[k] for k in cohort],
                      cfg, trained[lo:lo + len(cohort)], optimizer)
    results = [None] * len(order)
    for row, k in enumerate(order):
        results[k] = ModelParams(arch, trained[row])
    seconds = time.perf_counter() - start
    if single:
        return results[0], sizes[0], seconds
    return results, sizes, seconds
