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
A step is at the zero state when it has no carried ``c``: every step at
``seq_len == 1``, otherwise t=0. There the sigmoid runs only on the input and
output gate blocks, read through the strided view ``[..., ::3, :]`` of the
``(.., 4, H)`` gate preactivations, tanh on the cell block, and ``c = i * g``;
the forget gate is never computed and backward writes zeros for its block.
Later steps take the sigmoid of all four blocks. The matmuls stay ``4H``
wide: a product with a column slice of ``wx`` (``x @ wx[:, 2H:]``) can pick
another BLAS kernel and differ from the full product in the last bit
(seen with OpenBLAS for H not a multiple of 4).

The sigmoid avoids ``np.where``: with ``e = exp(-|x|)`` it divides the
numerator ``max(e, x >= 0)``, which is 1 for x >= 0 and e below, by ``1 + e``.
Each element gets the same division the piecewise form ``1/(1+e)`` or
``e/(1+e)`` would pick, so the bits are those of ``tests/reference_lstm.py``.

Lockstep clients: :func:`train_local` trains a list of client shards
together, as one cohort. The clients are ordered by shard size, so at each
step of an epoch the clients whose batch has the same row count are
consecutive. Each maximal such run is stacked on a leading axis, and
forward, backward and the Adam or SGD update run once per run over ``(g, b,
F)`` batches and ``(g, P)`` parameter, gradient and moment blocks. A ragged
last batch forms its own run: batches are stacked, never padded. The trained
parameters, the gradient, the moments and the optimizer scratch live in one
:class:`Optimizer` workspace. ``run_round`` owns the cohorts: it splits a
round's clients into cohorts of at most :func:`cohort_size`, so a cohort's
optimizer state stays cache-sized (at the desk 1x16 arch a round's five
clients are one cohort, at the full 5x128 arch each client is its own), and
passes every :func:`train_local` call of the round one workspace: fresh
buffers would be paged in again on every call. The optimizer keeps each
row's Adam step count beside its moments and resets both per cohort, so
clients with different batch counts can share runs from the second epoch
on. Per client stay the shuffle, the step count and the batch size that
divides the loss gradient.

Nothing a step needs is rebuilt per step. A :func:`train_local` call splits
each run's gradient rows into writable views once (a :class:`GradientBuffer`),
beside the optimizer's per-segment views, and passes it to
:func:`backward` as ``out``. Adam updates a segment's two moments together,
one call per operation over their ``(2, g, w)`` block, with ``(2, 1, 1)``
beta constants and one ``(2, g, 1)`` bias-correction block per step; each
element gets the operations of the per-moment form in the same order. The
segments are at most :data:`SEGMENT_PARAMS` wide, so the blocks of one such
call stay in L2 at the full 5x128 arch too. Reductions call
``np.add.reduce`` and ``np.maximum.reduce`` directly.

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
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dataset import RowShard
from .errors import ConfigError, DataError, LabelError, ShapeError, check_field
from .seeds import rng_for

OPTIMIZERS = ("adam", "sgd")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Adam's constants for the (2, g, w) block of both moments, m first
_BETAS = np.array([ADAM_BETA1, ADAM_BETA2]).reshape(2, 1, 1)
_ONE_MINUS_BETAS = np.array([1.0 - ADAM_BETA1, 1.0 - ADAM_BETA2]).reshape(2, 1, 1)

# Parameters trained together: a cohort of lockstep clients holds at most
# cohort_size(arch) = max(1, COHORT_PARAMS // param_count(arch)) of them.
COHORT_PARAMS = 2**16

# Widest live segment (see ModelArch.layout): a wider run of parameters is cut
# into near-equal pieces, so the blocks that one Adam operation over both
# moments touches stay in L2 (uncut, the 66k-wide segments of 5x128 made its
# step about 9% slower on an x86-64 core with 2 MiB of L2).
SEGMENT_PARAMS = 2**15

# Rows per forward pass in predict.
PREDICT_CHUNK = 8192


@dataclass(frozen=True)
class ModelArch:
    """Shape of the classifier: LSTM stack plus dense softmax output."""

    input_dim: int = 45
    hidden_layers: int = 5
    hidden_units: int = 128
    output_dim: int = 6
    seq_len: int = 1

    def __post_init__(self):
        for name in ("input_dim", "hidden_layers", "hidden_units", "seq_len"):
            check_field(name, getattr(self, name), "integer", 1)
        check_field("output_dim", self.output_dim, "integer", 2)

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
        is what the optimizer updates, split at every ``wh`` and into pieces
        of at most :data:`SEGMENT_PARAMS`, so each segment stays cache-sized;
        at ``seq_len == 1`` the inert ``wh`` are left out.
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
        pieces = []
        for sl in live + [slice(start, offset)]:
            width, n = sl.stop - sl.start, -(-(sl.stop - sl.start) // SEGMENT_PARAMS)
            edges = [sl.start + width * k // n for k in range(n + 1)]
            pieces += [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]
        return tuple(slots), tuple(pieces)


def param_count(arch: ModelArch) -> int:
    """Total number of scalar parameters: where the arch's last tensor ends."""
    return arch.layout[0][-1][0].stop


def cohort_size(arch: ModelArch) -> int:
    """Most clients ``run_round`` trains in one lockstep cohort at ``arch``."""
    return max(1, COHORT_PARAMS // param_count(arch))


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    batch_size: int = 16
    local_epochs: int = 100
    optimizer: str = "adam"

    def __post_init__(self):
        check_field("learning_rate", self.learning_rate, "number", 0)
        check_field("batch_size", self.batch_size, "integer", 1)
        check_field("local_epochs", self.local_epochs, "integer", 1)
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"optimizer: must be one of {OPTIMIZERS}, got {self.optimizer!r}")


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
    # x >= 0 and exp(x)/(1+exp(x)) below, both from e = exp(-|x|). Since
    # 0 <= e <= 1, the numerator max(e, x >= 0) is 1 or e as the piece needs.
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.maximum(e, x >= 0)
    e += 1.0
    out /= e
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax over the last axis."""
    ex = np.exp(logits - np.maximum.reduce(logits, axis=-1, keepdims=True))
    ex /= np.add.reduce(ex, axis=-1, keepdims=True)
    return ex


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
            gates = z.reshape(g, n, 4, hu)  # blocks i, f, g, o
            gg = np.tanh(gates[..., 2, :])
            c_prev = c
            if c_prev is None:  # the forget gate would only scale the zero state
                act = _sigmoid(gates[..., ::3, :])  # blocks i and o
                gi, gf, go = act[..., 0, :], None, act[..., 1, :]
                c = gi * gg
            else:
                act = _sigmoid(gates)  # the cell block's sigmoid goes unread
                gi, gf, go = act[..., 0, :], act[..., 1, :], act[..., 3, :]
                c = gf * c_prev + gi * gg
            del z, gates
            tc = np.tanh(c)
            if keep:
                cache.append((x, h, c_prev, gi, gf, go, gg, tc))
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


class GradientBuffer:
    """A gradient vector as :func:`backward` fills it, split once.

    ``grads`` is the ModelParams that backward returns, whose read-only views
    follow ``vec``; ``views`` are :func:`_split`'s writable views of the same
    buffer with a leading stack axis, one model being a stack of one. Both
    are built here from ``vec``, so they always cover the same memory. A
    caller that steps many times builds one per buffer and passes it as
    ``out``.
    """

    __slots__ = ("grads", "views")

    def __init__(self, arch: ModelArch, vec: np.ndarray):
        self.grads = ModelParams(arch, vec)  # checks the buffer
        self.views = _split(arch, vec.reshape(-1, vec.shape[-1]))


def backward(params: ModelParams, cache, labels: np.ndarray,
             out: np.ndarray | GradientBuffer | None = None) -> ModelParams:
    """Gradients of the mean cross-entropy loss w.r.t. every parameter.

    ``cache`` must come from :func:`forward` on the same params, and
    ``labels`` has the shape of the batch without its feature axis. Returns a
    ModelParams-shaped container of gradients (a stack for stacked params).
    Its vector is fresh zeros, or ``out`` if given: a float64 array shaped
    like ``params.vec``, or a :class:`GradientBuffer` of one. Backward
    overwrites every element except each ``wh`` when ``seq_len == 1``, whose
    gradient is zero, so the buffer must hold zeros there.
    """
    arch = params.arch
    n = cache["n"]
    labels = np.asarray(labels)
    if labels.shape != params.vec.shape[:-1] + (n,):
        raise LabelError(f"labels must have shape {params.vec.shape[:-1] + (n,)}")
    if labels.size:
        high = np.maximum.reduce(labels, axis=None)
        if np.minimum.reduce(labels, axis=None) < 0 or high >= arch.output_dim:
            raise LabelError(
                f"label out of range: max {int(high)} for output_dim {arch.output_dim}")

    if not isinstance(out, GradientBuffer):
        out = GradientBuffer(arch, np.zeros(params.vec.shape) if out is None else out)
    grads, (g_wx, g_wh, g_b, g_w_out, g_b_out) = out.grads, out.views
    if grads.vec.shape != params.vec.shape or grads.arch != arch:
        raise ShapeError(f"gradient buffer has shape {grads.vec.shape} of {grads.arch}, "
                         f"expected {params.vec.shape} of {arch}")
    dlogits = softmax(cache["logits"])
    dlogits.reshape(-1, arch.output_dim)[np.arange(labels.size), labels.ravel()] -= 1.0
    dlogits /= n
    np.matmul(_t(cache["h_last"]), dlogits, out=g_w_out)
    np.add.reduce(dlogits, axis=-2, keepdims=True, out=g_b_out)

    hu = arch.hidden_units
    last = arch.seq_len - 1
    # gradient flowing into the hidden outputs of the layer above; None is zero
    upstream: list[np.ndarray | None] = [None] * last + [dlogits @ _t(params.w_out)]
    # gate gradients of one step, blocks i, f, g, o; every step overwrites them
    dz_gates = np.empty(dlogits.shape[:-1] + (4, hu))
    dz = dz_gates.reshape(dlogits.shape[:-1] + (4 * hu,))
    for layer in reversed(range(arch.hidden_layers)):
        wx, wh = params.wx[layer], params.wh[layer]
        gwx, gwh, gb = g_wx[layer], g_wh[layer], g_b[layer]
        dxs: list[np.ndarray | None] = [None] * (last + 1)
        for t in reversed(range(last + 1)):
            x, h_prev, c_prev, gi, gf, go, gg, tc = cache["layers"][layer][t]
            if t == last:
                dh = upstream[t]
            elif upstream[t] is None:
                dh = dh_carry
            else:
                dh = upstream[t] + dh_carry
            dc = dh * go * (1.0 - tc * tc)
            if t < last:
                dc += dc_carry
            np.multiply(dc * gg * gi, 1.0 - gi, out=dz_gates[..., 0, :])
            if c_prev is None:
                dz_gates[..., 1, :] = 0.0
            else:
                np.multiply(dc * c_prev * gf, 1.0 - gf, out=dz_gates[..., 1, :])
            np.multiply(dc * gi, 1.0 - gg * gg, out=dz_gates[..., 2, :])
            np.multiply(dh * tc * go, 1.0 - go, out=dz_gates[..., 3, :])
            if t == last:
                np.matmul(_t(x), dz, out=gwx)
                np.add.reduce(dz, axis=-2, keepdims=True, out=gb)
            else:
                gwx += _t(x) @ dz
                gb += np.add.reduce(dz, axis=-2, keepdims=True)
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


def predict(params: ModelParams, batch: np.ndarray) -> np.ndarray:
    """Argmax class per row; ties resolve to the lowest class index.

    Runs without the BPTT cache, :data:`PREDICT_CHUNK` rows at a time, so
    memory stays at a few gate blocks of one chunk.
    """
    X = np.asarray(batch, dtype=np.float64)
    if params.vec.ndim != 1:
        raise ShapeError("predict takes the parameters of one model")
    _check_batch(params, X)
    out = np.empty(X.shape[0], dtype=np.int64)
    for start in range(0, X.shape[0], PREDICT_CHUNK):
        rows = slice(start, start + PREDICT_CHUNK)
        logits, _, _ = _lstm(params, X[None, rows], keep=False)
        out[rows] = np.argmax(logits[0], axis=1)
    return out


class Optimizer:
    """Adam or SGD, in place on the rows of a ``(K, P)`` block of ``K`` models.

    One optimizer holds the training workspace for ``cfg`` and ``arch``,
    sized for cohorts of up to ``rows`` clients: the block the trained
    parameters go to, the gradient block, Adam's state per row (two moments
    and a step count) and a scratch block. ``run_round`` makes one per round
    and passes it to every :func:`train_local` call, which makes one unless
    it is given one to reuse: fresh buffers would be paged in again. The
    moments cover only the live segments (see ``ModelArch.layout``), packed
    side by side in one ``(2, K, width)`` block, and :meth:`reset` zeroes
    them and the step counts for each cohort. The gradient is zeroed once: backward overwrites all of it but
    the inert ``wh``, whose zeros stay. :meth:`segments` builds the
    per-segment views of a run's rows once per :func:`train_local` call. A
    step updates both moments of a segment with one call per operation over
    their ``(2, g, w)`` view, and allocates nothing beyond its ``(2, g, 1)``
    bias-correction block.
    """

    def __init__(self, cfg: TrainConfig, arch: ModelArch, rows: int):
        self.cfg, self.arch, self.rows = cfg, arch, rows
        self.out = np.empty((rows, param_count(arch)))
        self.adam = cfg.optimizer == "adam"
        self.lr = cfg.learning_rate
        self.live = arch.layout[1]
        widths = [sl.stop - sl.start for sl in self.live]
        offsets = list(itertools.accumulate(widths, initial=0))
        self.packed = [slice(lo, hi) for lo, hi in zip(offsets, offsets[1:])]
        self.grad = np.zeros((rows, param_count(arch)))
        self.moments = np.zeros((2, rows, offsets[-1] if self.adam else 0))  # SGD keeps none
        self.counts = [0] * rows  # Adam's step count per row
        self.scratch = np.empty(2 * rows * max(widths))

    def reset(self, rows: int) -> None:
        """Fresh moments and step counts for a cohort of ``rows`` models."""
        self.moments[:, :rows] = 0.0
        self.counts[:rows] = [0] * rows

    def segments(self, vec: np.ndarray, rows: slice) -> list[tuple[np.ndarray, ...]]:
        """``(p, g, mv, ab, a, b)`` views per live segment of ``rows``.

        ``mv`` is the ``(2, g, w)`` block of both moments, ``ab`` a scratch
        block of that shape and ``a``, ``b`` its halves.
        """
        g = rows.stop - rows.start
        out = []
        for sl, packed in zip(self.live, self.packed):
            ab = self.scratch[:2 * g * (sl.stop - sl.start)].reshape(2, g, -1)
            out.append((vec[rows, sl], self.grad[rows, sl], self.moments[:, rows, packed],
                        ab, ab[0], ab[1]))
        return out

    def step(self, segments, rows: slice) -> None:
        """One update of ``rows``, whose per-segment views are ``segments``."""
        if not self.adam:
            for p, g, _, _, a, _ in segments:
                np.multiply(g, self.lr, out=a)  # p -= lr * g
                p -= a
            return
        counts = self.counts[rows] = [t + 1 for t in self.counts[rows]]
        # a (g, 1) column per moment and row, with Python's float power
        bc = np.array([1.0 - ADAM_BETA1 ** t for t in counts]
                      + [1.0 - ADAM_BETA2 ** t for t in counts]).reshape(2, -1, 1)
        for p, g, mv, ab, a, b in segments:
            # m = b1 * m + (1 - b1) * g and v = b2 * v + ((1 - b2) * g) * g, both
            # in one block, then p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), op for op
            mv *= _BETAS
            np.multiply(g, _ONE_MINUS_BETAS, out=ab)
            b *= g
            mv += ab
            np.divide(mv, bc, out=ab)
            a *= self.lr
            np.sqrt(b, out=b)
            b += ADAM_EPS
            a /= b
            p -= a


@dataclass(frozen=True)
class _Run:
    """Consecutive clients of a cohort whose batch at one step has the same row count."""

    rows: slice                  # the run's rows of the cohort
    params: ModelParams          # stacked working parameters of the rows
    grad: GradientBuffer         # the rows' gradient, split once
    X: np.ndarray                # (g, b, F) batch, a view of the cohort's one batch buffer
    y: np.ndarray
    picked: np.ndarray           # (g, b) rows of the matrix that the batch gathers
    segments: list


def train_local(params: ModelParams, shards: Sequence[RowShard],
                cfg: TrainConfig, seeds: Sequence[int],
                workspace: Optimizer | None = None) -> list[ModelParams]:
    """Mini-batch training of client shards in lockstep, as one cohort.

    Every shard starts from ``params``, with its own seed from the parallel
    list ``seeds``, and runs ``cfg.local_epochs`` epochs with a fresh
    optimizer state; shuffling is a per-epoch permutation from a generator
    derived from its seed. The result for a client does not depend on which
    other clients train beside it. ``workspace`` is an :class:`Optimizer`
    for ``cfg`` and the arch with at least one row per shard, or ``None`` for
    a fresh one. The results, in shard order, are views of its output
    block, so a caller that passes one workspace to several calls must be
    done with one call's results before the next.

    The shards are :class:`RowShard` rows of one matrix, which every shard
    of a call must share (a run's shards from ``pipeline.encode_labels``
    share its scaled table); shards of two matrices raise
    :class:`DataError`. The features are not copied per shard: an epoch's
    order is each client's row indices, permuted, and each step gathers a
    run's stacked batch straight from the matrix into one batch buffer with
    one ``np.take``. So a cohort holds one batch of features, its rows'
    indices and labels.
    """
    shards, seeds = list(shards), list(seeds)
    if not shards or len(seeds) != len(shards):
        raise ConfigError(f"need one seed per shard and at least one shard, got "
                          f"{len(seeds)} seed(s) for {len(shards)} shard(s)")
    arch = params.arch
    if any(shard.X is not shards[0].X for shard in shards):
        raise DataError("train_local trains shards of one matrix: every shard of a call "
                        "must share its X")
    matrix = np.asarray(shards[0].X, dtype=np.float64)
    if matrix.shape[1] != arch.feature_width:
        raise ShapeError(f"shards have {matrix.shape[1]} columns, expected "
                         f"input_dim*seq_len = {arch.feature_width}")
    for shard in shards:
        if len(shard) == 0:
            raise DataError("cannot train on an empty dataset")
        if shard.y.min() < 0 or shard.y.max() >= arch.output_dim:
            raise LabelError(f"label out of range: max {int(shard.y.max())} "
                             f"for output_dim {arch.output_dim}")
    if workspace is None:
        workspace = Optimizer(cfg, arch, len(shards))
    elif workspace.cfg != cfg or workspace.arch != arch or workspace.rows < len(shards):
        raise ConfigError(f"workspace is for {workspace.rows} client(s) of another config or "
                          f"arch; this call needs {len(shards)} of {cfg} at {arch}")

    # clients sorted by shard size (stable: ties keep shard order) make each
    # step's runs of equal batch row counts consecutive
    order = sorted(range(len(shards)), key=lambda k: len(shards[k]))
    shards = [shards[k] for k in order]
    seeds = [seeds[k] for k in order]
    bs = cfg.batch_size
    sizes = [len(s) for s in shards]
    vec = workspace.out[:len(shards)]
    vec[...] = params.vec
    workspace.reset(len(shards))
    # each client's epoch order as row indices of the matrix, and the labels in that order
    picked = np.empty((len(shards), max(sizes)), dtype=np.intp)
    y = np.empty((len(shards), max(sizes)), dtype=np.int64)
    batch = np.empty(len(shards) * min(bs, max(sizes)) * arch.feature_width)

    # The run schedule is the same every epoch; only the buffer contents change.
    schedule = []
    for lo in range(0, max(sizes), bs):
        rows = [min(bs, n - lo) for n in sizes]
        i = 0
        while i < len(rows):
            j = i + 1
            while j < len(rows) and rows[j] == rows[i]:
                j += 1
            if rows[i] > 0:
                run, hi = slice(i, j), lo + rows[i]
                X = batch[:(j - i) * rows[i] * arch.feature_width].reshape(
                    j - i, rows[i], arch.feature_width)
                schedule.append(_Run(run, ModelParams(arch, vec[run]),
                                     GradientBuffer(arch, workspace.grad[run]),
                                     X, y[run, lo:hi], picked[run, lo:hi],
                                     workspace.segments(vec, run)))
            i = j

    for epoch in range(cfg.local_epochs):
        for k, (shard, seed) in enumerate(zip(shards, seeds)):
            perm = rng_for(seed, "shuffle", epoch).permutation(sizes[k])
            picked[k, :sizes[k]] = shard.rows[perm]
            y[k, :sizes[k]] = shard.y[perm]
        for run in schedule:
            np.take(matrix, run.picked, axis=0, out=run.X, mode="clip")  # rows are in range
            _, cache = forward(run.params, run.X)
            backward(run.params, cache, run.y, out=run.grad)
            workspace.step(run.segments, run.rows)

    results = [None] * len(shards)
    for row, k in enumerate(order):
        results[k] = ModelParams(arch, vec[row])
    return results
