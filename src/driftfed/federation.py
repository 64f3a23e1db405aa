"""Federated orchestration: FedAvg rounds, checkpoint chaining, averaging init.

Every client with training rows takes part in every round. Aggregation
order is canonical (client index), and per-client training seeds derive
from (round, client), so a run is reproducible regardless of how clients
would be scheduled.
"""

from __future__ import annotations

import json
import os
import struct
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field

import numpy as np

from .atomic import write_atomic
from .dataset import RowShard
from .errors import (AggregationError, CheckpointError, DivergenceError, DriftFedError,
                     FederationError, check_field)
from .nn import (ModelArch, ModelParams, Optimizer, TrainConfig, cohort_size, init_params,
                 param_count, predict, train_local)
from .seeds import derive_seed
from .timeline import StrategyConfig


@dataclass(frozen=True)
class FedConfig:
    num_clients: int = 5
    rounds: int = 15
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        check_field("num_clients", self.num_clients, "integer", 1)
        # run_timeline seeds round r of period p as 1000 * p + r, so a 1001st
        # round would replay the client shuffles of the next period's first
        check_field("rounds", self.rounds, "integer", 1, high=1000)


@dataclass(frozen=True)
class Checkpoint:
    """Final global parameters of one training period: what its file holds."""

    params: ModelParams
    period_id: int
    train_sample_count: int


# FedAvg and the running averages scale a vector into a scratch of this many
# elements at a time, which stays in cache, instead of a full-length one.
_CHUNK = 2**13


def _add_scaled(acc: np.ndarray, terms: list[tuple[np.ndarray, float]]) -> None:
    """``acc += w * x`` for each ``(x, w)`` of ``terms`` in order, one chunk at a time.

    Every element gets the products and sums of the whole-vector form, in
    the same order, so the bits are the same.
    """
    scratch = np.empty(min(_CHUNK, acc.size))
    for lo in range(0, acc.size, _CHUNK):
        part = acc[lo:lo + _CHUNK]
        term = scratch[:part.size]
        for x, w in terms:
            np.multiply(x[lo:lo + _CHUNK], w, out=term)
            part += term


def fedavg_aggregate(client_params: list[ModelParams], client_sizes: list[int],
                     total: float | None = None, acc: np.ndarray | None = None) -> ModelParams:
    """Element-wise mean weighted by client data size: ``sum(n_k / N * x_k)`` in client order.

    The sum starts from zeros. A round that trains its clients cohort by
    cohort folds each cohort with one call: ``total`` is the round's ``N``
    (by default the sum of ``client_sizes``) and ``acc`` the running sum,
    a float64 vector that the call adds into in place and returns a view of.
    """
    if not client_params or len(client_params) != len(client_sizes):
        raise AggregationError("need matching, non-empty params and size lists")
    arch = client_params[0].arch
    for p in client_params[1:]:
        if p.arch != arch:
            raise AggregationError("client architectures differ")
    total = float(sum(client_sizes)) if total is None else total
    if total <= 0:
        raise AggregationError("total client size must be positive")
    if acc is None:
        acc = np.zeros(param_count(arch))
    merged = ModelParams(arch, acc)  # checks a running sum passed in
    _add_scaled(acc, [(p.vec, size / total) for p, size in zip(client_params, client_sizes)])
    return merged


def run_round(global_params: ModelParams, client_train: list[RowShard],
              cfg: FedConfig, seed: int, round_index: int = 0) -> ModelParams:
    """One communication round: broadcast, local training, FedAvg; returns the new global.

    The clients train in cohorts of :func:`~driftfed.nn.cohort_size`
    consecutive clients, one :func:`train_local` call per cohort with one
    optimizer workspace for the round, which also holds the cohort's trained
    vectors. Each cohort is folded into FedAvg's running sum before the next
    one trains, so the round holds one cohort's client vectors at a time.
    Deterministic: client k's shuffles derive from (seed, round_index, k).
    A client with an empty shard sits the round out, and the others keep
    their indices' seeds; a round whose shards are all empty raises.
    """
    active = [k for k, shard in enumerate(client_train) if len(shard)]
    if not active:
        raise FederationError("a round needs at least one client with training rows")
    client_train = [client_train[k] for k in active]
    arch = global_params.arch
    seeds = [derive_seed(seed, "round", round_index, "client", k) for k in active]
    total = float(sum(len(shard) for shard in client_train))
    per_cohort = cohort_size(arch)
    workspace = Optimizer(cfg.train, arch, min(per_cohort, len(client_train)))
    running = None
    for lo in range(0, len(client_train), per_cohort):
        cohort = client_train[lo:lo + per_cohort]
        params = train_local(global_params, cohort, cfg.train, seeds[lo:lo + per_cohort],
                             workspace=workspace)
        if running is None:
            # allocated after the first cohort trains: allocated ahead of the
            # workspace, it measured about 7% slower desk-scale training (heap layout)
            running = np.zeros(param_count(arch))
        merged = fedavg_aggregate(params, [len(s) for s in cohort], total, running)
    return merged


class RunningAverage:
    """Parameter average over period checkpoints, folded in one at a time in period order.

    The average is the averaging strategy's: its ``kind`` and ``ema_alpha``.
    avg_equal and avg_sample keep the weighted sum of the parameters, from
    zero, and the weights: avg_sample weighs a checkpoint by its training
    sample count, avg_equal by one, so avg_equal is the weighted sum with
    unit weights. avg_ema keeps the EMA itself, e_1 = params_1,
    e_k = alpha*params_k + (1-alpha)*e_{k-1}. An average of one checkpoint
    is that checkpoint, so the first is kept only until the second arrives.
    The bits are those of ``np.mean`` and ``np.average`` over the stacked
    checkpoints: their axis-0 sum adds the rows in order, starting from zero.
    """

    def __init__(self, strategy: StrategyConfig):
        self.kind, self.ema_alpha = strategy.kind, strategy.ema_alpha
        self.arch: ModelArch | None = None
        self.weights: list[float] = []
        self.first: ModelParams | None = None
        self.acc: np.ndarray | None = None

    def add(self, ckpt: Checkpoint) -> None:
        params = ckpt.params
        if self.weights and params.arch != self.arch:
            raise AggregationError("checkpoint architectures differ")
        self.arch = params.arch
        weight = 1.0 if self.kind == "avg_equal" else float(ckpt.train_sample_count)
        if self.kind == "avg_ema":
            if self.weights:  # e_k in a fresh vector
                prev = self.first.vec if self.acc is None else self.acc
                self.acc = np.multiply(prev, 1.0 - self.ema_alpha)
                _add_scaled(self.acc, [(params.vec, self.ema_alpha)])
        else:
            if self.acc is None:
                self.acc = np.zeros(param_count(params.arch))
            _add_scaled(self.acc, [(params.vec, weight)])
        self.first = None if self.weights else params
        self.weights.append(weight)

    def value(self) -> ModelParams:
        """The average of the checkpoints added so far."""
        if not self.weights:
            raise AggregationError("history must contain at least one checkpoint")
        if self.first is not None:  # kept as is: (w * x) / w is not always x
            return self.first
        if self.kind == "avg_ema":
            return ModelParams(self.arch, self.acc)  # each add makes a fresh EMA vector
        total = np.array(self.weights, dtype=float).sum()
        if total <= 0:
            raise AggregationError("sample counts must be positive for sample weighting")
        return ModelParams(self.arch, self.acc / total)


def init_from_history(running: RunningAverage, ckpt: Checkpoint) -> ModelParams:
    """Fold ``ckpt`` into ``running``; the average of every checkpoint so far."""
    running.add(ckpt)
    return running.value()


@dataclass(frozen=True)
class PeriodLog:
    """What one training period measured: the seconds its rounds trained, and
    the validation accuracy after each round, or None without validation rows."""

    period_id: int
    train_seconds: float
    val_accuracy: list[float] | None


@dataclass
class PeriodInput:
    """Encoded data for one training period: each client's training shard, and
    all its clients' validation rows as one set, or None when they hold none.

    Both are :class:`RowShard` row indices into one matrix, the run's scaled
    table: ``train_local`` gathers the shards' features one batch at a time,
    and ``run_timeline`` gathers the validation rows once for the period."""

    period_id: int
    client_train: list[RowShard]
    val: RowShard | None


def run_timeline(strategy: StrategyConfig, period_inputs: list[PeriodInput],
                 cfg: FedConfig, arch: ModelArch, seed: int,
                 on_checkpoint: Callable[[Checkpoint], None]) -> list[PeriodLog]:
    """Train across periods with checkpoint chaining.

    The first period starts from a fresh initialization derived from
    ``seed``, which also derives every round's client seeds; later periods start
    from the previous checkpoint, except the averaging variants, which start
    from a parameter average over all previous checkpoints, kept as one
    :class:`RunningAverage`. Validation accuracy is recorded after every round
    but never gates training; a period's validation rows are gathered once,
    before its rounds. A round whose training or validation overflows,
    or that leaves a non-finite parameter, raises :class:`DivergenceError`
    naming the period and round.

    Each period's checkpoint goes to ``on_checkpoint`` as the period ends;
    the timeline keeps none. Returns one :class:`PeriodLog` per period, in
    period order: the seconds its rounds trained, validation excluded, and
    its per-round validation accuracy.
    """
    logs: list[PeriodLog] = []
    running = RunningAverage(strategy) if strategy.averages else None
    params = init_params(arch, seed=derive_seed(seed, "model-init"))
    ckpt = None

    for item in sorted(period_inputs, key=lambda p: p.period_id):
        if ckpt is not None and running is not None:
            params = init_from_history(running, ckpt)
        ckpt = None  # folded into the average, or training resumes from its params

        val_X = None if item.val is None else item.val.X[item.val.rows]
        curve = None if val_X is None else []
        wall = 0.0
        for rnd in range(cfg.rounds):
            try:
                with np.errstate(over="raise", invalid="raise"):
                    tick = time.perf_counter()
                    params = run_round(params, item.client_train, cfg, seed,
                                       round_index=item.period_id * 1000 + rnd)
                    wall += time.perf_counter() - tick
                    if not np.isfinite(params.vec).all():
                        raise DivergenceError(f"period {item.period_id} round {rnd}: "
                                              f"training diverged to non-finite parameters")
                    if val_X is not None:
                        curve.append(float(np.mean(predict(params, val_X) == item.val.y)))
            except FloatingPointError as exc:
                raise DivergenceError(f"period {item.period_id} round {rnd}: training "
                                      f"diverged: floating-point {exc}") from exc

        ckpt = Checkpoint(params, item.period_id, sum(len(s) for s in item.client_train))
        on_checkpoint(ckpt)
        logs.append(PeriodLog(item.period_id, wall, curve))

    return logs


# --- checkpoint persistence -------------------------------------------------
#
# Byte layout (version 1, little-endian):
#   bytes 0..7   magic b"DRIFTCKP"
#   bytes 8..11  format version, uint32
#   bytes 12..15 header length H, uint32
#   bytes 16..16+H  UTF-8 JSON header: arch fields, period_id,
#                   train_sample_count, param dtype and count
#   remainder    ModelParams.vec as little-endian float64 (canonical order)
#
# Timing is intentionally not stored: checkpoint files are byte-reproducible
# for identical runs. Wall-clock figures live in the latency report and the
# metrics document.

CHECKPOINT_MAGIC = b"DRIFTCKP"
CHECKPOINT_VERSION = 1


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """Write ``ckpt`` to ``path`` atomically: a failed write leaves the old file."""
    flat = np.ascontiguousarray(ckpt.params.vec, dtype="<f8")
    header = json.dumps({
        "arch": asdict(ckpt.params.arch),
        "period_id": ckpt.period_id,
        "train_sample_count": ckpt.train_sample_count,
        "dtype": "float64",
        "param_count": int(flat.size),
    }, sort_keys=True).encode("utf-8")
    write_atomic(path, (CHECKPOINT_MAGIC, struct.pack("<II", CHECKPOINT_VERSION, len(header)),
                        header, flat.data))


def load_checkpoint(path) -> Checkpoint:
    """Restore a persisted checkpoint: every field that ``save_checkpoint`` wrote.

    The payload is read straight into the parameter vector, so loading holds
    one copy of it. Any malformed file, a payload holding a NaN or an
    infinity included, raises :class:`CheckpointError` naming ``path``.
    """
    try:
        with open(path, "rb") as fh:
            return _read_checkpoint(path, fh)
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read: {exc.strerror or exc}") from exc


def _read_checkpoint(path, fh) -> Checkpoint:
    size = os.fstat(fh.fileno()).st_size
    start = fh.read(16)
    if start[:8] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    if len(start) < 16:
        raise CheckpointError(f"{path}: header truncated")
    version, header_len = struct.unpack_from("<II", start, 8)
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    try:
        header = json.loads(fh.read(min(header_len, size)).decode("utf-8"))
        arch = ModelArch(**header["arch"])
        count, period_id, samples, dtype = (header[k] for k in (
            "param_count", "period_id", "train_sample_count", "dtype"))
    except (ValueError, KeyError, TypeError, RecursionError, DriftFedError) as exc:
        raise CheckpointError(f"{path}: bad header: {exc!r}") from exc
    if not all(type(v) is int for v in (count, period_id, samples)) or dtype != "float64":
        raise CheckpointError(f"{path}: bad header field types")
    payload = size - 16 - header_len
    if count != param_count(arch) or payload != 8 * count:
        raise CheckpointError(f"{path}: {payload}-byte payload does not hold the "
                              f"{param_count(arch)} float64 parameters of {arch}")
    vec = np.empty(count, dtype="<f8")
    if fh.readinto(vec) != payload:
        raise CheckpointError(f"{path}: payload changed while it was read")
    if not np.isfinite(vec).all():
        raise CheckpointError(f"{path}: payload holds non-finite parameters")
    return Checkpoint(ModelParams(arch, vec.astype(np.float64, copy=False)), period_id, samples)
