"""Federated orchestration: FedAvg rounds, checkpoint chaining, averaging init.

Clients all participate every round. Aggregation order is canonical (client
index), and per-client training seeds derive from (round, client), so a run
is reproducible regardless of how clients would be scheduled.
"""

from __future__ import annotations

import json
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from .atomic import write_atomic
from .dataset import LabeledData
from .errors import (AggregationError, CheckpointError, ConfigError, DivergenceError,
                     DriftFedError, FederationError, check_field)
from .nn import ModelArch, ModelParams, TrainConfig, init_params, param_count, predict, train_local
from .seeds import derive_seed
from .timeline import StrategyConfig

AVERAGING_MODES = ("equal", "sample", "ema")

_INIT_MODE_BY_KIND = {"avg_equal": "equal", "avg_sample": "sample", "avg_ema": "ema"}


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
    """Final global parameters of one training period."""

    params: ModelParams
    period_id: int
    train_sample_count: int
    train_wall_clock: float


def fedavg_aggregate(client_params: list[ModelParams],
                     client_sizes: list[int]) -> ModelParams:
    """Element-wise mean weighted by client data size."""
    if not client_params or len(client_params) != len(client_sizes):
        raise AggregationError("need matching, non-empty params and size lists")
    arch = client_params[0].arch
    for p in client_params[1:]:
        if p.arch != arch:
            raise AggregationError("client architectures differ")
    total = float(sum(client_sizes))
    if total <= 0:
        raise AggregationError("total client size must be positive")
    # sum((n_k/N) * x_k) in client order, from zeros, with one scratch vector
    acc = np.zeros(param_count(arch))
    term = np.empty_like(acc)
    for params, size in zip(client_params, client_sizes):
        np.multiply(params.vec, size / total, out=term)
        acc += term
    return ModelParams(arch, acc)


def run_round(global_params: ModelParams, client_train: list[LabeledData],
              cfg: FedConfig, seed: int, round_index: int = 0):
    """One communication round: broadcast, local training, FedAvg.

    All clients train in one lockstep :func:`train_local` call. Returns
    ``(new_global, training_seconds)``, the wall time of that call.
    Deterministic: client k's shuffles derive from (seed, round_index, k).
    """
    for k, shard in enumerate(client_train):
        if len(shard) == 0:
            raise FederationError(f"client {k} has an empty training shard")
    seeds = [derive_seed(seed, "round", round_index, "client", k)
             for k in range(len(client_train))]
    params, sizes, seconds = train_local(global_params, client_train, cfg.train, seeds)
    return fedavg_aggregate(params, sizes), seconds


def init_from_history(mode: str, history: list[Checkpoint],
                      ema_alpha: float | None = None) -> ModelParams:
    """Parameter average over previous period checkpoints.

    equal: unweighted mean. sample: weighted by training sample count.
    ema: e_1 = params_1, e_k = alpha*params_k + (1-alpha)*e_{k-1}; it needs
    ``ema_alpha`` (``StrategyConfig`` holds its default).

    The average accumulates into one vector with one scratch vector, and
    gives the bits of ``np.mean`` and ``np.average`` over the stacked
    checkpoints: their axis-0 sum adds the rows in order, starting from zero.
    """
    if mode not in AVERAGING_MODES:
        raise ConfigError(f"mode must be one of {AVERAGING_MODES}")
    if not history:
        raise AggregationError("history must contain at least one checkpoint")
    arch = history[0].params.arch
    for ckpt in history[1:]:
        if ckpt.params.arch != arch:
            raise AggregationError("checkpoint architectures differ")
    if len(history) == 1:  # kept as is: (w * x) / w is not always x
        return history[0].params
    flats = [c.params.vec for c in history]
    merged = np.zeros(param_count(arch))
    term = np.empty_like(merged)
    if mode == "equal":
        for flat in flats:
            merged += flat
        merged /= len(flats)
    elif mode == "sample":
        weights = np.array([c.train_sample_count for c in history], dtype=float)
        total = weights.sum()
        if total <= 0:
            raise AggregationError("sample counts must be positive for sample weighting")
        for flat, weight in zip(flats, weights):
            np.multiply(flat, weight, out=term)
            merged += term
        merged /= total
    else:
        if ema_alpha is None:
            raise ConfigError("ema averaging needs ema_alpha")
        merged[...] = flats[0]
        for flat in flats[1:]:
            merged *= 1.0 - ema_alpha
            np.multiply(flat, ema_alpha, out=term)
            merged += term
    return ModelParams(arch, merged)


@dataclass
class RoundLog:
    period_id: int
    round_index: int
    val_accuracy: float | None


@dataclass
class TimelineResult:
    checkpoints: list[Checkpoint]
    round_logs: list[RoundLog]


@dataclass
class PeriodInput:
    """Encoded shards for one training period."""

    period_id: int
    client_train: list[LabeledData]
    client_val: list[LabeledData]


def run_timeline(strategy: StrategyConfig, period_inputs: list[PeriodInput],
                 cfg: FedConfig, arch: ModelArch, seed: int) -> TimelineResult:
    """Train across periods with checkpoint chaining.

    The first period starts from a fresh initialization derived from
    ``seed``, which also derives every round's client seeds; later periods start
    from the previous checkpoint, except the averaging variants, which start
    from a parameter average over all previous checkpoints. Validation
    accuracy is recorded after every round but never gates training. A round
    whose training or validation overflows, or that leaves a non-finite
    parameter, raises :class:`DivergenceError` naming the period and round.
    """
    checkpoints: list[Checkpoint] = []
    logs: list[RoundLog] = []
    mode = _INIT_MODE_BY_KIND.get(strategy.kind)

    for item in sorted(period_inputs, key=lambda p: p.period_id):
        if not checkpoints:
            params = init_params(arch, seed=derive_seed(seed, "model-init"))
        elif mode is not None:
            params = init_from_history(mode, checkpoints, ema_alpha=strategy.ema_alpha)
        else:
            params = checkpoints[-1].params

        val = _concat_nonempty(item.client_val)
        wall = 0.0
        for rnd in range(cfg.rounds):
            try:
                with np.errstate(over="raise", invalid="raise"):
                    tick = time.perf_counter()
                    params, _ = run_round(params, item.client_train, cfg, seed,
                                          round_index=item.period_id * 1000 + rnd)
                    wall += time.perf_counter() - tick
                    if not np.isfinite(params.vec).all():
                        raise DivergenceError(f"period {item.period_id} round {rnd}: "
                                              f"training diverged to non-finite parameters")
                    acc = None
                    if val is not None:
                        acc = float(np.mean(predict(params, val.X) == val.y))
            except FloatingPointError as exc:
                raise DivergenceError(f"period {item.period_id} round {rnd}: training "
                                      f"diverged: floating-point {exc}") from exc
            logs.append(RoundLog(item.period_id, rnd, acc))

        sample_count = sum(len(s) for s in item.client_train)
        checkpoints.append(Checkpoint(params, item.period_id, sample_count, wall))

    return TimelineResult(checkpoints, logs)


def _concat_nonempty(shards: list[LabeledData]) -> LabeledData | None:
    parts = [s for s in shards if len(s) > 0]
    if not parts:
        return None
    return LabeledData.concat(parts)


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
# run manifest.

CHECKPOINT_MAGIC = b"DRIFTCKP"
CHECKPOINT_VERSION = 1


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """Write ``ckpt`` to ``path`` atomically: a failed write leaves the old file."""
    arch = ckpt.params.arch
    flat = np.ascontiguousarray(ckpt.params.vec, dtype="<f8")
    header = json.dumps({
        "arch": {
            "input_dim": arch.input_dim, "hidden_layers": arch.hidden_layers,
            "hidden_units": arch.hidden_units, "output_dim": arch.output_dim,
            "seq_len": arch.seq_len,
        },
        "period_id": ckpt.period_id,
        "train_sample_count": ckpt.train_sample_count,
        "dtype": "float64",
        "param_count": int(flat.size),
    }, sort_keys=True).encode("utf-8")
    write_atomic(path, (CHECKPOINT_MAGIC, struct.pack("<II", CHECKPOINT_VERSION, len(header)),
                        header, flat.data))


def load_checkpoint(path) -> Checkpoint:
    """Restore a persisted checkpoint (wall clock is not persisted; it loads as 0).

    Any malformed file raises :class:`CheckpointError` naming ``path``.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    if blob[:8] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    if len(blob) < 16:
        raise CheckpointError(f"{path}: header truncated")
    version, header_len = struct.unpack_from("<II", blob, 8)
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    try:
        header = json.loads(blob[16:16 + header_len].decode("utf-8"))
        arch = ModelArch(**header["arch"])
        count, period_id, samples, dtype = (header[k] for k in (
            "param_count", "period_id", "train_sample_count", "dtype"))
    except (ValueError, KeyError, TypeError, RecursionError, DriftFedError) as exc:
        raise CheckpointError(f"{path}: bad header: {exc!r}") from exc
    if not all(type(v) is int for v in (count, period_id, samples)) or dtype != "float64":
        raise CheckpointError(f"{path}: bad header field types")
    payload = len(blob) - 16 - header_len
    if count != param_count(arch) or payload != 8 * count:
        raise CheckpointError(f"{path}: {payload}-byte payload does not hold the "
                              f"{param_count(arch)} float64 parameters of {arch}")
    vec = np.frombuffer(blob, dtype="<f8", offset=16 + header_len).astype(np.float64)
    return Checkpoint(ModelParams(arch, vec), period_id, samples, 0.0)
