"""Classification metrics, cross-period evaluation, latency accounting.

FAR definition used throughout this package: the fraction of benign samples
predicted as any attack class (benign row of the confusion matrix, off-
diagonal mass over row total). Both this and macro averaging are declared
choices; the report headers repeat them.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .dataset import LabeledData
from .errors import DivergenceError, EvaluationError, MetricError
from .federation import Checkpoint, FedConfig, run_round
from .nn import ModelArch, ModelParams, init_params, predict
from .pipeline import (NO_ROWS, FlowTable, LabelCodec, concat_rows, encode_labels,
                       records_by_class)
from .seeds import derive_seed
from .timeline import partition_iid

FAR_DEFINITION = "FAR = benign samples predicted as attack / total benign samples"


def confusion(y_true, y_pred, num_classes: int) -> np.ndarray:
    """Count matrix M[i, j] = samples with true class i predicted j."""
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape or y_true.ndim != 1:
        raise MetricError("label vectors must be 1-D and the same length")
    if y_true.size:
        top = max(int(y_true.max()), int(y_pred.max()))
        lo = min(int(y_true.min()), int(y_pred.min()))
        if lo < 0 or top >= num_classes:
            raise MetricError(f"labels must lie in [0, {num_classes})")
    matrix = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(matrix, (y_true, y_pred), 1)
    return matrix


def micro_accuracy(matrix: np.ndarray) -> float:
    """Correctly predicted samples over all samples."""
    total = int(matrix.sum())
    if total == 0:
        raise MetricError("accuracy is undefined for an empty confusion matrix")
    return float(np.trace(matrix)) / total


def macro_prf(matrix: np.ndarray) -> tuple[float, float, float]:
    """Unweighted mean precision/recall/F1 over classes present in true labels.

    Classes with a zero denominator contribute 0 to their own score.
    """
    total = int(matrix.sum())
    if total == 0:
        raise MetricError("metrics are undefined for an empty confusion matrix")
    support = matrix.sum(axis=1)
    predicted = matrix.sum(axis=0)
    diag = np.diag(matrix).astype(float)
    precision = np.divide(diag, predicted, out=np.zeros_like(diag), where=predicted > 0)
    recall = np.divide(diag, support, out=np.zeros_like(diag), where=support > 0)
    pr_sum = precision + recall
    f1 = np.divide(2 * precision * recall, pr_sum,
                   out=np.zeros_like(diag), where=pr_sum > 0)
    present = support > 0
    return (float(precision[present].mean()),
            float(recall[present].mean()),
            float(f1[present].mean()))


def false_alarm_rate(matrix: np.ndarray, benign_index: int = 0) -> float:
    benign_total = int(matrix[benign_index].sum())
    if benign_total == 0:
        raise MetricError("FAR is undefined without benign samples")
    false_alarms = benign_total - int(matrix[benign_index, benign_index])
    return false_alarms / benign_total


@dataclass(frozen=True)
class MetricsReport:
    """All metrics for one (checkpoint, test period) cell."""

    checkpoint_period: int
    test_period: int
    accuracy: float
    precision_macro: float
    recall_macro: float
    f1_macro: float
    far: float
    inference_seconds: float
    n_samples: int


def measure_inference(params: ModelParams, X: np.ndarray, chunk: int = 8192):
    """Predict the full batch, timing the complete pass."""
    if len(X) == 0:
        raise MetricError("cannot measure inference on an empty test set")
    start = time.perf_counter()
    preds = predict(params, X, chunk=chunk)
    return preds, time.perf_counter() - start


def cross_period_eval(checkpoints: list[Checkpoint],
                      test_sets: dict[int, LabeledData],
                      num_classes: int,
                      benign_index: int = 0) -> list[MetricsReport]:
    """Evaluate every checkpoint on every period's global test set.

    A checkpoint whose predictions overflow raises :class:`DivergenceError`:
    its parameters are finite but too large to score.
    """
    if not test_sets:
        raise EvaluationError("no test sets supplied")
    reports = []
    for ckpt in checkpoints:
        for period in sorted(test_sets):
            data = test_sets[period]
            if len(data) == 0:
                raise EvaluationError(f"test period t{period} is empty")
            try:
                with np.errstate(over="raise", invalid="raise"):
                    preds, secs = measure_inference(ckpt.params, data.X)
            except FloatingPointError as exc:
                raise DivergenceError(f"checkpoint t{ckpt.period_id}: predicting test "
                                      f"period t{period} overflowed: {exc}") from exc
            matrix = confusion(data.y, preds, num_classes)
            p, r, f1 = macro_prf(matrix)
            reports.append(MetricsReport(
                checkpoint_period=ckpt.period_id, test_period=period,
                accuracy=micro_accuracy(matrix), precision_macro=p,
                recall_macro=r, f1_macro=f1,
                far=false_alarm_rate(matrix, benign_index),
                inference_seconds=secs, n_samples=len(data),
            ))
    return reports


def protocol_cells(reports: list[MetricsReport],
                   test_period_ids: list[int]) -> dict[int, MetricsReport]:
    """The timeline evaluation sequence out of the full matrix.

    The first test period is a self-test of its own checkpoint; every later
    period t_j is scored by the newest checkpoint trained strictly before it
    (t_{j-1} when it exists, otherwise the latest earlier one, which covers
    the static strategy and the final test-only period).
    """
    by_cell = {(r.checkpoint_period, r.test_period): r for r in reports}
    ckpt_periods = sorted({r.checkpoint_period for r in reports})
    if not ckpt_periods:
        raise EvaluationError("no evaluation cells supplied")
    first = min(test_period_ids)
    cells: dict[int, MetricsReport] = {}
    for period in test_period_ids:
        target = period if period == first else period - 1
        usable = [c for c in ckpt_periods if c <= target]
        if not usable:
            raise EvaluationError(f"no checkpoint available for test period t{period}")
        cell = by_cell.get((usable[-1], period))
        if cell is None:
            raise EvaluationError(f"missing evaluation cell for test period t{period}")
        cells[period] = cell
    return cells


@dataclass
class GeneralizationMatrix:
    """Cross-family accuracy: rows = training family, columns = test family."""

    families: list[str]
    values: np.ndarray  # (F, F + 1); last column is the row mean

    def row(self, family: str) -> np.ndarray:
        return self.values[self.families.index(family)]


def attack_generalization_matrix(families: list[str], train: FlowTable, test: FlowTable,
                                 cfg: FedConfig, arch: ModelArch,
                                 family_members: dict[str, tuple[str, ...]],
                                 seed: int) -> GeneralizationMatrix:
    """Train Benign-vs-family binary models and score them across families.

    Cell (i, j) is the accuracy of the model trained on (Benign, family i)
    over the test rows of (Benign, family j). Each family's partition, model
    and training derive from ``seed``. Families without data are skipped
    with a warning.
    """
    codec = LabelCodec.binary()
    train_by_class = records_by_class(train)
    test_by_class = records_by_class(test)
    benign_train = train_by_class.get("Benign", NO_ROWS)
    benign_test = test_by_class.get("Benign", NO_ROWS)
    if not len(benign_train) or not len(benign_test):
        raise EvaluationError("benign train and test rows are required")

    usable = []
    for family in families:
        members = family_members.get(family, ())
        has_train = any(m in train_by_class for m in members)
        has_test = any(m in test_by_class for m in members)
        if has_train and has_test:
            usable.append(family)
        else:
            warnings.warn(f"family {family!r} has no data; skipping")
    if len(usable) < 2:
        raise EvaluationError("need at least two families with benign data")

    def family_rows(by_class, family):
        return concat_rows(by_class.get(m, NO_ROWS) for m in family_members[family])

    arch = replace(arch, output_dim=codec.num_classes)
    values = np.zeros((len(usable), len(usable) + 1))
    for i, fam_train in enumerate(usable):
        pool = {"Benign": benign_train, fam_train: family_rows(train_by_class, fam_train)}
        fam_seed = derive_seed(seed, "generalization", fam_train)
        clients = partition_iid(pool, cfg.num_clients, fam_seed)
        shards = [encode_labels(codec, train,
                                concat_rows([c.train, c.client_test, c.validation]))
                  for c in clients]
        shards = [s for s in shards if len(s) > 0]
        params = init_params(arch, seed=fam_seed)
        for rnd in range(cfg.rounds):
            params, _ = run_round(params, shards, cfg, fam_seed, round_index=rnd)
        for j, fam_test in enumerate(usable):
            data = encode_labels(codec, test,
                                 concat_rows([benign_test, family_rows(test_by_class, fam_test)]))
            preds = predict(params, data.X)
            values[i, j] = float(np.mean(preds == data.y))
        values[i, -1] = values[i, :len(usable)].mean()
    return GeneralizationMatrix(usable, values)
