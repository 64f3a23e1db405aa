"""Scoring only: classification metrics, cross-period evaluation, latency accounting.

Each evaluation cell is counted once, as test rows by true roster category
by predicted class (6x2 in binary, 6x6 in six-class); its five metric floats
read those counts folded to the task's classes (:func:`fold_categories`).

FAR definition used throughout this package: the fraction of benign samples
predicted as any attack class (benign row of the confusion matrix, off-
diagonal mass over row total). Both this and macro averaging are declared
choices; the report headers repeat them.
"""

from __future__ import annotations

import time
from collections.abc import Iterable

import numpy as np

from .dataset import RowShard
from .errors import DivergenceError, EvaluationError, MetricError
from .federation import Checkpoint
from .nn import ModelParams, predict
from .pipeline import CATEGORIES, LabelCodec

FAR_DEFINITION = "FAR = benign samples predicted as attack / total benign samples"


def confusion(y_true, y_pred, num_classes: int, num_true: int | None = None) -> np.ndarray:
    """Count matrix M[i, j] = samples with true label i predicted class j.

    M has ``num_true`` rows (``num_classes`` when None): one per class for
    class labels, one per roster category for category labels.
    """
    num_true = num_classes if num_true is None else num_true
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape or y_true.ndim != 1:
        raise MetricError("label vectors must be 1-D and the same length")
    if y_true.size:
        lo = min(int(y_true.min()), int(y_pred.min()))
        if lo < 0 or int(y_true.max()) >= num_true or int(y_pred.max()) >= num_classes:
            raise MetricError(f"true labels must lie in [0, {num_true}) and "
                              f"predictions in [0, {num_classes})")
    flat = np.bincount(y_true * num_classes + y_pred, minlength=num_true * num_classes)
    return flat.reshape(num_true, num_classes)


def fold_categories(counts: np.ndarray, codec: LabelCodec) -> np.ndarray:
    """The class confusion matrix of category ``counts``: each category's row
    added into the row of its class under ``codec``."""
    return np.eye(codec.num_classes, dtype=np.int64)[codec.category_classes].T @ counts


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


def false_alarm_rate(matrix: np.ndarray) -> float:
    """Off-diagonal share of the benign row.

    Benign is class 0 in both label codecs, because ``pipeline.ROSTER``
    lists it first.
    """
    benign_total = int(matrix[0].sum())
    if benign_total == 0:
        raise MetricError("FAR is undefined without benign samples")
    false_alarms = benign_total - int(matrix[0, 0])
    return false_alarms / benign_total


def measure_inference(params: ModelParams, X: np.ndarray):
    """Predict the full batch, timing the complete pass."""
    if len(X) == 0:
        raise MetricError("cannot measure inference on an empty test set")
    start = time.perf_counter()
    preds = predict(params, X)
    return preds, time.perf_counter() - start


def cross_period_eval(checkpoints: Iterable[Checkpoint],
                      test_sets: dict[int, RowShard],
                      codec: LabelCodec) -> list[dict]:
    """Evaluate every checkpoint on every period's global test set.

    Each (checkpoint, test period) cell is a dict in the form the metrics
    document stores it: ``checkpoint_period``, ``test_period``, the five
    metric floats, ``inference_seconds``, ``n_samples`` and ``counts``. A
    test set's ``y`` holds its rows' roster categories, the six-class codec's
    labels; a cell's ``counts`` are theirs by ``codec``'s predicted class,
    rows by true category.

    The checkpoints are taken one at a time, so an iterator that loads each
    from disk holds one at once. A test set's rows are gathered from its
    matrix for each checkpoint, so the evaluation holds one test set's
    features at a time, and the gather is not timed as inference.

    The FAR of each cell takes Benign as class 0, as both label codecs do.

    A checkpoint whose predictions overflow raises :class:`DivergenceError`:
    its parameters are finite but too large to score.
    """
    if not test_sets:
        raise EvaluationError("no test sets supplied")
    cells = []
    for ckpt in checkpoints:
        for period in sorted(test_sets):
            data = test_sets[period]
            if len(data) == 0:
                raise EvaluationError(f"test period t{period} is empty")
            try:
                with np.errstate(over="raise", invalid="raise"):
                    preds, secs = measure_inference(ckpt.params, data.X[data.rows])
            except FloatingPointError as exc:
                raise DivergenceError(f"checkpoint t{ckpt.period_id}: predicting test "
                                      f"period t{period} overflowed: {exc}") from exc
            counts = confusion(data.y, preds, codec.num_classes, len(CATEGORIES))
            matrix = fold_categories(counts, codec)
            p, r, f1 = macro_prf(matrix)
            cells.append({
                "checkpoint_period": ckpt.period_id, "test_period": period,
                "accuracy": micro_accuracy(matrix), "precision_macro": p,
                "recall_macro": r, "f1_macro": f1,
                "far": false_alarm_rate(matrix),
                "inference_seconds": secs, "n_samples": len(data), "counts": counts.tolist(),
            })
    return cells


def newest_checkpoint(checkpoints: Iterable[int], period: int) -> int | None:
    """The newest of ``checkpoints`` at or before ``period``; None when none is.

    The one rule that picks a cell of the checkpoint x test-period matrix:
    the protocol and every field of the transfer table read through it.
    """
    return max((c for c in checkpoints if c <= period), default=None)


def protocol_cells(cells: list[dict], test_period_ids: list[int]) -> dict[int, dict]:
    """The timeline evaluation sequence out of a metrics document's ``cells``.

    The first test period is a self-test of its own checkpoint; every later
    period t_j is scored by the newest checkpoint at or before t_{j-1}, which
    covers the static strategy and the final test-only period.
    """
    by_cell = {(c["checkpoint_period"], c["test_period"]): c for c in cells}
    checkpoints = {ckpt for ckpt, _ in by_cell}
    first = min(test_period_ids)
    protocol = {}
    for period in test_period_ids:
        ckpt = newest_checkpoint(checkpoints, period if period == first else period - 1)
        if ckpt is None:
            raise EvaluationError(f"no checkpoint available for test period t{period}")
        if (ckpt, period) not in by_cell:
            raise EvaluationError(f"missing evaluation cell for test period t{period}")
        protocol[period] = by_cell[ckpt, period]
    return protocol
