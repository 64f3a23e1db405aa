from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftfed import metrics
from driftfed.errors import EvaluationError, MetricError
from driftfed.federation import Checkpoint
from driftfed.metrics import (confusion, cross_period_eval, false_alarm_rate, fold_categories,
                              macro_prf, measure_inference, micro_accuracy, protocol_cells)
from driftfed.nn import ModelArch, init_params, predict
from driftfed.pipeline import CATEGORIES, CODECS

from conftest import rows_of_one_table, whole


def test_confusion_hand_tally():
    m = confusion([0, 1, 1, 2], [0, 1, 2, 2], 3)
    assert m[1, 2] == 1
    assert np.trace(m) == 3
    assert m.sum() == 4
    # one row per category, one column per class
    assert confusion([5, 0, 5], [1, 1, 0], 2, 6).tolist() == [[0, 1], *[[0, 0]] * 4, [1, 1]]


def test_confusion_perfect_is_diagonal(rng):
    y = rng.integers(0, 4, 50)
    m = confusion(y, y, 4)
    assert np.all(m == np.diag(np.bincount(y, minlength=4)))


def test_confusion_empty_and_errors():
    assert np.all(confusion([], [], 3) == 0)
    with pytest.raises(MetricError):
        confusion([0, 1], [0], 2)
    with pytest.raises(MetricError):
        confusion([0, 2], [0, 1], 2)
    with pytest.raises(MetricError):  # a category past the roster
        confusion([6], [0], 2, 6)
    with pytest.raises(MetricError):  # a prediction past the task's classes
        confusion([5], [2], 2, 6)


def test_micro_accuracy_cases():
    assert micro_accuracy(np.diag([3, 4, 5])) == 1.0
    assert micro_accuracy(confusion([0, 1, 1, 2], [0, 1, 2, 2], 3)) == 0.75
    with pytest.raises(MetricError):
        micro_accuracy(np.zeros((3, 3), dtype=int))


def test_micro_accuracy_uniform_random_near_one_over_c(rng):
    n, c = 100_000, 4
    y = rng.integers(0, c, n)
    preds = rng.integers(0, c, n)
    acc = micro_accuracy(confusion(y, preds, c))
    p = 1.0 / c
    sigma = np.sqrt(p * (1 - p) / n)
    assert abs(acc - p) < 3 * sigma


def test_macro_prf_diagonal_perfect():
    assert macro_prf(np.diag([5, 2, 9])) == (1.0, 1.0, 1.0)


def test_macro_prf_binary_hand_values():
    m = np.array([[8, 2], [1, 9]])
    p0, r0 = 8 / 9, 8 / 10
    p1, r1 = 9 / 11, 9 / 10
    f0 = 2 * p0 * r0 / (p0 + r0)
    f1 = 2 * p1 * r1 / (p1 + r1)
    precision, recall, f_macro = macro_prf(m)
    assert precision == pytest.approx((p0 + p1) / 2, abs=1e-12)
    assert recall == pytest.approx((r0 + r1) / 2, abs=1e-12)
    assert f_macro == pytest.approx((f0 + f1) / 2, abs=1e-12)


def test_macro_prf_absent_class_excluded():
    # class 2 never appears in true labels; macro averages over classes 0 and 1
    m = confusion([0, 0, 1, 1], [0, 2, 1, 1], 3)
    precision, recall, _ = macro_prf(m)
    assert recall == pytest.approx((0.5 + 1.0) / 2)
    assert precision == pytest.approx((1.0 + 1.0) / 2)


def test_false_alarm_rate_cases():
    clean = confusion([0, 0, 1], [0, 0, 1], 2)
    assert false_alarm_rate(clean) == 0.0
    m = np.array([[8, 2], [0, 5]])
    assert false_alarm_rate(m) == pytest.approx(0.2)
    all_wrong = np.array([[0, 4], [0, 5]])
    assert false_alarm_rate(all_wrong) == 1.0
    with pytest.raises(MetricError):
        false_alarm_rate(np.array([[0, 0], [1, 1]]))


def test_false_alarm_rate_invariant_to_attack_relabeling(rng):
    y = rng.integers(0, 3, 200)
    preds = rng.integers(0, 3, 200)
    base = false_alarm_rate(confusion(y, preds, 3))
    swap = {0: 0, 1: 2, 2: 1}
    y2 = np.vectorize(swap.get)(y)
    p2 = np.vectorize(swap.get)(preds)
    assert false_alarm_rate(confusion(y2, p2, 3)) == base


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                min_size=1, max_size=200))
def test_micro_accuracy_equals_direct_fraction(pairs):
    y = np.array([a for a, _ in pairs])
    preds = np.array([b for _, b in pairs])
    m = confusion(y, preds, 5)
    assert micro_accuracy(m) == np.sum(y == preds) / len(y)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                min_size=1, max_size=200))
def test_support_weighted_recall_equals_micro_accuracy(pairs):
    y = np.array([a for a, _ in pairs])
    preds = np.array([b for _, b in pairs])
    m = confusion(y, preds, 4)
    support = m.sum(axis=1)
    present = support > 0
    recall = np.divide(np.diag(m), support, out=np.zeros(4), where=present)
    weighted = float(np.sum(recall[present] * support[present]) / m.sum())
    assert abs(weighted - micro_accuracy(m)) < 1e-12


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(sorted(CODECS)), st.data())
def test_category_counts_fold_to_the_task_confusion(task, data):
    # a cell counted once, by category, gives the class matrix and the five
    # floats that counting the task's labels gives
    codec = CODECS[task]
    n = codec.num_classes
    pairs = data.draw(st.lists(st.tuples(st.integers(0, len(CATEGORIES) - 1),
                                         st.integers(0, n - 1)), min_size=1, max_size=200))
    categories = np.array([c for c, _ in pairs])
    preds = np.array([p for _, p in pairs])
    counts = confusion(categories, preds, n, len(CATEGORIES))
    tally = [[0] * n for _ in CATEGORIES]
    for category, pred in pairs:
        tally[category][pred] += 1
    assert counts.tolist() == tally
    folded = fold_categories(counts, codec)
    direct = confusion(codec.category_classes[categories], preds, n)
    assert folded.dtype == direct.dtype and np.array_equal(folded, direct)

    def scores(m):
        floats = [micro_accuracy(m), *macro_prf(m)]
        return floats + [false_alarm_rate(m)] if m[0].sum() else floats
    assert scores(folded) == scores(direct)


ARCH = ModelArch(input_dim=3, hidden_layers=1, hidden_units=4, output_dim=2)
BINARY = CODECS["binary"]


def _dataset(rng, n=40):
    X = rng.normal(size=(n, 3))
    return whole(X, (X[:, 0] > 0).astype(int))


def test_measure_inference_positive_and_consistent(rng):
    params = init_params(ARCH, seed=0)
    data = _dataset(rng, 200)
    preds, secs = measure_inference(params, data.X)
    assert secs > 0
    assert np.array_equal(preds, predict(params, data.X))
    with pytest.raises(MetricError):
        measure_inference(params, np.zeros((0, 3)))


def _checkpoints(periods):
    return [Checkpoint(init_params(ARCH, seed=p), p, 10, 0.0) for p in periods]


def test_cross_period_eval_full_matrix(rng):
    tests = {p: _dataset(rng) for p in range(1, 7)}
    reports = cross_period_eval(_checkpoints([1, 2, 3, 4, 5]), tests, BINARY)
    assert len(reports) == 5 * 6
    assert all(0.0 <= r.accuracy <= 1.0 for r in reports)
    assert all(0.0 <= r.far <= 1.0 for r in reports)
    # deterministic apart from timing
    again = cross_period_eval(_checkpoints([1, 2, 3, 4, 5]), tests, BINARY)
    assert [r.accuracy for r in reports] == [r.accuracy for r in again]


def test_cross_period_eval_reads_test_sets_as_rows_of_one_table(rng, monkeypatch):
    # test sets of one shared matrix score as their rows alone do, and the timed
    # call gets the gathered rows, so inference time excludes the gather
    parts = [(rng.normal(size=(n, 3)), rng.integers(0, 2, n)) for n in (40, 25, 33)]
    alone = {p: whole(X, y) for p, (X, y) in enumerate(parts, start=1)}
    shared = dict(enumerate(rows_of_one_table(rng, parts), start=1))
    timed = []
    real_measure = metrics.measure_inference

    def measure(params, X):
        timed.append(X)
        return real_measure(params, X)

    monkeypatch.setattr(metrics, "measure_inference", measure)
    cells = [[(r.accuracy, r.f1_macro, r.far, r.n_samples) for r in
              cross_period_eval(_checkpoints([1, 2]), sets, BINARY)] for sets in (alone, shared)]
    assert cells[0] == cells[1]
    gathered = timed[len(timed) // 2:]
    assert [X.tobytes() for X in gathered] == [X.tobytes() for X, _ in parts] * 2


def _document_cells(periods, tests):
    """The metrics document's cells of ``periods``' checkpoints on ``tests``."""
    return [asdict(r) for r in cross_period_eval(_checkpoints(periods), tests, BINARY)]


def test_protocol_cells_shift_by_one(rng):
    tests = {p: _dataset(rng) for p in range(1, 7)}
    cells = protocol_cells(_document_cells([1, 2, 3, 4, 5], tests), list(range(1, 7)))
    assert cells[1]["checkpoint_period"] == 1        # no-drift self test
    for period in range(2, 7):
        assert cells[period]["checkpoint_period"] == period - 1
        assert cells[period]["test_period"] == period
    assert cells[6]["checkpoint_period"] == 5


def test_protocol_cells_static_uses_single_checkpoint(rng):
    tests = {p: _dataset(rng) for p in range(1, 7)}
    document_cells = _document_cells([1], tests)
    assert len(document_cells) == 6
    cells = protocol_cells(document_cells, list(range(1, 7)))
    assert all(c["checkpoint_period"] == 1 for c in cells.values())


def test_cross_period_eval_missing_period_rejected(rng):
    tests = {1: _dataset(rng)}
    with pytest.raises(EvaluationError, match="missing evaluation cell for test period t2"):
        protocol_cells(_document_cells([1], tests), [1, 2])
    with pytest.raises(EvaluationError, match="no checkpoint available for test period t1"):
        protocol_cells(_document_cells([2], tests), [1, 2])
    with pytest.raises(EvaluationError):
        cross_period_eval(_checkpoints([1]), {}, BINARY)
