import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftfed.dataset import LabeledData
from driftfed.errors import EvaluationError, MetricError
from driftfed.federation import Checkpoint, FedConfig
from driftfed.metrics import (GeneralizationMatrix, attack_generalization_matrix,
                              confusion, cross_period_eval, false_alarm_rate,
                              macro_prf, measure_inference, micro_accuracy,
                              protocol_cells)
from driftfed.nn import ModelArch, TrainConfig, init_params, param_count, predict
from driftfed.pipeline import stratified_split
from driftfed.synth import FamilySpec, ScenarioSpec, generate


def test_confusion_hand_tally():
    m = confusion([0, 1, 1, 2], [0, 1, 2, 2], 3)
    assert m[1, 2] == 1
    assert np.trace(m) == 3
    assert m.sum() == 4


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
    assert false_alarm_rate(clean, 0) == 0.0
    m = np.array([[8, 2], [0, 5]])
    assert false_alarm_rate(m, 0) == pytest.approx(0.2)
    all_wrong = np.array([[0, 4], [0, 5]])
    assert false_alarm_rate(all_wrong, 0) == 1.0
    with pytest.raises(MetricError):
        false_alarm_rate(np.array([[0, 0], [1, 1]]), 0)


def test_false_alarm_rate_invariant_to_attack_relabeling(rng):
    y = rng.integers(0, 3, 200)
    preds = rng.integers(0, 3, 200)
    base = false_alarm_rate(confusion(y, preds, 3), 0)
    swap = {0: 0, 1: 2, 2: 1}
    y2 = np.vectorize(swap.get)(y)
    p2 = np.vectorize(swap.get)(preds)
    assert false_alarm_rate(confusion(y2, p2, 3), 0) == base


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


ARCH = ModelArch(input_dim=3, hidden_layers=1, hidden_units=4, output_dim=2)


def _dataset(rng, n=40):
    X = rng.normal(size=(n, 3))
    return LabeledData(X, (X[:, 0] > 0).astype(int))


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
    reports = cross_period_eval(_checkpoints([1, 2, 3, 4, 5]), tests, 2)
    assert len(reports) == 5 * 6
    assert all(0.0 <= r.accuracy <= 1.0 for r in reports)
    assert all(0.0 <= r.far <= 1.0 for r in reports)
    # deterministic apart from timing
    again = cross_period_eval(_checkpoints([1, 2, 3, 4, 5]), tests, 2)
    assert [r.accuracy for r in reports] == [r.accuracy for r in again]


def test_protocol_cells_shift_by_one(rng):
    tests = {p: _dataset(rng) for p in range(1, 7)}
    reports = cross_period_eval(_checkpoints([1, 2, 3, 4, 5]), tests, 2)
    cells = protocol_cells(reports, list(range(1, 7)))
    assert cells[1].checkpoint_period == 1        # no-drift self test
    for period in range(2, 7):
        assert cells[period].checkpoint_period == period - 1
    assert cells[6].checkpoint_period == 5


def test_protocol_cells_static_uses_single_checkpoint(rng):
    tests = {p: _dataset(rng) for p in range(1, 7)}
    reports = cross_period_eval(_checkpoints([1]), tests, 2)
    assert len(reports) == 6
    cells = protocol_cells(reports, list(range(1, 7)))
    assert all(c.checkpoint_period == 1 for c in cells.values())


def test_cross_period_eval_missing_period_rejected(rng):
    tests = {1: _dataset(rng)}
    reports = cross_period_eval(_checkpoints([1]), tests, 2)
    with pytest.raises(EvaluationError):
        protocol_cells(reports, [1, 2])
    with pytest.raises(EvaluationError):
        cross_period_eval(_checkpoints([1]), {}, 2)


# one roster sub-attack per family
_FAMILY_SUB = {"MQTT": "MQTT-Malformed_Data", "DoS": "TCP_IP-DoS-SYN",
               "Recon": "Recon-Ping_Sweep"}


def _family_scenario(seed=0, rows=260):
    base = np.full(10, 5.0)
    means = {"MQTT": +3.0, "DoS": -3.0, "Recon": 0.0}
    families = [FamilySpec("Benign", "Benign", ("Benign",), base.copy(), 0.6, rows)]
    for cat, delta in means.items():
        mean = base.copy()
        if cat == "Recon":
            mean[5:] += 3.0
        else:
            mean[:5] += delta
        families.append(FamilySpec(cat, cat, (_FAMILY_SUB[cat],), mean, 0.6, rows))
    return ScenarioSpec(num_features=10, families=tuple(families), seed=seed)


def test_attack_generalization_matrix_diagonal_dominates():
    train, test = stratified_split(generate(_family_scenario()), 0.8, seed=0)
    members = {"MQTT": ("MQTT-Malformed_Data",), "DoS": ("TCP_IP-DoS-SYN",),
               "Recon": ("Recon-Ping_Sweep",)}
    cfg = FedConfig(num_clients=2, rounds=2,
                    train=TrainConfig(local_epochs=6, learning_rate=0.01))
    arch = ModelArch(input_dim=10, hidden_layers=1, hidden_units=8, output_dim=2)
    matrix = attack_generalization_matrix(["MQTT", "DoS", "Recon"], train, test,
                                          cfg, arch, members, seed=1)
    f = len(matrix.families)
    assert matrix.values.shape == (f, f + 1)
    for i in range(f):
        row = matrix.values[i, :f]
        assert row[i] == row.max()
        assert matrix.values[i, -1] == pytest.approx(row.mean())


def test_attack_generalization_matrix_skips_missing_family(rng):
    train, test = stratified_split(generate(_family_scenario()), 0.8, seed=0)
    members = {"MQTT": ("MQTT-Malformed_Data",), "DoS": ("TCP_IP-DoS-SYN",),
               "DDoS": ("TCP_IP-DDoS-SYN",)}
    cfg = FedConfig(num_clients=2, rounds=1, train=TrainConfig(local_epochs=2))
    arch = ModelArch(input_dim=10, hidden_layers=1, hidden_units=4, output_dim=2)
    with pytest.warns(UserWarning, match="DDoS"):
        matrix = attack_generalization_matrix(["MQTT", "DoS", "DDoS"], train, test,
                                              cfg, arch, members, seed=1)
    assert matrix.families == ["MQTT", "DoS"]
