"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criteria 5-7 and 10 share two full desk-scale binary runs (identical config,
fixed seed) executed once per session; the rest are standalone. Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from driftfed.metrics import confusion, measure_inference, micro_accuracy, protocol_cells
from driftfed.nn import (ModelArch, ModelParams, backward, cross_entropy, forward,
                         init_params, param_count)
from driftfed.federation import fedavg_aggregate
from driftfed.pipeline import (apply_scaler, concat_rows, fit_scaler, records_by_class,
                               stratified_split)
from driftfed.runner import DataSource, RunConfig, desk_scale, run_experiment
from driftfed.synth import FamilySpec, ScenarioSpec, default_drift_scenario, generate
from driftfed.timeline import (StrategyComposer, StrategyConfig, build_schedule,
                               partition_iid, segment_and_cap, temporal_segment,
                               training_periods)

ACCEPTANCE_SEED = 7


@contextmanager
def criterion(num: int, description: str, limit_seconds: float | None = None):
    start = time.perf_counter()
    failed = False
    try:
        yield
    except BaseException:
        failed = True
        raise
    finally:
        elapsed = time.perf_counter() - start
        status = "FAIL" if failed else "PASS"
        print(f"[criterion {num:02d}] {status} {description} ({elapsed:.1f}s)")
        if not failed and limit_seconds is not None:
            assert elapsed < limit_seconds, (
                f"criterion {num} exceeded its runtime budget: "
                f"{elapsed:.1f}s >= {limit_seconds}s")


@pytest.fixture(scope="module")
def desk_runs(tmp_path_factory):
    """Two full desk-scale binary runs with an identical config."""
    cfg_template = desk_scale(RunConfig(
        task="binary",
        data=DataSource(synthetic_seed=ACCEPTANCE_SEED),
        seed=ACCEPTANCE_SEED,
    ))
    results = []
    elapsed = []
    for name in ("first", "second"):
        out = tmp_path_factory.mktemp(f"desk_{name}")
        cfg = RunConfig(**{**cfg_template.__dict__, "output_dir": str(out)})
        start = time.perf_counter()
        results.append(run_experiment(cfg))
        elapsed.append(time.perf_counter() - start)
    return results, elapsed


def _protocol(result, label):
    """The strategy's protocol cells, as the accuracy table reads them."""
    return protocol_cells(result.metrics["strategies"][label]["cells"],
                          result.metrics["test_periods"])


def _protocol_accuracy(result, label):
    return {p: cell["accuracy"] for p, cell in _protocol(result, label).items()}


def _avg_accuracy(result, label):
    return float(np.mean(list(_protocol_accuracy(result, label).values())))


def test_criterion_01_fedavg_oracle_equivalence():
    with criterion(1, "fedavg matches an independent weighted mean within 1e-12",
                   limit_seconds=5.0):
        gen = np.random.default_rng(101)
        arch = ModelArch(input_dim=3, hidden_layers=1, hidden_units=3, output_dim=2)
        width = param_count(arch)
        for _ in range(50):
            n_clients = int(gen.integers(2, 8))
            vectors = [gen.normal(size=width) for _ in range(n_clients)]
            sizes = [int(gen.integers(1, 5000)) for _ in range(n_clients)]
            merged = fedavg_aggregate([ModelParams(arch, np.array(v, dtype=np.float64))
                                       for v in vectors], sizes).vec
            total = float(sum(sizes))
            # independent oracle: per-element compensated sum over clients
            oracle = np.array([
                math.fsum(vectors[c][k] * sizes[c] for c in range(n_clients)) / total
                for k in range(width)
            ])
            assert np.max(np.abs(merged - oracle)) < 1e-12


def _random_tiny_arch(gen):
    while True:
        arch = ModelArch(
            input_dim=int(gen.integers(1, 5)),
            hidden_layers=int(gen.integers(1, 3)),
            hidden_units=int(gen.integers(1, 4)),
            output_dim=int(gen.integers(2, 4)),
            seq_len=int(gen.integers(1, 4)),
        )
        if param_count(arch) <= 300:
            return arch


def test_criterion_02_gradients_match_finite_differences():
    with criterion(2, "LSTM gradients vs central differences, rel err < 1e-4 "
                      "on 20 random tiny architectures", limit_seconds=60.0):
        step = 1e-5
        for seed in range(20):
            gen = np.random.default_rng(seed)
            arch = _random_tiny_arch(gen)
            flat = gen.normal(0, 0.5, param_count(arch))
            params = ModelParams(arch, np.array(flat, dtype=np.float64))
            X = gen.normal(size=(4, arch.feature_width))
            y = gen.integers(0, arch.output_dim, 4)
            _, cache = forward(params, X)
            analytic = backward(params, cache, y).vec
            numeric = np.empty_like(flat)
            for k in range(flat.size):
                up = flat.copy(); up[k] += step
                dn = flat.copy(); dn[k] -= step
                hi, _ = forward(ModelParams(arch, up), X)
                lo, _ = forward(ModelParams(arch, dn), X)
                numeric[k] = (cross_entropy(hi, y) - cross_entropy(lo, y)) / (2 * step)
            denom = np.maximum(1e-6, np.maximum(np.abs(analytic), np.abs(numeric)))
            rel = np.max(np.abs(analytic - numeric) / denom)
            assert rel < 1e-4, f"arch {arch}: max relative error {rel:.2e}"


def test_criterion_03_schedule_golden_files():
    with criterion(3, "composition label sets match the golden schedules "
                      "byte-for-byte", limit_seconds=5.0):
        from test_timeline import _render_label_sets, GOLDEN_DIR
        for task in ("binary", "sixclass"):
            rendered = _render_label_sets(task)
            golden = (GOLDEN_DIR / f"composition_{task}.csv").read_text()
            assert rendered == golden, f"{task} schedule diverges from golden file"


def test_criterion_04_segmentation_arithmetic():
    big = ScenarioSpec(
        num_features=1,
        families=(FamilySpec("DoS", ("TCP_IP-DoS-TCP",),
                             np.array([5.0]), 1.0, 462_480),),
        seed=0,
    )
    big_rows = generate(big)
    small = ScenarioSpec(
        num_features=1,
        families=(FamilySpec("MQTT", ("MQTT-Malformed_Data",),
                             np.array([5.0]), 1.0, 6_877),),
        seed=0,
    )
    small_rows = generate(small)
    with criterion(4, "temporal segmentation: 462,480 -> 6x77,080 and "
                      "6,877 -> {1147,1146x5}", limit_seconds=5.0):
        sizes = [len(s) for s in temporal_segment(big_rows, 6)]
        assert sizes == [77_080] * 6
        sizes = [len(s) for s in temporal_segment(small_rows, 6)]
        assert sizes == [1147, 1146, 1146, 1146, 1146, 1146]


def test_criterion_05_drift_ordering_at_desk_scale(desk_runs):
    results, elapsed = desk_runs
    with criterion(5, "cumulative and representative hold >= simple+10pts at t6; "
                      "static drops >= 15pts under drift"):
        assert elapsed[0] < 180.0, f"desk run took {elapsed[0]:.0f}s (budget 180s)"
        run = results[0]
        acc = {label: _protocol_accuracy(run, label)
               for label in ("static", "cumulative", "simple", "representative")}
        cum_margin = acc["cumulative"][6] - acc["simple"][6]
        rep_margin = acc["representative"][6] - acc["simple"][6]
        static_drop = acc["static"][1] - acc["static"][6]
        assert cum_margin >= 0.10, f"cumulative margin {cum_margin:.3f}"
        assert rep_margin >= 0.10, f"representative margin {rep_margin:.3f}"
        assert static_drop >= 0.15, f"static drop {static_drop:.3f}"


def test_criterion_06_retention_monotonicity(desk_runs):
    results, elapsed = desk_runs
    with criterion(6, "retention average accuracy non-decreasing in R within "
                      "a 2-point band"):
        assert elapsed[0] < 300.0
        run = results[0]
        averages = [_avg_accuracy(run, f"retain_{r}") for r in (100, 500, 1000)]
        for lower, higher in zip(averages, averages[1:]):
            assert higher >= lower - 0.02, f"retention trend broke: {averages}"


def test_criterion_07_full_run_determinism(desk_runs):
    results, elapsed = desk_runs
    with criterion(7, "two identical desk-scale runs produce byte-identical "
                      "metric tables and checkpoints"):
        assert sum(elapsed) < 360.0, f"two runs took {sum(elapsed):.0f}s (budget 360s)"
        a, b = results
        for name in ("accuracy_binary.csv", "cells_binary.csv",
                     "composition_binary.csv"):
            assert (a.output_dir / name).read_bytes() == \
                   (b.output_dir / name).read_bytes(), f"{name} differs"
        ckpts_a = sorted((a.output_dir / "checkpoints").rglob("*.ckpt"))
        ckpts_b = sorted((b.output_dir / "checkpoints").rglob("*.ckpt"))
        assert [p.relative_to(a.output_dir) for p in ckpts_a] == \
               [p.relative_to(b.output_dir) for p in ckpts_b]
        assert ckpts_a, "no checkpoints written"
        for pa, pb in zip(ckpts_a, ckpts_b):
            assert pa.read_bytes() == pb.read_bytes(), f"{pa.name} differs"


def test_criterion_08_metric_identities():
    with criterion(8, "micro accuracy equals direct count; support-weighted "
                      "recall equals micro accuracy within 1e-12"):
        gen = np.random.default_rng(88)
        for _ in range(1000):
            n = int(gen.integers(1, 60))
            c = int(gen.integers(2, 7))
            y = gen.integers(0, c, n)
            preds = gen.integers(0, c, n)
            matrix = confusion(y, preds, c)
            assert micro_accuracy(matrix) == np.sum(y == preds) / n
            support = matrix.sum(axis=1)
            present = support > 0
            recall = np.divide(np.diag(matrix), support,
                               out=np.zeros(c), where=present)
            weighted = float(np.sum(recall[present] * support[present]) / n)
            assert abs(weighted - micro_accuracy(matrix)) < 1e-12


def test_criterion_09_data_contracts():
    with criterion(9, "caps honored, IID shards balanced, retention buffers "
                      "bounded and historical, min-max within [0,1]"):
        # caps engage on an oversized class: 90k rows -> 14,400-row segments
        big = ScenarioSpec(
            num_features=4,
            families=(FamilySpec("DoS", ("TCP_IP-DoS-TCP",),
                                 np.full(4, 5.0), 1.0, 90_000),),
            seed=1,
        )
        rows = generate(big)
        train, test = stratified_split(rows, 0.8, seed=1)
        capped_train = segment_and_cap(records_by_class(rows, train), 5, 10_000, 1, "t")
        capped_test = segment_and_cap(records_by_class(rows, test), 6, 2_000, 1, "s")
        train_sizes = [len(s) for s in capped_train["TCP_IP-DoS-TCP"]]
        test_sizes = [len(s) for s in capped_test["TCP_IP-DoS-TCP"]]
        assert all(size == 10_000 for size in train_sizes)
        assert all(size == 2_000 for size in test_sizes)

        # IID balance and retention contracts on the acceptance scenario
        records = generate(default_drift_scenario(ACCEPTANCE_SEED))
        train_rows, test_rows = stratified_split(records, 0.8, ACCEPTANCE_SEED)
        train, test = records[train_rows], records[test_rows]
        segments = segment_and_cap(records_by_class(train),
                                   len(training_periods("binary")),
                                   10_000, ACCEPTANCE_SEED, "cap-train")
        schedule = build_schedule("binary")
        composer = StrategyComposer(StrategyConfig("retain", retain_r=100),
                                    schedule, segments, seed=3)
        used: dict[str, set] = {}  # every class of an earlier pool not retained there
        for period in composer.training_periods():
            sched = next(s for s in schedule if s.period_id == period)
            pool = composer.compose(period)
            for cls in sched.retained_marks & set(pool):
                keys = set(pool[cls].tolist())
                assert len(pool[cls]) <= 100
                assert keys <= used[cls]
            clients = partition_iid(pool, 5, seed=period)
            for cls in pool:
                counts = [int(np.isin(concat_rows([c.train, c.client_test, c.validation]),
                                      pool[cls]).sum())
                          for c in clients]
                assert max(counts) - min(counts) <= 1
            for cls in set(pool) - sched.retained_marks:
                used.setdefault(cls, set()).update(pool[cls].tolist())

        # min-max outputs live in [0, 1] for train and out-of-range test rows
        stats = fit_scaler(train)
        for part in (apply_scaler(stats, train[:2000]),
                     apply_scaler(stats, test[:2000])):
            matrix = part.X
            assert matrix.min() >= 0.0 and matrix.max() <= 1.0


def test_criterion_10_latency_accounting(desk_runs):
    results, _ = desk_runs
    with criterion(10, "training/inference wall clocks present and positive; "
                       "inference scales x[1.5,3] when rows double"):
        run = results[0]
        table = (run.output_dir / "latency_binary.csv").read_text().splitlines()
        assert len(table) == 2 + 10  # banner, header, one row per strategy
        for line in table[2:]:
            cells = line.split(",")
            values = [float(v) for v in cells[1:] if v != ""]
            assert all(v > 0 for v in values)
        for label, entry in run.metrics["strategies"].items():
            assert all(s > 0 for s in entry["train_latency_seconds"].values())
            assert sum(c["inference_seconds"] for c in _protocol(run, label).values()) > 0

        arch = ModelArch(input_dim=45, hidden_layers=1, hidden_units=16,
                         output_dim=2)
        params = init_params(arch, seed=0)
        X = np.random.default_rng(0).uniform(0, 1, size=(60_000, 45))

        # host slowdowns last up to seconds, so warm up first, alternate the two
        # sizes and keep each size's fastest pass rather than a median
        measure_inference(params, X)
        best = {30_000: math.inf, 60_000: math.inf}
        for _ in range(5):
            for n in best:
                best[n] = min(best[n], measure_inference(params, X[:n])[1])
        ratio = best[60_000] / best[30_000]
        assert 1.5 <= ratio <= 3.0, f"doubling ratio {ratio:.2f} outside [1.5, 3]"
