import json
import math
import re
import struct

import numpy as np
import pytest
import reference_lstm
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from driftfed import atomic, federation
from driftfed.atomic import write_atomic
from driftfed.dataset import RowShard
from driftfed.errors import (AggregationError, CheckpointError, ConfigError, DivergenceError,
                             DriftFedError, FederationError)
from driftfed.federation import (Checkpoint, FedConfig, PeriodInput, RunningAverage,
                                 fedavg_aggregate, init_from_history, load_checkpoint,
                                 run_round, run_timeline, save_checkpoint)
from driftfed.nn import (ModelArch, ModelParams, TrainConfig, cohort_size, init_params,
                         param_count, train_local)
from driftfed.seeds import derive_seed, rng_for
from driftfed.timeline import StrategyConfig

from conftest import full_disk, rows_of_one_table

ARCH = ModelArch(input_dim=2, hidden_layers=1, hidden_units=2, output_dim=2)
N = param_count(ARCH)  # 58, even


def _params_from(vec):
    return ModelParams(ARCH, np.array(vec, dtype=np.float64))


def test_fedavg_hand_computed_weighted_mean():
    # per-element oracle: (2*1 + 6*5)/8 = 4 and (2*3 + 6*7)/8 = 6
    a = _params_from(np.tile([1.0, 3.0], N // 2))
    b = _params_from(np.tile([5.0, 7.0], N // 2))
    merged = fedavg_aggregate([a, b], [2, 6])
    assert np.allclose(merged.vec, np.tile([4.0, 6.0], N // 2), atol=1e-12)


def test_fedavg_single_client_identity():
    params = init_params(ARCH, seed=0)
    merged = fedavg_aggregate([params], [123])
    assert np.array_equal(merged.vec, params.vec)


def test_fedavg_identical_params_fixed_point(rng):
    params = _params_from(rng.normal(size=N))
    merged = fedavg_aggregate([params, params, params], [1, 10, 100])
    assert np.allclose(merged.vec, params.vec, atol=1e-12)


def test_fedavg_permutation_and_scale_invariance(rng):
    plist = [_params_from(rng.normal(size=N)) for _ in range(4)]
    sizes = [3, 9, 1, 7]
    base = fedavg_aggregate(plist, sizes).vec
    perm = [2, 0, 3, 1]
    shuffled = fedavg_aggregate([plist[i] for i in perm],
                                [sizes[i] for i in perm]).vec
    scaled = fedavg_aggregate(plist, [s * 10 for s in sizes]).vec
    assert np.max(np.abs(base - shuffled)) < 1e-12
    assert np.max(np.abs(base - scaled)) < 1e-12


def test_fedavg_convex_hull(rng):
    plist = [_params_from(rng.normal(size=N)) for _ in range(5)]
    merged = fedavg_aggregate(plist, [2, 3, 4, 5, 6]).vec
    stack = np.stack([p.vec for p in plist])
    assert np.all(merged >= stack.min(axis=0) - 1e-12)
    assert np.all(merged <= stack.max(axis=0) + 1e-12)


def test_fedavg_error_cases(rng):
    params = init_params(ARCH, seed=0)
    other = init_params(ModelArch(input_dim=3, hidden_layers=1, hidden_units=2,
                                  output_dim=2), seed=0)
    with pytest.raises(AggregationError):
        fedavg_aggregate([], [])
    with pytest.raises(AggregationError):
        fedavg_aggregate([params, other], [1, 1])
    with pytest.raises(AggregationError):
        fedavg_aggregate([params], [0])


def _shards(rng, n_clients=3, rows=24):
    """``n_clients`` shards of ``rows`` rows each, all of one matrix."""
    parts = []
    for _ in range(n_clients):
        X = rng.normal(size=(rows, 2))
        parts.append((X, (X[:, 0] > 0).astype(int)))
    return rows_of_one_table(rng, parts)


def _empty_shard(shard):
    return RowShard(shard.X, np.zeros(0, dtype=int), np.zeros(0, dtype=int))


def test_run_round_empty_client_sits_out_and_the_others_keep_their_seeds(rng):
    # client 1 holds no rows: FedAvg over clients 0 and 2, each trained alone at its
    # own index's seed, and N is the sum of their rows
    shards = _shards(rng)
    shards[1] = _empty_shard(shards[0])
    cfg = FedConfig(num_clients=3, rounds=1, train=TrainConfig(local_epochs=2))
    start = init_params(ARCH, seed=0)
    merged = run_round(start, shards, cfg, 5, round_index=3)
    alone = [train_local(start, [shards[k]], cfg.train,
                         [derive_seed(5, "round", 3, "client", k)])[0] for k in (0, 2)]
    expected = fedavg_aggregate(alone, [len(shards[0]), len(shards[2])])
    assert merged.vec.tobytes() == expected.vec.tobytes()


def test_run_round_with_every_shard_empty_fails_by_name(rng):
    cfg = FedConfig(num_clients=3, rounds=1, train=TrainConfig(local_epochs=1))
    for shards in ([_empty_shard(s) for s in _shards(rng)], []):
        with pytest.raises(FederationError, match="needs at least one client with training rows"):
            run_round(init_params(ARCH, seed=0), shards, cfg, seed=0)


def test_run_round_deterministic(rng):
    shards = _shards(rng)
    cfg = FedConfig(num_clients=3, rounds=1, train=TrainConfig(local_epochs=2))
    start = init_params(ARCH, seed=1)
    out1 = run_round(start, shards, cfg, 5, round_index=4)
    out2 = run_round(start, shards, cfg, 5, round_index=4)
    assert np.array_equal(out1.vec, out2.vec)


def test_run_round_single_client_equals_local_training(rng):
    shards = _shards(rng, n_clients=1)
    cfg = FedConfig(num_clients=1, rounds=1, train=TrainConfig(local_epochs=2))
    start = init_params(ARCH, seed=2)
    merged = run_round(start, shards, cfg, 9, round_index=0)
    seed = int(rng_for(9, "round", 0, "client", 0).integers(0, 2**63 - 1))
    [local] = train_local(start, shards, TrainConfig(local_epochs=2), [seed])
    assert np.array_equal(merged.vec, local.vec)


@pytest.mark.parametrize("hidden,per_cohort", [(48, 2), (40, 3), (36, 4)])
def test_run_round_folds_cohorts_bit_exact_to_clients_trained_alone(hidden, per_cohort):
    # five clients train in cohorts of consecutive clients, each reordered by size
    arch = ModelArch(input_dim=2, hidden_layers=2, hidden_units=hidden, output_dim=2)
    assert cohort_size(arch) == per_cohort
    gen = np.random.default_rng(hidden)
    parts = []
    for rows in (30, 17, 25, 40, 9):
        X = gen.normal(size=(rows, 2))
        parts.append((X, (X[:, 0] > 0).astype(int)))
    shards = rows_of_one_table(gen, parts)
    cfg = FedConfig(num_clients=5, rounds=1, train=TrainConfig(local_epochs=2))
    start = init_params(arch, seed=4)
    merged = run_round(start, shards, cfg, 6, round_index=2)
    alone = [train_local(start, [shard], cfg.train, [derive_seed(6, "round", 2, "client", k)])[0]
             for k, shard in enumerate(shards)]
    expected = fedavg_aggregate(alone, [len(s) for s in shards])
    assert merged.vec.tobytes() == expected.vec.tobytes()


def test_run_round_splits_clients_into_cohorts(monkeypatch):
    # a cohort holds 2 of these models, so 5 clients train as cohorts of 2, 2
    # and 1, and every client as the per-client reference trains it
    gen = np.random.default_rng(8)
    arch = ModelArch(input_dim=4, hidden_layers=2, hidden_units=45, output_dim=2)
    assert cohort_size(arch) == 2
    start = ModelParams(arch, gen.normal(0, 0.5, param_count(arch)))
    parts = [(gen.normal(scale=2.0, size=(n, 4)), gen.integers(0, 2, n))
             for n in (11, 9, 17, 9, 12)]
    shards = rows_of_one_table(gen, parts)
    cfg = FedConfig(num_clients=5, rounds=1,
                    train=TrainConfig(learning_rate=0.01, batch_size=4, local_epochs=2))
    widths = []
    real_train = federation.train_local

    def recording_train(params, cohort, *args, **kwargs):
        widths.append(len(cohort))
        return real_train(params, cohort, *args, **kwargs)

    monkeypatch.setattr(federation, "train_local", recording_train)
    merged = run_round(start, shards, cfg, 6, round_index=1)
    assert widths == [2, 2, 1]
    alone = [ModelParams(arch, reference_lstm.train(arch, start.vec, X, y, cfg.train,
                                                    derive_seed(6, "round", 1, "client", k)))
             for k, (X, y) in enumerate(parts)]
    expected = fedavg_aggregate(alone, [len(s) for s in shards])
    assert merged.vec.tobytes() == expected.vec.tobytes()


def test_fed_config_validation():
    with pytest.raises(ConfigError):
        FedConfig(num_clients=0)
    with pytest.raises(ConfigError):
        FedConfig(rounds=0)


def _checkpoint(vec, period, count):
    return Checkpoint(_params_from(vec), period, count, 0.0)


def _fold(mode, history, ema_alpha=None):
    """The average ``run_timeline`` starts from after ``history``, folded one at a time."""
    alpha = {"ema_alpha": ema_alpha} if mode == "ema" else {}  # only avg_ema takes one
    running = RunningAverage(StrategyConfig(f"avg_{mode}", **alpha))
    for ckpt in history:
        merged = init_from_history(running, ckpt)
    return merged


def test_init_from_history_single_checkpoint_identity(rng):
    ckpt = _checkpoint(rng.normal(size=N), 1, 10)
    for mode in ("equal", "sample", "ema"):
        merged = _fold(mode, [ckpt], ema_alpha=0.6)
        assert np.array_equal(merged.vec, ckpt.params.vec)


def test_init_from_history_ema_hand_recursion():
    zeros = _checkpoint(np.zeros(N), 1, 10)
    ones = _checkpoint(np.ones(N), 2, 10)
    two = _fold("ema", [zeros, ones], ema_alpha=0.6)
    assert np.allclose(two.vec, 0.6, atol=1e-15)
    three = _fold("ema", [zeros, ones, _checkpoint(np.ones(N), 3, 10)], ema_alpha=0.6)
    # 0.6*1 + 0.4*0.6 = 0.84
    assert np.allclose(three.vec, 0.84, atol=1e-15)


def test_init_from_history_sample_weighted_hand_value():
    a = _checkpoint(np.zeros(N), 1, 100)
    b = _checkpoint(np.ones(N), 2, 300)
    merged = _fold("sample", [a, b])
    assert np.allclose(merged.vec, 0.75, atol=1e-15)


def test_init_from_history_equal_mean(rng):
    vecs = [rng.normal(size=N) for _ in range(3)]
    ckpts = [_checkpoint(v, i, 5) for i, v in enumerate(vecs)]
    merged = _fold("equal", ckpts)
    assert np.allclose(merged.vec, np.mean(vecs, axis=0), atol=1e-14)


def test_init_from_history_errors(rng):
    with pytest.raises(AggregationError):
        RunningAverage(StrategyConfig("avg_equal")).value()


def _stacked_average(mode, history, alpha):
    """The stacked-array expressions the in-place averaging must reproduce bit for bit."""
    flats = [c.params.vec for c in history]
    if len(flats) == 1:
        return flats[0]
    if mode == "equal":
        return np.mean(flats, axis=0)
    if mode == "sample":
        weights = np.array([c.train_sample_count for c in history], dtype=float)
        return np.average(flats, axis=0, weights=weights)
    merged = flats[0]
    for flat in flats[1:]:
        merged = alpha * flat + (1.0 - alpha) * merged
    return merged


_VECTORS = st.lists(arrays(np.float64, N, elements=st.floats(allow_nan=False,
                                                             allow_infinity=False)),
                    min_size=1, max_size=7)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # sums of huge values overflow
@settings(max_examples=150, deadline=None)
@given(vecs=_VECTORS, counts=st.lists(st.integers(1, 10**6), min_size=7, max_size=7),
       tied=st.booleans(), alpha=st.floats(0.01, 1.0, exclude_max=True),
       neg_zero=arrays(bool, N))
def test_in_place_averaging_is_byte_equal_to_stacked_expressions(vecs, counts, tied, alpha,
                                                                  neg_zero):
    counts = [counts[0]] * len(vecs) if tied else counts[:len(vecs)]
    for vec in vecs:  # -0.0 in every vector: a sum from zero and one from the first differ
        vec[neg_zero] = -0.0
    history = [_checkpoint(v, i, n) for i, (v, n) in enumerate(zip(vecs, counts))]
    for mode in ("equal", "sample", "ema"):
        merged = _fold(mode, history, ema_alpha=alpha).vec
        assert merged.tobytes() == _stacked_average(mode, history, alpha).tobytes(), mode
    total = float(sum(counts))
    expected = np.zeros(N)
    for vec, size in zip(vecs, counts):
        expected += (size / total) * vec
    merged = fedavg_aggregate([_params_from(v) for v in vecs], counts).vec
    assert merged.tobytes() == expected.tobytes()


def _period_inputs(rng, periods, rows=30):
    inputs = []
    for p in periods:
        shards = _shards(rng, n_clients=2, rows=rows)
        [val] = _shards(rng, n_clients=1, rows=12)
        inputs.append(PeriodInput(p, shards, val))
    return inputs


def _timeline(strategy, inputs, cfg, seed):
    """``run_timeline``'s checkpoints, collected, and its round logs."""
    checkpoints = []
    logs = run_timeline(strategy, inputs, cfg, ARCH, seed, checkpoints.append)
    return checkpoints, logs


def _run_recording_starts(monkeypatch, strategy, inputs, cfg):
    """``_timeline`` plus, per period, the params its first round started from."""
    starts = {}
    real_round = federation.run_round

    def recording_round(params, shards, cfg, seed, round_index=0):
        period, rnd = divmod(round_index, 1000)
        if rnd == 0:
            starts[period] = params
        return real_round(params, shards, cfg, seed, round_index=round_index)

    monkeypatch.setattr(federation, "run_round", recording_round)
    return _timeline(strategy, inputs, cfg, seed=3), starts


def test_run_timeline_chains_checkpoints_bit_exact(rng, monkeypatch):
    cfg = FedConfig(num_clients=2, rounds=2, train=TrainConfig(local_epochs=1))
    (checkpoints, logs), starts = _run_recording_starts(
        monkeypatch, StrategyConfig("cumulative"), _period_inputs(rng, [1, 2, 3]), cfg)
    assert [c.period_id for c in checkpoints] == [1, 2, 3]
    for prev, period in zip(checkpoints, [2, 3]):
        assert np.array_equal(starts[period].vec, prev.params.vec)
    assert all(c.train_wall_clock > 0 for c in checkpoints)
    assert all(c.train_sample_count == 60 for c in checkpoints)
    assert all(log.val_accuracy is not None for log in logs)


def test_run_timeline_static_single_checkpoint(rng):
    cfg = FedConfig(num_clients=2, rounds=1, train=TrainConfig(local_epochs=1))
    checkpoints, _ = _timeline(StrategyConfig("static"), _period_inputs(rng, [1]), cfg, 3)
    assert len(checkpoints) == 1


def test_run_timeline_averaging_initializes_from_history(rng, monkeypatch):
    cfg = FedConfig(num_clients=2, rounds=1, train=TrainConfig(local_epochs=1))
    (ema, _), starts = _run_recording_starts(
        monkeypatch, StrategyConfig("avg_ema", ema_alpha=0.6), _period_inputs(rng, [1, 2, 3]),
        cfg)
    expected = _fold("ema", ema[:2], ema_alpha=0.6)
    assert np.array_equal(starts[3].vec, expected.vec)
    (sample, _), starts = _run_recording_starts(monkeypatch, StrategyConfig("avg_sample"),
                                                _period_inputs(rng, [1, 2, 3]), cfg)
    expected = _fold("sample", sample[:2])
    assert np.array_equal(starts[3].vec, expected.vec)


@pytest.mark.parametrize("kind", ["avg_equal", "avg_sample", "avg_ema"])
def test_run_timeline_streams_the_checkpoints_it_would_collect(kind):
    # the streamed checkpoints are those of a loop over run_round that keeps
    # every checkpoint and starts each period from their stacked average
    cfg = FedConfig(num_clients=2, rounds=2, train=TrainConfig(local_epochs=1))
    strategy = StrategyConfig(kind)
    inputs = _period_inputs(np.random.default_rng(7), [1, 2, 3, 4])
    streamed, logs = _timeline(strategy, inputs, cfg, 3)
    assert [(log.period_id, log.round_index) for log in logs] == [
        (p, r) for p in (1, 2, 3, 4) for r in range(2)]
    collected = []
    params = init_params(ARCH, seed=derive_seed(3, "model-init"))
    for item in inputs:
        if collected:
            params = ModelParams(ARCH, _stacked_average(kind[4:], collected,
                                                        strategy.ema_alpha))
        for rnd in range(cfg.rounds):
            params = run_round(params, item.client_train, cfg, 3,
                               round_index=1000 * item.period_id + rnd)
        collected.append(Checkpoint(params, item.period_id, 60, 0.0))
    assert ([(c.period_id, c.train_sample_count, c.params.vec.tobytes()) for c in streamed]
            == [(c.period_id, c.train_sample_count, c.params.vec.tobytes())
                for c in collected])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # building the huge inputs overflows
def test_run_timeline_flags_divergence_by_period_and_round(rng):
    cfg = FedConfig(num_clients=2, rounds=2, train=TrainConfig(local_epochs=1))
    inputs = _period_inputs(rng, [1, 2])
    # features near the float64 limit overflow the first layer's pre-activations
    huge_X = inputs[1].client_train[0].X * 1e308
    huge = [RowShard(huge_X, s.rows, s.y) for s in inputs[1].client_train]
    inputs[1] = PeriodInput(2, huge, inputs[1].val)
    with pytest.raises(DivergenceError, match="period 2 round 0"):
        _timeline(StrategyConfig("cumulative"), inputs, cfg, 3)


def test_run_timeline_flags_overflow_while_parameters_are_still_finite(rng):
    # one step this large leaves finite parameters near 1e308, and predicting the
    # validation rows with them overflows before any parameter turns non-finite
    cfg = FedConfig(num_clients=2, rounds=2,
                    train=TrainConfig(learning_rate=1e308, local_epochs=1))
    with pytest.raises(DivergenceError, match="period 1 round 0: .*overflow"):
        _timeline(StrategyConfig("simple"), _period_inputs(rng, [1]), cfg, 3)


def test_run_timeline_full_determinism(rng):
    cfg = FedConfig(num_clients=2, rounds=2, train=TrainConfig(local_epochs=1))
    gen_a = np.random.default_rng(42)
    gen_b = np.random.default_rng(42)
    res_a, _ = _timeline(StrategyConfig("simple"), _period_inputs(gen_a, [1, 2]), cfg, 8)
    res_b, _ = _timeline(StrategyConfig("simple"), _period_inputs(gen_b, [1, 2]), cfg, 8)
    assert len(res_a) == len(res_b) == 2
    for ca, cb in zip(res_a, res_b):
        assert np.array_equal(ca.params.vec, cb.params.vec)


def test_checkpoint_round_trip(tmp_path, rng):
    vec = rng.normal(size=N)
    ckpt = Checkpoint(_params_from(vec), period_id=4, train_sample_count=321,
                      train_wall_clock=1.5)
    path = tmp_path / "t4.ckpt"
    save_checkpoint(path, ckpt)
    loaded = load_checkpoint(path)
    assert np.array_equal(loaded.params.vec, vec)
    assert loaded.period_id == 4
    assert loaded.train_sample_count == 321
    assert loaded.params.arch == ARCH
    assert loaded.train_wall_clock == 0.0  # timing is not persisted


def test_checkpoint_files_reproducible(tmp_path, rng):
    vec = rng.normal(size=N)
    first = tmp_path / "a.ckpt"
    second = tmp_path / "b.ckpt"
    save_checkpoint(first, Checkpoint(_params_from(vec), 1, 10, 0.123))
    save_checkpoint(second, Checkpoint(_params_from(vec), 1, 10, 99.9))
    assert first.read_bytes() == second.read_bytes()


def test_checkpoint_write_replaces_the_file_and_leaves_no_temp_file(tmp_path, rng):
    path = tmp_path / "t1.ckpt"
    save_checkpoint(path, Checkpoint(_params_from(np.zeros(N)), 1, 10, 0.0))
    vec = rng.normal(size=N)
    save_checkpoint(path, Checkpoint(_params_from(vec), 1, 10, 0.0))
    assert load_checkpoint(path).params.vec.tobytes() == vec.tobytes()
    assert [p.name for p in tmp_path.iterdir()] == ["t1.ckpt"]


@pytest.mark.parametrize("room", [0, 20, 8 * N])  # in the magic, the header, the payload
def test_checkpoint_write_failing_partway_keeps_the_previous_file(tmp_path, monkeypatch, room):
    path = tmp_path / "t1.ckpt"
    save_checkpoint(path, Checkpoint(_params_from(np.ones(N)), 1, 10, 0.0))
    before = path.read_bytes()
    monkeypatch.setattr(atomic, "open", full_disk(room), raising=False)
    with pytest.raises(OSError, match="No space left"):
        save_checkpoint(path, Checkpoint(_params_from(np.zeros(N)), 1, 10, 0.0))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["t1.ckpt"]


def test_write_atomic_failing_partway_keeps_the_previous_file(tmp_path):
    path = tmp_path / "report.csv"
    write_atomic(path, [b"old\n"])

    def chunks():
        yield b"new, half written"
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        write_atomic(path, chunks())
    assert path.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]
    write_atomic(path, [b"new", b"\n"])
    assert path.read_bytes() == b"new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"not a checkpoint")
    # garbage, a missing file and a directory all fail by name
    for bad in (path, tmp_path / "missing.ckpt", tmp_path):
        with pytest.raises(CheckpointError, match=re.escape(str(bad))):
            load_checkpoint(bad)


def _checkpoint_blob(tmp_path):
    path = tmp_path / "valid.ckpt"
    save_checkpoint(path, Checkpoint(_params_from(np.linspace(-1.0, 1.0, N)), 2, 40, 0.0))
    return path.read_bytes()


def _header_blob(header: dict, payload: bytes = b"") -> bytes:
    raw = json.dumps(header).encode()
    return b"DRIFTCKP" + struct.pack("<II", 1, len(raw)) + raw + payload


@pytest.mark.parametrize("case", ["short_header", "truncated_payload", "bad_json",
                                  "missing_field", "wrong_version", "wrong_magic",
                                  "float_period", "arch_mismatch"])
def test_checkpoint_corruptions_raise_checkpoint_error(tmp_path, case):
    blob = _checkpoint_blob(tmp_path)
    header_len = struct.unpack("<I", blob[12:16])[0]
    header = json.loads(blob[16:16 + header_len])
    payload = blob[16 + header_len:]
    corrupt = {
        "short_header": blob[:11],
        "truncated_payload": blob[:-3],
        "bad_json": blob[:16] + b"[" + blob[17:],
        "missing_field": _header_blob({k: v for k, v in header.items() if k != "period_id"},
                                      payload),
        "wrong_version": blob[:8] + struct.pack("<I", 2) + blob[12:],
        "wrong_magic": b"DRIFTCKQ" + blob[8:],
        "float_period": _header_blob({**header, "period_id": 2.5}, payload),
        "arch_mismatch": _header_blob({**header, "arch": {**header["arch"], "hidden_units": 3}},
                                      payload),
    }[case]
    path = tmp_path / f"{case}.ckpt"
    path.write_bytes(corrupt)
    with pytest.raises(CheckpointError, match=case):
        load_checkpoint(path)


@settings(max_examples=200, deadline=None)
@given(cut=st.integers(0, 16 + 400 + 8 * N),
       flips=st.lists(st.tuples(st.integers(0, 16 + 400 + 8 * N), st.integers(1, 255)),
                      max_size=3))
def test_checkpoint_fuzz_fails_only_with_driftfed_errors(tmp_path_factory, cut, flips):
    tmp = tmp_path_factory.mktemp("fuzz")
    blob = bytearray(_checkpoint_blob(tmp))
    for pos, mask in flips:
        if pos < len(blob):
            blob[pos] ^= mask
    path = tmp / "fuzzed.ckpt"
    path.write_bytes(bytes(blob[:cut]))
    try:
        loaded = load_checkpoint(path)
    except DriftFedError as exc:
        assert isinstance(exc, CheckpointError) and "fuzzed.ckpt" in str(exc)
    else:
        assert loaded.params.vec.shape == (param_count(loaded.params.arch),)
