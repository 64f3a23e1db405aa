import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import reference_lstm
from driftfed.dataset import RowShard
from driftfed.errors import ConfigError, DataError, LabelError, ShapeError
from driftfed.federation import FedConfig, fedavg_aggregate, run_round
from driftfed.nn import (COHORT_PARAMS, SEGMENT_PARAMS, GradientBuffer, ModelArch, ModelParams,
                         Optimizer, TrainConfig, _lstm, _sigmoid, backward, cohort_size, cross_entropy, forward, init_params,
                         param_count, predict, softmax, train_local)
from driftfed.seeds import derive_seed

from conftest import rows_of_one_table, whole


def test_param_count_hand_example():
    # 4*(3*2 + 3*3 + 3) + (2*3 + 2) = 80 by gate-tensor shape arithmetic
    arch = ModelArch(input_dim=2, hidden_layers=1, hidden_units=3, output_dim=2)
    assert param_count(arch) == 80


@pytest.mark.parametrize("arch", [
    ModelArch(input_dim=5, hidden_layers=2, hidden_units=4, output_dim=3),
    ModelArch(input_dim=45, hidden_layers=1, hidden_units=16, output_dim=2, seq_len=3),
])
def test_param_count_matches_flatten(arch):
    params = init_params(arch, seed=0)
    assert params.vec.size == param_count(arch)


def test_invalid_arch_rejected():
    with pytest.raises(ConfigError):
        ModelArch(input_dim=0)
    with pytest.raises(ConfigError):
        ModelArch(output_dim=1)
    with pytest.raises(ConfigError):
        ModelArch(hidden_layers=-1)


def test_init_deterministic_bitwise():
    arch = ModelArch(input_dim=4, hidden_layers=2, hidden_units=3, output_dim=2)
    a = init_params(arch, seed=99)
    b = init_params(arch, seed=99)
    assert np.array_equal(a.vec, b.vec)
    c = init_params(arch, seed=100)
    assert not np.array_equal(a.vec, c.vec)


def test_init_bias_rules_and_weight_bounds():
    arch = ModelArch(input_dim=9, hidden_layers=2, hidden_units=4, output_dim=3)
    params = init_params(arch, seed=1)
    h = arch.hidden_units
    assert np.all(params.b_out == 0.0)
    for layer, d in enumerate(arch.layer_input_dims):
        bias = params.b[layer]
        assert np.all(bias[h:2 * h] == 1.0)          # forget gate
        assert np.all(np.delete(bias, np.s_[h:2 * h]) == 0.0)
        assert np.abs(params.wx[layer]).max() < 1.0 / math.sqrt(d)
        assert np.abs(params.wh[layer]).max() < 1.0 / math.sqrt(h)


def test_params_are_immutable():
    params = init_params(ModelArch(input_dim=2, hidden_layers=2, hidden_units=2,
                                   output_dim=2), seed=0)
    canonical = [t for layer in zip(params.wx, params.wh, params.b) for t in layer]
    canonical += [params.w_out, params.b_out]
    assert np.array_equal(np.concatenate([t.ravel() for t in canonical]), params.vec)
    for view in canonical + [params.vec]:
        assert np.shares_memory(view, params.vec)
        with pytest.raises(ValueError):
            view.flat[0] = 5.0


@pytest.mark.parametrize("seed", range(5))
def test_flatten_unflatten_roundtrip_bits(seed, rng):
    arch = ModelArch(input_dim=3, hidden_layers=2, hidden_units=3, output_dim=4)
    vec = np.random.default_rng(seed).normal(size=param_count(arch))
    # views over a copy of the vector give back its exact bits, in canonical order
    params = ModelParams(arch, np.array(vec, dtype=np.float64))
    parts = [t for layer in zip(params.wx, params.wh, params.b) for t in layer]
    parts += [params.w_out, params.b_out]
    assert np.array_equal(np.concatenate([t.ravel() for t in parts]).view(np.uint64),
                          vec.view(np.uint64))
    assert np.array_equal(params.vec, vec) and not np.shares_memory(params.vec, vec)


def test_unflatten_rejects_wrong_length():
    arch = ModelArch(input_dim=2, hidden_layers=1, hidden_units=2, output_dim=2)
    with pytest.raises(ShapeError):
        ModelParams(arch, np.zeros(param_count(arch) + 1))


def test_forward_zero_params_uniform_softmax():
    arch = ModelArch(input_dim=4, hidden_layers=1, hidden_units=3, output_dim=5)
    params = ModelParams(arch, np.zeros(param_count(arch)))
    logits, _ = forward(params, np.random.default_rng(0).normal(size=(7, 4)))
    assert np.all(logits == 0.0)
    assert np.allclose(softmax(logits), 1.0 / 5)


def test_forward_shape_contract():
    arch = ModelArch(input_dim=4, hidden_layers=1, hidden_units=3, output_dim=2, seq_len=2)
    params = init_params(arch, seed=0)
    logits, _ = forward(params, np.zeros((6, 8)))
    assert logits.shape == (6, 2)
    with pytest.raises(ShapeError):
        forward(params, np.zeros((6, 7)))


def test_backward_out_takes_an_array_or_a_gradient_buffer_and_checks_both(rng):
    arch = ModelArch(input_dim=4, hidden_layers=1, hidden_units=3, output_dim=2, seq_len=2)
    params = init_params(arch, seed=0)
    _, cache = forward(params, rng.normal(size=(6, 8)))
    y = rng.integers(0, 2, 6)
    fresh = backward(params, cache, y)
    size = param_count(arch)

    buf = np.zeros(size)
    grads = backward(params, cache, y, out=buf)
    assert np.shares_memory(grads.vec, buf) and buf.tobytes() == fresh.vec.tobytes()
    buf = np.zeros(size)
    split = GradientBuffer(arch, buf)
    assert backward(params, cache, y, out=split) is split.grads
    assert buf.tobytes() == fresh.vec.tobytes()

    # same length, other arch; a stack for one model; wrong length, dtype or type,
    # including a bare (grads, views) pair
    other = replace(arch, seq_len=1)
    assert param_count(other) == size
    for out in (GradientBuffer(other, np.zeros(size)), GradientBuffer(arch, np.zeros((2, size))),
                np.zeros((2, size)), np.zeros(size + 1), np.zeros(size, dtype=np.float32),
                (split.grads, split.views), [0.0] * size):
        with pytest.raises(ShapeError):
            backward(params, cache, y, out=out)


def test_forward_matches_hand_evaluated_lstm_step():
    # 1-unit single-layer cell, scalar arithmetic oracle
    arch = ModelArch(input_dim=1, hidden_layers=1, hidden_units=1, output_dim=2)
    wx = np.array([[0.5, -0.3, 0.8, 0.1]])      # gates i, f, g, o
    wh = np.zeros((1, 4))
    b = np.array([0.1, 0.2, -0.1, 0.05])
    w_out = np.array([[1.2, -0.7]])
    b_out = np.array([0.3, -0.2])
    flat = np.concatenate([wx.ravel(), wh.ravel(), b, w_out.ravel(), b_out])
    params = ModelParams(arch, np.array(flat, dtype=np.float64))

    x = 0.7
    sig = lambda v: 1.0 / (1.0 + math.exp(-v))
    gate_i = sig(0.5 * x + 0.1)
    gate_f = sig(-0.3 * x + 0.2)
    gate_g = math.tanh(0.8 * x - 0.1)
    gate_o = sig(0.1 * x + 0.05)
    c = gate_i * gate_g                      # c_prev = 0, so the forget path drops
    h = gate_o * math.tanh(c)
    expected = [h * 1.2 + 0.3, h * -0.7 - 0.2]

    logits, _ = forward(params, np.array([[x]]))
    assert np.allclose(logits[0], expected, atol=1e-12)


def _finite_diff_check(arch, param_seed, data_seed, step=1e-5):
    gen = np.random.default_rng(param_seed)
    flat = gen.normal(0, 0.5, param_count(arch))
    params = ModelParams(arch, np.array(flat, dtype=np.float64))
    data_rng = np.random.default_rng(data_seed)
    X = data_rng.normal(size=(4, arch.feature_width))
    y = data_rng.integers(0, arch.output_dim, 4)

    _, cache = forward(params, X)
    analytic = backward(params, cache, y).vec

    numeric = np.empty_like(flat)
    for k in range(flat.size):
        up = flat.copy(); up[k] += step
        dn = flat.copy(); dn[k] -= step
        lo_up, _ = forward(ModelParams(arch, up), X)
        lo_dn, _ = forward(ModelParams(arch, dn), X)
        numeric[k] = (cross_entropy(lo_up, y) - cross_entropy(lo_dn, y)) / (2 * step)

    denom = np.maximum(1e-6, np.maximum(np.abs(analytic), np.abs(numeric)))
    return np.max(np.abs(analytic - numeric) / denom)


@pytest.mark.parametrize("seed", range(20))
def test_gradient_matches_finite_differences_property(seed):
    gen = np.random.default_rng(seed)
    arch = ModelArch(
        input_dim=int(gen.integers(1, 4)),
        hidden_layers=int(gen.integers(1, 3)),
        hidden_units=int(gen.integers(1, 4)),
        output_dim=int(gen.integers(2, 4)),
        seq_len=int(gen.integers(1, 4)),
    )
    assert _finite_diff_check(arch, param_seed=seed, data_seed=seed + 1000) < 1e-4


def test_gradient_zero_when_prediction_is_exact():
    # logits with a +/-800 margin saturate softmax to an exact one-hot
    arch = ModelArch(input_dim=2, hidden_layers=1, hidden_units=2, output_dim=2)
    flat = np.zeros(param_count(arch))
    params_zero = ModelParams(arch, np.array(flat, dtype=np.float64))
    flat[-2:] = [800.0, -800.0]
    params = ModelParams(arch, np.array(flat, dtype=np.float64))
    X = np.random.default_rng(0).normal(size=(5, 2))
    logits, cache = forward(params, X)
    assert np.array_equal(softmax(logits), np.tile([1.0, 0.0], (5, 1)))
    grads = backward(params, cache, np.zeros(5, dtype=int))
    assert np.all(grads.b_out == 0.0)
    assert np.all(grads.vec == 0.0)
    del params_zero


def test_gradient_invariant_to_row_duplication(rng):
    arch = ModelArch(input_dim=3, hidden_layers=1, hidden_units=4, output_dim=3)
    params = ModelParams(arch, rng.normal(0, 0.4, param_count(arch)))
    X = rng.normal(size=(6, 3))
    y = rng.integers(0, 3, 6)
    _, cache1 = forward(params, X)
    g1 = backward(params, cache1, y).vec
    _, cache2 = forward(params, np.vstack([X, X]))
    g2 = backward(params, cache2, np.concatenate([y, y])).vec
    assert np.allclose(g1, g2, rtol=1e-12, atol=1e-15)


def test_backward_rejects_bad_labels(rng):
    arch = ModelArch(input_dim=2, hidden_layers=1, hidden_units=2, output_dim=2)
    params = init_params(arch, seed=0)
    _, cache = forward(params, rng.normal(size=(3, 2)))
    with pytest.raises(LabelError):
        backward(params, cache, np.array([0, 1, 2]))


def test_predict_tie_break_and_argmax_consistency(rng):
    arch = ModelArch(input_dim=3, hidden_layers=1, hidden_units=2, output_dim=4)
    zero = ModelParams(arch, np.zeros(param_count(arch)))
    X = rng.normal(size=(9, 3))
    assert np.all(predict(zero, X) == 0)     # all-equal logits -> lowest index

    params = init_params(arch, seed=5)
    logits, _ = forward(params, X)
    assert np.array_equal(predict(params, X), np.argmax(logits, axis=1))


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(local_epochs=0)
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)


def test_labeled_data_rejects_non_integer_labels():
    with pytest.raises(LabelError, match="integer"):
        whole(np.zeros((4, 2)), np.array([0.5, 1.0, 0.2, 0.9]))


def test_labeled_data_rejects_bad_shapes():
    with pytest.raises(DataError, match="2-D"):
        RowShard(np.zeros(4), np.array([1, 2]), np.zeros(2, dtype=int))
    with pytest.raises(DataError, match="one entry per row"):
        whole(np.zeros((4, 2)), np.zeros(3, dtype=int))


def test_row_shard_rejects_rows_outside_its_matrix_and_bad_labels():
    X = np.zeros((4, 2))
    for rows in ([0, 4], [-1, 2]):
        with pytest.raises(DataError, match=r"in \[0, 4\)"):
            RowShard(X, np.array(rows), np.zeros(2, dtype=int))
    for rows in (np.array([0.0, 1.0]), np.zeros((1, 2), dtype=int)):
        with pytest.raises(DataError, match="1-D array of row indices"):
            RowShard(X, rows, np.zeros(2, dtype=int))
    with pytest.raises(DataError, match="one entry per row index"):
        RowShard(X, np.array([1, 2]), np.zeros(3, dtype=int))
    with pytest.raises(LabelError, match="integer"):
        RowShard(X, np.array([1, 2]), np.array([0.5, 1.0]))
    shard = RowShard(X, [3, 0], np.array([1, 0]))
    assert len(shard) == 2 and shard.X is X and shard.rows.dtype == np.intp


def test_train_local_rejects_empty_and_bad_labels():
    arch = ModelArch(input_dim=2, hidden_layers=1, hidden_units=2, output_dim=2)
    params = init_params(arch, seed=0)
    with pytest.raises(DataError):
        train_local(params, [whole(np.zeros((0, 2)), np.zeros(0, dtype=int))],
                    TrainConfig(local_epochs=1), [0])
    with pytest.raises(LabelError):
        train_local(params, [whole(np.zeros((2, 2)), np.array([0, 3]))],
                    TrainConfig(local_epochs=1), [0])
    for shard in (RowShard(np.zeros((3, 2)), np.zeros(0, dtype=int), np.zeros(0, dtype=int)),
                  RowShard(np.zeros((3, 2)), np.array([2]), np.array([2]))):
        with pytest.raises(DataError):  # LabelError is a DataError
            train_local(params, [shard], TrainConfig(local_epochs=1), [0])


def test_train_local_deterministic_bitwise(rng):
    arch = ModelArch(input_dim=3, hidden_layers=1, hidden_units=4, output_dim=2)
    params = init_params(arch, seed=2)
    data = whole(rng.normal(size=(40, 3)), rng.integers(0, 2, 40))
    cfg = TrainConfig(local_epochs=3)
    [out1] = train_local(params, [data], cfg, [77])
    [out2] = train_local(params, [data], cfg, [77])
    assert np.array_equal(out1.vec, out2.vec)


def test_train_local_learns_separable_blobs():
    gen = np.random.default_rng(3)
    a = gen.normal(loc=-2.0, scale=0.5, size=(60, 4))
    b = gen.normal(loc=+2.0, scale=0.5, size=(60, 4))
    data = whole(np.vstack([a, b]), np.array([0] * 60 + [1] * 60))
    arch = ModelArch(input_dim=4, hidden_layers=1, hidden_units=8, output_dim=2)
    params = init_params(arch, seed=1)
    [out] = train_local(params, [data], TrainConfig(local_epochs=20), [5])
    acc = np.mean(predict(out, data.X) == data.y)
    assert acc >= 0.95


def test_full_batch_descent_loss_non_increasing(rng):
    # each call is one full-batch Adam step from fresh moments, which moves every
    # parameter by the learning rate against its gradient's sign: at a small rate
    # on normalized data the loss cannot go up
    arch = ModelArch(input_dim=4, hidden_layers=1, hidden_units=4, output_dim=2)
    params = init_params(arch, seed=9)
    X = rng.uniform(0, 1, size=(32, 4))
    y = rng.integers(0, 2, 32)
    data = whole(X, y)
    cfg = TrainConfig(learning_rate=1e-3, batch_size=32, local_epochs=1)
    losses = []
    current = params
    for _ in range(20):
        logits, _ = forward(current, X)
        losses.append(cross_entropy(logits, y))
        [current] = train_local(current, [data], cfg, [0])
    logits, _ = forward(current, X)
    losses.append(cross_entropy(logits, y))
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_softmax_rows_sum_to_one(rng):
    logits = rng.normal(scale=30, size=(50, 6))
    sums = softmax(logits).sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) < 1e-9


@pytest.mark.parametrize("seed", range(12))
def test_engine_matches_per_tensor_reference_bitwise(seed):
    # the flat engine, its zero-state shortcuts and its segmented optimizer
    # must reproduce the plain per-tensor arithmetic bit for bit
    gen = np.random.default_rng(seed)
    arch = ModelArch(input_dim=int(gen.integers(1, 6)), hidden_layers=int(gen.integers(1, 4)),
                     hidden_units=int(gen.integers(1, 9)), output_dim=int(gen.integers(2, 5)),
                     seq_len=int(gen.integers(1, 4)))
    params = ModelParams(arch, gen.normal(0, float(gen.choice([0.3, 1.0, 4.0])),
                                        param_count(arch)))
    X = gen.normal(scale=2.0, size=(37, arch.feature_width))
    y = gen.integers(0, arch.output_dim, 37)

    _, cache = forward(params, X)
    tensors = reference_lstm.split(arch, params.vec)
    _, ref_cache = reference_lstm.forward(arch, tensors, X)
    ref_grads = reference_lstm.backward(arch, tensors, ref_cache, y)
    assert (backward(params, cache, y).vec.tobytes()
            == np.concatenate([g.ravel() for g in ref_grads]).tobytes())

    cfg = TrainConfig(learning_rate=0.05, batch_size=int(gen.integers(1, 20)), local_epochs=2)
    [out] = train_local(params, [whole(X, y)], cfg, [seed])
    assert out.vec.tobytes() == reference_lstm.train(arch, params.vec, X, y, cfg, seed).tobytes()


@pytest.mark.parametrize("seq_len", [1, 2, 3])
@pytest.mark.parametrize("hidden_units", range(1, 9))
def test_inference_logits_match_reference_bitwise(hidden_units, seq_len):
    # the cache-free pass that predict runs, zero-state gates included, must
    # give the reference logits byte for byte, not only their argmax
    gen = np.random.default_rng(10 * hidden_units + seq_len)
    arch = ModelArch(input_dim=int(gen.integers(1, 6)), hidden_layers=int(gen.integers(1, 4)),
                     hidden_units=hidden_units, output_dim=int(gen.integers(2, 5)),
                     seq_len=seq_len)
    params = ModelParams(arch, gen.normal(0, float(gen.choice([0.3, 1.0, 4.0])),
                                        param_count(arch)))
    X = gen.normal(scale=2.0, size=(37, arch.feature_width))
    logits, _, _ = _lstm(params, X[None], keep=False)
    expected, _ = reference_lstm.forward(arch, reference_lstm.split(arch, params.vec), X)
    assert logits[0].tobytes() == expected.tobytes()


def test_sigmoid_matches_reference_bitwise_at_edges(rng):
    # signed zeros and tiny values; 1 + exp(-|x|) rounds to 1 from |x| ~ 36.74;
    # exp(-|x|) goes subnormal at 745 and underflows to 0 by 750; infinities
    edges = np.array([0.0, 1e-300, 36.7, 36.8, 745.0, 750.0, np.inf])
    x = np.concatenate([edges, -edges])
    assert _sigmoid(x).tobytes() == reference_lstm._sigmoid(x).tobytes()
    # the zero-state step reads the i and o gate blocks through a strided view
    view = rng.normal(scale=8.0, size=(3, 5, 4, 7))[..., ::3, :]
    dense = view.copy()
    assert _sigmoid(view).tobytes() == _sigmoid(dense).tobytes()
    assert _sigmoid(dense).tobytes() == reference_lstm._sigmoid(dense).tobytes()


def test_seq_len_one_gradient_is_zero_on_wh_and_forget_gate(rng):
    arch = ModelArch(input_dim=5, hidden_layers=3, hidden_units=4, output_dim=3)
    h = arch.hidden_units
    params = ModelParams(arch, rng.normal(0, 0.5, param_count(arch)))
    X = rng.normal(size=(9, 5))
    _, cache = forward(params, X)
    grads = backward(params, cache, rng.integers(0, 3, 9))
    for layer in range(arch.hidden_layers):
        assert not np.any(grads.wh[layer])
        assert not np.any(grads.wx[layer][:, h:2 * h])
        assert not np.any(grads.b[layer][h:2 * h])
        assert np.any(grads.wx[layer][:, :h]) and np.any(grads.b[layer][2 * h:])


def test_recurrent_weights_inert_only_at_seq_len_one(rng):
    cfg = TrainConfig(learning_rate=0.01, batch_size=8, local_epochs=2)
    for seq_len, changes in ((1, False), (3, True)):
        arch = ModelArch(input_dim=3, hidden_layers=2, hidden_units=4, output_dim=2,
                         seq_len=seq_len)
        params = init_params(arch, seed=6)
        data = whole(rng.normal(size=(40, arch.feature_width)), rng.integers(0, 2, 40))
        [out] = train_local(params, [data], cfg, [4])
        for before, after in zip(params.wh, out.wh):
            assert np.array_equal(before, after) != changes
        assert not np.array_equal(params.wx[0], out.wx[0])


def test_predict_is_cache_free_and_unchanged():
    # inference keeps no BPTT cache: 8192 rows at the full 5x128 arch stay
    # far below the ~420 MiB a cached forward pass allocates
    arch = ModelArch(input_dim=45, hidden_layers=5, hidden_units=128, output_dim=6)
    params = init_params(arch, seed=3)
    X = np.random.default_rng(0).normal(size=(8192, 45))
    tracemalloc.start()
    try:
        preds = predict(params, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 2**20
    logits, _ = reference_lstm.forward(arch, reference_lstm.split(arch, params.vec), X)
    assert np.array_equal(preds, np.argmax(logits, axis=1))


def _lockstep_case(gen, arch, sizes):
    """Parameters and each client's ``(X, y)``, and the clients as shards of one matrix."""
    params = ModelParams(arch, gen.normal(0, 0.5, param_count(arch)))
    parts = [(gen.normal(scale=2.0, size=(n, arch.feature_width)),
              gen.integers(0, arch.output_dim, n)) for n in sizes]
    return params, parts, rows_of_one_table(gen, parts)


def _assert_lockstep_matches_reference(params, parts, shards, cfg, seeds):
    """Each client as the reference trains it from its own rows ``parts``: alone,
    from a matrix of its own, and in lockstep, from ``shards`` of one matrix."""
    expected = [reference_lstm.train(params.arch, params.vec, X, y, cfg, seed).tobytes()
                for (X, y), seed in zip(parts, seeds)]
    alone = [train_local(params, [whole(X, y)], cfg, [seed])[0].vec.tobytes()
             for (X, y), seed in zip(parts, seeds)]
    assert alone == expected
    assert [p.vec.tobytes() for p in train_local(params, shards, cfg, seeds)] == expected


# batch size 8: a shard below the batch, equal shards, sizes one apart, batch multiples
LOCKSTEP_SIZES = {"below-batch": (21, 5, 13), "equal": (20, 20, 20),
                  "one-apart": (21, 19, 20), "batch-multiples": (32, 16, 24)}


@pytest.mark.parametrize("sizes", LOCKSTEP_SIZES.values(), ids=LOCKSTEP_SIZES.keys())
def test_lockstep_clients_match_per_client_reference_bitwise(sizes):
    # clients stacked into equal-batch runs, as row indices into one matrix,
    # must train exactly as they would alone from their own rows
    gen = np.random.default_rng(sum(sizes))
    for seq_len in (1, 2, 3):
        arch = ModelArch(input_dim=3, hidden_layers=2, hidden_units=5, output_dim=3,
                         seq_len=seq_len)
        params, parts, shards = _lockstep_case(gen, arch, sizes)
        for epochs in (1, 3):
            cfg = TrainConfig(learning_rate=0.05, batch_size=8, local_epochs=epochs)
            seeds = [100 * seq_len + k for k in range(len(sizes))]
            _assert_lockstep_matches_reference(params, parts, shards, cfg, seeds)


def test_lockstep_single_client_matches_reference_bitwise():
    gen = np.random.default_rng(7)
    arch = ModelArch(input_dim=4, hidden_layers=1, hidden_units=6, output_dim=2, seq_len=2)
    params, parts, shards = _lockstep_case(gen, arch, (27,))
    cfg = TrainConfig(learning_rate=0.05, batch_size=8, local_epochs=3)
    _assert_lockstep_matches_reference(params, parts, shards, cfg, [11])


@pytest.mark.parametrize("seq_len", [1, 2])
def test_one_client_cohorts_share_a_workspace_exactly(seq_len):
    # above COHORT_PARAMS every client of a round is its own cohort, and the
    # cohorts reuse one gradient, moment and scratch workspace: each client
    # must train as it does with a fresh one, and the round must be FedAvg
    # over clients trained alone
    gen = np.random.default_rng(seq_len)
    arch = ModelArch(input_dim=4, hidden_layers=1, hidden_units=128, output_dim=3,
                     seq_len=seq_len)
    assert param_count(arch) > COHORT_PARAMS and cohort_size(arch) == 1
    params, _, shards = _lockstep_case(gen, arch, (13, 6, 21, 6))
    cfg = TrainConfig(learning_rate=0.01, batch_size=4, local_epochs=2)
    seeds = [derive_seed(5, "round", 0, "client", k) for k in range(len(shards))]
    alone = [train_local(params, [shard], cfg, [seed])[0] for shard, seed in zip(shards, seeds)]
    workspace = Optimizer(cfg, arch, 1)
    for shard, seed, expected in zip(shards, seeds, alone):
        [shared] = train_local(params, [shard], cfg, [seed], workspace=workspace)
        assert shared.vec.tobytes() == expected.vec.tobytes()
    merged = run_round(params, shards, FedConfig(num_clients=4, rounds=1, train=cfg), 5)
    expected = fedavg_aggregate(alone, [len(s) for s in shards])
    assert merged.vec.tobytes() == expected.vec.tobytes()


@pytest.mark.parametrize("seq_len", [1, 2])
def test_live_segments_tile_the_trained_parameters_in_bounded_pieces(seq_len):
    # at 5x128 the runs between two wh are about twice SEGMENT_PARAMS wide
    arch = ModelArch(input_dim=45, hidden_layers=5, hidden_units=128, output_dim=6,
                     seq_len=seq_len)
    slots, live = arch.layout
    trained = np.ones(param_count(arch), dtype=int)
    if seq_len == 1:
        for sl, _ in slots[1:3 * arch.hidden_layers:3]:  # the inert wh
            trained[sl] = 0
    covered = np.zeros_like(trained)
    for sl in live:
        covered[sl] += 1
    assert np.array_equal(covered, trained)
    assert [sl.start for sl in live] == sorted(sl.start for sl in live)
    assert max(sl.stop - sl.start for sl in live) <= SEGMENT_PARAMS
    assert max(sl.stop - sl.start for sl, _ in slots) > SEGMENT_PARAMS
    assert len(live) > 2 * arch.hidden_layers + 1  # more than the wh alone cut
    desk = ModelArch(input_dim=45, hidden_layers=1, hidden_units=16, output_dim=2)
    assert len(desk.layout[1]) == 2  # split at its wh only


def test_optimizer_step_updates_both_moments_as_the_per_moment_sequence(rng):
    # three stacked rows at different Adam step counts, two hidden layers so that
    # the live segments are split at each inert wh; the step must give the bits
    # of the per-moment sequence, row by row, with Python's float power
    arch = ModelArch(input_dim=3, hidden_layers=2, hidden_units=4, output_dim=2)
    cfg = TrainConfig(learning_rate=0.01)
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, cfg.learning_rate
    opt = Optimizer(cfg, arch, 3)
    live = arch.layout[1]
    assert len(live) == 3
    vec = rng.normal(size=(3, param_count(arch)))
    opt.grad[...] = rng.normal(size=opt.grad.shape)
    opt.moments[0] = rng.normal(size=opt.moments[0].shape)
    opt.moments[1] = rng.uniform(0, 2, size=opt.moments[1].shape)
    opt.counts = [0, 3, 8]
    p, m, v = vec.copy(), opt.moments[0].copy(), opt.moments[1].copy()
    for k, t in enumerate([1, 4, 9]):
        bc1, bc2 = 1.0 - b1 ** t, 1.0 - b2 ** t
        lo = 0
        for sl in live:
            packed = slice(lo, lo + sl.stop - sl.start)
            lo = packed.stop
            g = opt.grad[k, sl]
            m[k, packed] *= b1
            a = g * (1.0 - b1)
            m[k, packed] += a
            v[k, packed] *= b2
            a = g * (1.0 - b2)
            a *= g
            v[k, packed] += a
            a = m[k, packed] / bc1
            a *= lr
            b = v[k, packed] / bc2
            b = np.sqrt(b)
            b += eps
            a /= b
            p[k, sl] -= a
    opt.step(opt.segments(vec, slice(0, 3)), slice(0, 3))
    assert opt.counts == [1, 4, 9]
    assert vec.tobytes() == p.tobytes()
    assert opt.moments[0].tobytes() == m.tobytes()
    assert opt.moments[1].tobytes() == v.tobytes()


def test_lockstep_rejects_mismatched_configs(rng):
    # one seed per shard: a count that differs from the shard count is refused
    arch = ModelArch(input_dim=2, hidden_layers=1, hidden_units=2, output_dim=2)
    params = init_params(arch, seed=0)
    cfg = TrainConfig(local_epochs=1)
    shards = rows_of_one_table(rng, [(rng.normal(size=(6, 2)), rng.integers(0, 2, 6))
                                     for _ in range(2)])
    for data, seeds in ((shards, [0]), (shards, [7, 8, 9]), ([], [])):
        with pytest.raises(ConfigError, match=f"got {len(seeds)} seed"):
            train_local(params, data, cfg, seeds)
    with pytest.raises(ShapeError):
        train_local(params, [whole(np.zeros((3, 5)), np.zeros(3, dtype=int))], cfg, [0])


def test_train_local_refuses_shards_of_two_matrices(rng):
    # a call gathers every batch from one matrix: shards of another matrix, even
    # one with the same values, are refused by that rule
    arch = ModelArch(input_dim=2, hidden_layers=1, hidden_units=2, output_dim=2)
    params = init_params(arch, seed=0)
    shard = whole(rng.normal(size=(6, 2)), rng.integers(0, 2, 6))
    for other in (whole(rng.normal(size=(4, 2)), rng.integers(0, 2, 4)),
                  RowShard(shard.X.copy(), shard.rows, shard.y)):
        with pytest.raises(DataError, match="shards of one matrix"):
            train_local(params, [shard, other], TrainConfig(local_epochs=1), [1, 2])


def test_train_local_refuses_a_workspace_it_does_not_fit(rng):
    arch = ModelArch(input_dim=2, hidden_layers=1, hidden_units=2, output_dim=2)
    params = init_params(arch, seed=0)
    cfg = TrainConfig(local_epochs=1)
    shards = rows_of_one_table(rng, [(rng.normal(size=(6, 2)), rng.integers(0, 2, 6))
                                     for _ in range(2)])
    for workspace in (Optimizer(replace(cfg, learning_rate=0.5), arch, 2),
                      Optimizer(cfg, replace(arch, hidden_units=3), 2),
                      Optimizer(cfg, arch, 1)):  # too small for the two-client cohort
        with pytest.raises(ConfigError, match="workspace"):
            train_local(params, shards, cfg, [1, 2], workspace=workspace)
    reused = train_local(params, shards, cfg, [1, 2], workspace=Optimizer(cfg, arch, 2))
    fresh = train_local(params, shards, cfg, [1, 2])
    assert [p.vec.tobytes() for p in reused] == [p.vec.tobytes() for p in fresh]
