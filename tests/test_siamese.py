import math
import tracemalloc

import numpy as np
import pytest

from bbauth.errors import DegeneratePairs, ShapeMismatch
from bbauth.siamese import (
    _ADAM_BLOCK,
    PairSet,
    TrainConfig,
    _adam_step,
    _pair_loss_and_embedding_grads,
    build_pair_set,
    forward,
    grad_check,
    init_network,
    loss_and_grads,
    siamese_score,
    train,
)

SMALL_HIDDEN = (5, 4, 3, 2)  # 80 trainable parameters with input_dim 4


def _small_pairs(n=4, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.array([1, 0] * (n // 2))
    return PairSet(rng.standard_normal((n, dim)), rng.standard_normal((n, dim)), labels)


def _off_kink_network(seed):
    """Zero biases put dead rows exactly on the ReLU kink, where central
    differences and the subgradient legitimately disagree; nudge all
    parameters before running a finite-difference gate."""
    params = init_network(4, seed=seed, hidden=SMALL_HIDDEN)
    rng = np.random.default_rng(seed + 1000)
    for b in params.biases:
        b += rng.uniform(0.05, 0.15, size=b.shape)
    return params


def test_init_deterministic():
    a = init_network(6, seed=3)
    b = init_network(6, seed=3)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    c = init_network(6, seed=4)
    assert not np.array_equal(a.weights[0], c.weights[0])


def test_init_layer_shapes():
    params = init_network(12, seed=0)
    assert [w.shape for w in params.weights] == [(12, 400), (400, 200), (200, 100), (100, 50)]
    assert all(np.all(b == 0) for b in params.biases)


def test_forward_zero_weights_zero_embedding():
    params = init_network(4, seed=0, hidden=SMALL_HIDDEN)
    for w in params.weights:
        w[:] = 0.0
    out = forward(params, np.array([1.0, -2.0, 3.0, 4.0]), "infer")
    assert np.array_equal(out, np.zeros(2))


def test_forward_outputs_nonnegative():
    params = init_network(4, seed=1, hidden=SMALL_HIDDEN)
    rng = np.random.default_rng(2)
    out = forward(params, rng.standard_normal((10, 4)), "infer")
    assert np.all(out >= 0.0)


def test_forward_hand_computed_fixture():
    params = init_network(2, seed=0, hidden=(2, 2))
    params.weights[0][:] = np.array([[1.0, -1.0], [0.5, 2.0]])
    params.biases[0][:] = np.array([0.1, -0.2])
    params.weights[1][:] = np.array([[2.0, 0.0], [1.0, 1.0]])
    params.biases[1][:] = np.array([0.0, 0.5])
    x = np.array([1.0, 2.0])
    # batch norm with running stats (mean 0, var 1): xhat = x / sqrt(1 + 1e-5)
    xhat = x / math.sqrt(1.0 + 1e-5)
    h1 = np.maximum(xhat @ np.array([[1.0, -1.0], [0.5, 2.0]]) + np.array([0.1, -0.2]), 0)
    expected = np.maximum(h1 @ np.array([[2.0, 0.0], [1.0, 1.0]]) + np.array([0.0, 0.5]), 0)
    assert np.allclose(forward(params, x, "infer"), expected, atol=1e-12)


def test_forward_shape_mismatch():
    params = init_network(4, seed=0, hidden=SMALL_HIDDEN)
    with pytest.raises(ShapeMismatch):
        forward(params, np.zeros(5), "infer")


def test_contrastive_loss_values():
    # d^2 for same-subject pairs, hinge(margin - d)^2 for impostor pairs, margin 1
    cases = [
        (0.0, 1, 0.0), (0.0, 0, 1.0), (1.0, 0, 0.0), (2.5, 0, 0.0), (0.5, 0, 0.25), (0.5, 1, 0.25),
    ]
    for d, label, expected in cases:
        loss, _, _ = _pair_loss_and_embedding_grads(
            np.array([[d, 0.0]]), np.zeros((1, 2)), np.array([label]), 1.0)
        assert loss == expected
    d = np.array([c[0] for c in cases])
    labels = np.array([c[1] for c in cases])
    mean, _, _ = _pair_loss_and_embedding_grads(
        np.column_stack([d, np.zeros_like(d)]), np.zeros((len(d), 2)), labels, 1.0)
    assert math.isclose(mean, sum(c[2] for c in cases) / len(cases), rel_tol=1e-15)


def test_grad_check_passes_for_analytic_gradients():
    params = _off_kink_network(seed=5)
    pairs = _small_pairs(seed=6)
    assert grad_check(params, pairs, margin=1.0) < 1e-4


def test_grad_check_detects_sign_flip():
    params = _off_kink_network(seed=7)
    pairs = _small_pairs(seed=8)
    _, grads, _ = loss_and_grads(params, pairs, 1.0)
    corrupted = [-g for g in grads]
    assert grad_check(params, pairs, margin=1.0, grads=corrupted) > 0.1


def test_grad_check_zero_loss_batch():
    params = init_network(4, seed=9, hidden=SMALL_HIDDEN)
    rng = np.random.default_rng(10)
    sample = rng.standard_normal((2, 4))
    pairs = PairSet(sample, sample.copy(), np.array([1, 1]))
    loss, grads, _ = loss_and_grads(params, pairs, 1.0)
    assert loss == 0.0
    assert all(np.all(g == 0) for g in grads)
    assert grad_check(params, pairs, margin=1.0) == 0.0


def _toy_clusters(n_pairs=20, seed=0):
    rng = np.random.default_rng(seed)
    center_a = np.array([3.0, 3.0, 3.0, 3.0])
    center_b = -center_a
    a_rows, b_rows, labels = [], [], []
    for i in range(n_pairs):
        if i % 2 == 0:
            center = center_a if i % 4 == 0 else center_b
            a_rows.append(center + 0.3 * rng.standard_normal(4))
            b_rows.append(center + 0.3 * rng.standard_normal(4))
            labels.append(1)
        else:
            a_rows.append(center_a + 0.3 * rng.standard_normal(4))
            b_rows.append(center_b + 0.3 * rng.standard_normal(4))
            labels.append(0)
    return PairSet(np.array(a_rows), np.array(b_rows), np.array(labels))


def test_train_separates_toy_clusters():
    pairs = _toy_clusters()
    config = TrainConfig(epochs=60, batch_size=4, seed=1)
    result = train(pairs, config, hidden=(16, 8, 4, 4))
    params = result.params
    pos = pairs.labels == 1
    e_a = forward(params, pairs.a, "infer")
    e_b = forward(params, pairs.b, "infer")
    d = np.linalg.norm(e_a - e_b, axis=1)
    assert d[pos].mean() < d[~pos].mean()
    assert result.epoch_losses[-1] <= 0.5 * result.epoch_losses[0]


def test_train_deterministic():
    pairs = _toy_clusters(seed=2)
    config = TrainConfig(epochs=5, batch_size=4, seed=3)
    r1 = train(pairs, config, hidden=SMALL_HIDDEN)
    r2 = train(pairs, config, hidden=SMALL_HIDDEN)
    for w1, w2 in zip(r1.params.weights, r2.params.weights):
        assert np.array_equal(w1, w2)
    assert np.array_equal(r1.params.bn_mean, r2.params.bn_mean)
    assert r1.epoch_losses == r2.epoch_losses


def _textbook_adam_train(pairs, config, hidden):
    """`train` written with the allocating Adam update of Kingma & Ba
    (2015, Alg. 1): the reference the blocked in-place update must match
    bit for bit."""
    params = init_network(pairs.a.shape[1], config.seed, hidden)
    rng = np.random.default_rng(config.seed)
    arrays = params.trainable()
    moments1 = [np.zeros_like(a) for a in arrays]
    moments2 = [np.zeros_like(a) for a in arrays]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    n = pairs.a.shape[0]
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            batch = PairSet(pairs.a[idx], pairs.b[idx], pairs.labels[idx])
            _, grads, cache = loss_and_grads(params, batch, config.margin)
            params.bn_mean = 0.9 * params.bn_mean + (1 - 0.9) * cache["mu"]
            params.bn_var = 0.9 * params.bn_var + (1 - 0.9) * cache["var"]
            step += 1
            for v, g, m1, m2 in zip(arrays, grads, moments1, moments2):
                m1 *= beta1
                m1 += (1 - beta1) * g
                m2 *= beta2
                m2 += (1 - beta2) * g * g
                m1_hat = m1 / (1 - beta1**step)
                m2_hat = m2 / (1 - beta2**step)
                v -= config.learning_rate * m1_hat / (np.sqrt(m2_hat) + eps)
    return params


def test_train_bitwise_equals_textbook_adam():
    # the first weight (300 x 200) spans one full Adam block and a partial
    # tail; every other array is shorter than one block
    hidden = (200, 8, 4, 2)
    assert _ADAM_BLOCK < 300 * 200 < 2 * _ADAM_BLOCK
    rng = np.random.default_rng(21)
    labels = np.array([1, 0] * 12)
    pairs = PairSet(rng.standard_normal((24, 300)), rng.standard_normal((24, 300)), labels)
    config = TrainConfig(epochs=3, batch_size=8, seed=22)
    got = train(pairs, config, hidden=hidden).params
    want = _textbook_adam_train(pairs, config, hidden)
    for g, w in zip(got.trainable(), want.trainable()):
        assert np.array_equal(g, w)
    assert np.array_equal(got.bn_mean, want.bn_mean)
    assert np.array_equal(got.bn_var, want.bn_var)


def test_adam_step_allocates_no_parameter_sized_temporaries():
    params = init_network(2385, seed=0)  # 1.04 M trainable parameters
    arrays = params.trainable()
    rng = np.random.default_rng(23)
    grads = [rng.standard_normal(a.shape) for a in arrays]
    moments1 = [np.zeros_like(a) for a in arrays]
    moments2 = [np.zeros_like(a) for a in arrays]
    scratch = np.empty(_ADAM_BLOCK), np.empty(_ADAM_BLOCK)
    tracemalloc.start()
    try:
        _adam_step(arrays, grads, moments1, moments2, 1, 0.001, *scratch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_train_rejects_degenerate_pairs():
    rng = np.random.default_rng(4)
    pairs = PairSet(rng.standard_normal((4, 4)), rng.standard_normal((4, 4)), np.ones(4, dtype=int))
    with pytest.raises(DegeneratePairs):
        train(pairs, TrainConfig(epochs=1))


def test_config_invariants():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(margin=0.0)


def test_siamese_score_identical_sample():
    params = init_network(4, seed=11, hidden=SMALL_HIDDEN)
    embedding = forward(params, np.array([0.5, 1.0, -1.0, 2.0]), "infer")
    assert siamese_score([embedding], embedding) == 1.0


def test_siamese_score_symmetric_enrollments():
    enroll = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    verify = np.array([0.5, 0.5])
    common = np.linalg.norm(enroll[0] - verify)
    assert math.isclose(siamese_score(enroll, verify), math.exp(-common), rel_tol=1e-12)


def test_siamese_score_decreases_with_distance():
    enroll = [np.array([1.0, 1.0])]
    scores = [siamese_score(enroll, np.array([1.0 + t, 1.0])) for t in (0.0, 0.5, 1.0, 2.0)]
    assert scores == sorted(scores, reverse=True)


def test_batchnorm_infer_batch_equals_per_sample():
    params = init_network(4, seed=12, hidden=SMALL_HIDDEN)
    params.bn_mean[:] = np.array([0.5, -1.0, 2.0, 0.0])
    params.bn_var[:] = np.array([1.5, 0.5, 2.0, 1.0])
    rng = np.random.default_rng(13)
    batch = rng.standard_normal((6, 4))
    batched = forward(params, batch, "infer")
    stacked = np.stack([forward(params, row, "infer") for row in batch])
    assert np.allclose(batched, stacked, rtol=0, atol=1e-12)


def test_build_pair_set_ratio_and_determinism():
    rng = np.random.default_rng(17)
    samples = {f"u{i}": [rng.standard_normal(4) for _ in range(3)] for i in range(3)}
    pairs1 = build_pair_set(samples, seed=5)
    pairs2 = build_pair_set(samples, seed=5)
    assert np.array_equal(pairs1.a, pairs2.a)
    n_pos = int((pairs1.labels == 1).sum())
    n_neg = int((pairs1.labels == 0).sum())
    assert n_pos == 3 * 3  # C(3,2) per subject, 3 subjects
    assert n_neg == n_pos
