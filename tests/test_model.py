"""Model core: shapes, forward, analytic gradients, local SGD."""

import numpy as np
import pytest

from fedsim.data import LabeledDataset
from fedsim.errors import ShapeError, TrainingError
from fedsim.model import (
    ModelParams,
    forward,
    init_model,
    last_layer_weight_block,
    local_train,
    loss_and_grad,
    param_dim,
    representation,
    softmax,
)


def rand_batch(rng, n, width, m):
    return LabeledDataset(rng.standard_normal((n, width)), rng.integers(0, m, size=n), m)


def test_param_count_32_64_10():
    model = init_model([32, 64, 10], seed=7)
    assert model.dim == 32 * 64 + 64 + 64 * 10 + 10 == 2762


def test_init_deterministic_per_seed():
    a = init_model([32, 64, 10], seed=7)
    b = init_model([32, 64, 10], seed=7)
    assert np.array_equal(a.flat, b.flat)


def test_init_seeds_differ():
    a = init_model([32, 64, 10], seed=7)
    b = init_model([32, 64, 10], seed=8)
    assert np.any(a.flat != b.flat)


def test_init_bounds_and_zero_bias():
    model = init_model([8, 4], seed=0)
    (w, b), = model.layers()
    s = np.sqrt(6.0 / 12.0)
    assert np.all(np.abs(w) <= s)
    assert np.all(b == 0.0)


def test_init_zero_last_layer():
    model = init_model([8, 6, 4], seed=0, zero_last=True)
    w_last, b_last = model.layers()[-1]
    assert np.all(w_last == 0.0) and np.all(b_last == 0.0)
    w0, _ = model.layers()[0]
    assert np.any(w0 != 0.0)


def test_layer_views_write_through_to_flat():
    shapes = [(5, 3), (2, 5)]
    model = ModelParams(np.zeros(param_dim(shapes)), shapes)
    for k, (w, b) in enumerate(model.layers()):
        w[...] = 2 * k + 1
        b[...] = 2 * k + 2
    sizes = (15, 5, 10, 2)  # w0, b0, w1, b1 in flat order
    assert np.array_equal(model.flat, np.repeat([1.0, 2.0, 3.0, 4.0], sizes))


def test_zero_model_uniform_probabilities():
    model = ModelParams(np.zeros(param_dim([(64, 32), (10, 64)])), [(64, 32), (10, 64)])
    logits, _ = forward(model, np.random.default_rng(1).standard_normal((4, 32)))
    assert np.all(logits == 0.0)
    assert np.allclose(softmax(logits), 0.1)


def test_identity_single_layer():
    shapes = [(10, 10)]
    model = ModelParams(np.concatenate([np.eye(10).ravel(), np.zeros(10)]), shapes)
    x = np.zeros((1, 10))
    x[0, 3] = 1.0
    logits, pen = forward(model, x)
    assert np.array_equal(logits[0], x[0])
    assert np.array_equal(pen, x)  # no hidden layer: penultimate is the input


def test_forward_matches_naive_oracle():
    rng = np.random.default_rng(3)
    model = init_model([32, 64, 10], seed=7)
    x = rng.standard_normal((6, 32))
    logits, pen = forward(model, x)
    # independent re-implementation
    (w0, b0), (w1, b1) = model.layers()
    hidden = np.maximum(x @ w0.T + b0, 0.0)
    naive = hidden @ w1.T + b1
    assert np.max(np.abs(logits - naive)) < 1e-10
    assert np.max(np.abs(pen - hidden)) < 1e-10


def test_forward_shape_error():
    model = init_model([32, 64, 10], seed=7)
    with pytest.raises(ShapeError):
        forward(model, np.zeros((2, 31)))


def test_perfect_prediction_zero_loss_and_logit_grad():
    # enormous bias margin makes softmax exactly one-hot in float64
    shapes = [(4, 3)]
    bias = np.array([-500.0, 500.0, -500.0, -500.0])
    model = ModelParams(np.concatenate([np.zeros(4 * 3), bias]), shapes)
    loss, grad = loss_and_grad(model, np.ones((1, 3)), np.array([1]))
    assert loss == 0.0
    gb = ModelParams(grad, shapes).layers()[0][1]  # bias grad equals the logits grad
    assert np.array_equal(gb, np.zeros(4))


def test_uniform_prediction_analytic_values():
    shapes = [(10, 32)]
    model = ModelParams(np.zeros(param_dim(shapes)), shapes)
    c = 4
    loss, grad = loss_and_grad(model, np.random.default_rng(0).standard_normal((1, 32)), np.array([c]))
    assert abs(loss - np.log(10.0)) < 1e-12
    gb = ModelParams(grad, shapes).layers()[0][1]
    expected = np.full(10, 0.1)
    expected[c] -= 1.0
    assert np.allclose(gb, expected, atol=1e-12)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    model = init_model([16, 12, 6], seed=5)
    batch = rand_batch(rng, 8, 16, 6)
    x, y = batch.samples, batch.labels
    _, grad = loss_and_grad(model, x, y)
    h = 1e-5
    for idx in rng.choice(model.dim, size=50, replace=False):
        theta = model.copy()
        theta.flat[idx] += h
        up, _ = loss_and_grad(theta, x, y)
        theta.flat[idx] -= 2 * h
        down, _ = loss_and_grad(theta, x, y)
        fd = (up - down) / (2 * h)
        denom = max(abs(fd), abs(grad[idx]), 1e-8)
        assert abs(fd - grad[idx]) / denom < 1e-4


def test_single_sample_logit_grad_sign():
    rng = np.random.default_rng(2)
    model = init_model([16, 12, 6], seed=9)
    for c in range(6):
        _, grad = loss_and_grad(model, rng.standard_normal((1, 16)), np.array([c]))
        gb = ModelParams(grad, model.shapes).layers()[-1][1]  # p - onehot(c)
        assert (gb < 0).sum() == 1
        assert gb[c] < 0


def test_local_train_zero_lr():
    rng = np.random.default_rng(4)
    model = init_model([8, 6, 4], seed=1)
    upd = local_train(model, rand_batch(rng, 10, 8, 4), epochs=3, lr=0.0, batch_size=4, seed=0)
    assert np.all(upd == 0.0)


def test_single_step_identity():
    rng = np.random.default_rng(5)
    model = init_model([8, 6, 4], seed=1)
    batch = rand_batch(rng, 10, 8, 4)
    upd = local_train(model, batch, epochs=1, lr=0.1, batch_size=16, seed=3)
    _, grad = loss_and_grad(model, batch.samples, batch.labels)
    assert np.array_equal(upd, -0.1 * grad)


def test_single_step_lr_linearity():
    rng = np.random.default_rng(6)
    model = init_model([8, 6, 4], seed=2)
    batch = rand_batch(rng, 10, 8, 4)
    d1 = local_train(model, batch, epochs=1, lr=0.01, batch_size=16, seed=0)
    d2 = local_train(model, batch, epochs=1, lr=0.04, batch_size=16, seed=0)
    assert np.allclose(d2, 4.0 * d1, rtol=1e-12, atol=0)


def test_multi_epoch_determinism():
    rng = np.random.default_rng(7)
    model = init_model([8, 6, 4], seed=3)
    batch = rand_batch(rng, 20, 8, 4)
    d1 = local_train(model, batch, epochs=5, lr=0.05, batch_size=8, seed=42)
    d2 = local_train(model, batch, epochs=5, lr=0.05, batch_size=8, seed=42)
    assert np.array_equal(d1, d2)


def test_local_train_does_not_mutate_input():
    rng = np.random.default_rng(8)
    model = init_model([8, 6, 4], seed=3)
    before = model.flat.copy()
    local_train(model, rand_batch(rng, 10, 8, 4), epochs=2, lr=0.05, batch_size=4, seed=0)
    assert np.array_equal(model.flat, before)


def test_local_train_empty_dataset():
    model = init_model([8, 6, 4], seed=3)
    with pytest.raises(ShapeError):
        loss_and_grad(model, np.zeros((0, 8)), np.zeros(0, dtype=int))
    with pytest.raises(TrainingError):
        local_train(model, LabeledDataset(np.zeros((0, 8)), np.zeros(0, dtype=int), 4),
                    epochs=1, lr=0.1, batch_size=4, seed=0)


@pytest.mark.parametrize("x, y", [
    (np.zeros(8), np.array([0])),               # 1-D inputs
    (np.zeros((1, 8)), np.array([[0]])),        # 2-D labels
    (np.zeros((2, 8)), np.array([0])),          # lengths differ
    (np.zeros((1, 7)), np.array([0])),          # width differs from the model's
    (np.zeros((1, 8)), np.array([4])),          # label beyond the class count
])
def test_loss_and_grad_rejects_bad_batches(x, y):
    with pytest.raises(ShapeError):
        loss_and_grad(init_model([8, 6, 4], seed=3), x, y)


def test_representation_single_and_duplicates():
    model = init_model([8, 6, 4], seed=4)
    x = np.random.default_rng(9).standard_normal((1, 8))
    single = representation(model, LabeledDataset(x, np.array([0]), 4))
    _, pen = forward(model, x)
    assert np.array_equal(single, pen[0])
    doubled = representation(model, LabeledDataset(np.vstack([x, x]), np.array([0, 0]), 4))
    assert np.allclose(doubled, single, atol=1e-15)
    assert np.all(single >= 0.0)


def test_representation_matches_naive_mean():
    rng = np.random.default_rng(10)
    model = init_model([8, 6, 4], seed=4)
    batch = rand_batch(rng, 7, 8, 4)
    rep = representation(model, batch)
    naive = np.mean([forward(model, batch.samples[i:i + 1])[1][0] for i in range(7)], axis=0)
    assert np.max(np.abs(rep - naive)) < 1e-10


def test_local_train_rejects_non_finite_update():
    rng = np.random.default_rng(12)
    model = init_model([8, 6, 4], seed=3)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingError, match="^non-finite update$"):
            local_train(model, rand_batch(rng, 10, 8, 4), epochs=2, lr=1e200, batch_size=4, seed=0)


def test_last_layer_weight_block_view():
    model = init_model([8, 6, 4], seed=5)
    block = last_layer_weight_block(model.flat, model.shapes)
    assert np.array_equal(block, model.layers()[-1][0])
    block += 1.0  # writes land in the flat vector, as forge_full_claim relies on
    assert np.array_equal(model.layers()[-1][0], block)
    with pytest.raises(ShapeError):
        last_layer_weight_block(model.flat[:-1], model.shapes)
