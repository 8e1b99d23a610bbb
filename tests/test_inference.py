"""Label-distribution inference from last-layer update blocks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim.config import SimConfig
from fedsim.data import LabeledDataset, class_means, gen_dataset
from fedsim.errors import ConfigError, ShapeError
from fedsim.inference import (
    class_indicator,
    distribution_accuracy,
    infer_column,
    recover_last_layer_gradient,
)
from fedsim.model import (
    init_model,
    last_layer_weight_block,
    local_train,
    loss_and_grad,
)


def test_recover_single_step_identity():
    rng = np.random.default_rng(0)
    model = init_model([16, 12, 6], seed=1)
    batch = LabeledDataset(rng.standard_normal((20, 16)), rng.integers(0, 6, size=20), 6)
    upd = local_train(model, batch, epochs=1, lr=0.1, batch_size=32, seed=0)
    G = recover_last_layer_gradient(upd, model.shapes, lr=0.1)
    _, grad = loss_and_grad(model, batch.samples, batch.labels)
    expected = last_layer_weight_block(grad, model.shapes)
    assert np.max(np.abs(G - expected)) < 1e-14


def test_recover_zero_update():
    shapes = [(12, 16), (6, 12)]
    d = 16 * 12 + 12 + 12 * 6 + 6
    G = recover_last_layer_gradient(np.zeros(d), shapes, lr=0.05)
    assert np.all(G == 0.0) and G.shape == (6, 12)


def test_recover_rejects_bad_lr():
    # recover_last_layer_gradient divides by lr; the config that supplies it
    # rejects a non-positive learning rate
    with pytest.raises(ConfigError, match="^lr_client must be > 0$"):
        SimConfig(lr_client=0.0)


def test_recover_matches_instrumented_loop(monkeypatch):
    # oracle: capture every per-step last-layer gradient and sum
    from fedsim import model as model_module
    rng = np.random.default_rng(1)
    model = init_model([16, 12, 6], seed=2)
    batch = LabeledDataset(rng.standard_normal((40, 16)), rng.integers(0, 6, size=40), 6)
    captured = []

    def recording(params, x, y):
        loss, grad = loss_and_grad(params, x, y)
        captured.append(last_layer_weight_block(grad, model.shapes).copy())
        return loss, grad

    monkeypatch.setattr(model_module, "loss_and_grad", recording)
    upd = local_train(model, batch, epochs=5, lr=0.05, batch_size=8, seed=3)
    assert len(captured) == 25  # 5 epochs x 5 batches of 8
    accumulated = np.sum(captured, axis=0)
    G = recover_last_layer_gradient(upd, model.shapes, lr=0.05)
    assert np.max(np.abs(G - accumulated)) < 1e-8


def test_indicator_zero_gradient():
    assert np.all(class_indicator(np.zeros((6, 12))) == 0.0)


def test_indicator_single_class_argmax():
    # one gradient step on one sample of class c: the class coordinate is
    # the only one with a positive indicator entry, for every c
    rng = np.random.default_rng(4)
    model = init_model([16, 12, 6], seed=7)
    for c in range(6):
        batch = LabeledDataset(rng.standard_normal((1, 16)), np.array([c]), 6)
        upd = local_train(model, batch, epochs=1, lr=0.05, batch_size=4, seed=0)
        u = class_indicator(recover_last_layer_gradient(upd, model.shapes, 0.05))
        assert int(np.argmax(u)) == c


def test_indicator_two_class_client():
    # client holding only classes {2, 7}: after 5 local epochs the two
    # largest indicator entries are exactly those classes
    means = class_means(10, 32, seed=2)
    ds = gen_dataset(10, 32, 40, seed=5, means=means)
    keep = np.isin(ds.labels, (2, 7))
    model = init_model([32, 64, 10], seed=3, zero_last=True)
    upd = local_train(model, ds.subset(np.flatnonzero(keep)),
                      epochs=5, lr=0.05, batch_size=64, seed=1)
    u = class_indicator(recover_last_layer_gradient(upd, model.shapes, 0.05))
    assert set(np.argsort(u)[-2:]) == {2, 7}


def test_infer_column_modes():
    u = np.zeros(10)
    u[0] = 5.0
    assert np.array_equal(infer_column(u, "mean", 0.0),
                          np.array([1, 0, 0, 0, 0, 0, 0, 0, 0, 0], dtype=np.uint8))
    # constant vector: nothing strictly exceeds the mean
    assert np.all(infer_column(np.full(10, 3.3), "mean", 0.0) == 0)
    assert np.array_equal(infer_column(np.array([1.0, 2.0, 3.0]), "absolute", 2.0),
                          np.array([0, 0, 1], dtype=np.uint8))
    v = np.array([10.0, 0.0, 0.0, 0.0])
    assert np.array_equal(infer_column(v, "mean_plus_std", 0.0),
                          np.array([1, 0, 0, 0], dtype=np.uint8))


def test_inference_config_validation():
    # the inference knobs are checked where the config is built
    with pytest.raises(ConfigError, match="threshold_mode"):
        SimConfig(threshold_mode="quantile")
    with pytest.raises(ConfigError):
        SimConfig(lr_client=0.0)
    with pytest.raises(ConfigError, match="beta"):
        SimConfig(beta=float("inf"), threshold_mode="absolute")
    with pytest.raises(ConfigError, match="beta"):
        SimConfig(beta=float("nan"), threshold_mode="absolute")


def test_distribution_accuracy_definition():
    A = np.array([[1, 0], [0, 1]], dtype=np.uint8)
    assert distribution_accuracy(A, A) == 1.0
    assert distribution_accuracy(A, 1 - A) == 0.0
    B = A.copy()
    B[0, 0] ^= 1
    assert distribution_accuracy(A, B) == 1 - 1 / 4


def test_indicator_scale_equivariance():
    rng = np.random.default_rng(5)
    G = rng.standard_normal((8, 5))
    u = class_indicator(G)
    assert np.allclose(class_indicator(3.5 * G), 3.5 * u, atol=1e-12)
    assert np.array_equal(infer_column(u, "mean", 0.0), infer_column(7.0 * u, "mean", 0.0))


def test_indicator_permutation_equivariance():
    rng = np.random.default_rng(6)
    G = rng.standard_normal((8, 5))
    perm = rng.permutation(8)
    assert np.array_equal(class_indicator(G[perm]), class_indicator(G)[perm])


def test_infer_matrix_stacks_columns():
    rng = np.random.default_rng(7)
    model = init_model([16, 12, 6], seed=9)
    deltas = []
    for c in (0, 3):
        batch = LabeledDataset(rng.standard_normal((5, 16)), np.full(5, c), 6)
        deltas.append(local_train(model, batch, epochs=1, lr=0.05, batch_size=8, seed=0))
    A_hat = np.stack([
        infer_column(class_indicator(recover_last_layer_gradient(d, model.shapes, 0.05)), "mean", 0.0)
        for d in deltas
    ], axis=1)
    assert A_hat.shape == (6, 2)
    assert A_hat[0, 0] == 1 and A_hat[3, 1] == 1


def test_indicator_rejects_non_finite():
    G = np.zeros((4, 3))
    G[1, 1] = np.nan
    with pytest.raises(ShapeError):
        class_indicator(G)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 12), hidden=st.sampled_from([(), (6,), (6, 5)]),
       lr=st.sampled_from([0.05, 0.3, 2.0]), seed=st.integers(0, 2**32 - 1))
def test_indicators_of_an_update_matrix_equal_one_call_per_row(k, hidden, lr, seed):
    # the defense reads every client's indicator from the round's (k, d) update matrix at once
    model = init_model([8, *hidden, 5], seed=0)
    shapes = model.shapes
    U = np.random.default_rng(seed).standard_normal((k, model.dim))
    G = recover_last_layer_gradient(U, shapes, lr)
    u = class_indicator(G)
    assert G.shape == (k, 5, shapes[-1][1]) and u.shape == (k, 5)
    for i in range(k):
        alone = class_indicator(recover_last_layer_gradient(U[i], shapes, lr))
        assert u[i].tobytes() == alone.tobytes()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 12), m=st.integers(2, 40), mode=st.sampled_from(
    ["mean", "mean_plus_std", "absolute"]), seed=st.integers(0, 2**32 - 1))
def test_infer_column_of_a_matrix_thresholds_each_row_alone(n, m, mode, seed):
    # the defense infers every selected client's column from its (n, m) indicators at once
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((n, m)) * rng.choice([1e-3, 1.0, 1e3], size=(n, 1))
    bits = infer_column(u, mode, 0.5)
    assert bits.shape == (n, m) and bits.dtype == np.uint8
    for i in range(n):
        assert bits[i].tobytes() == infer_column(u[i], mode, 0.5).tobytes()
