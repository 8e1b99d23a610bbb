"""Model core: shapes, forward, analytic gradients, local SGD."""

import contextlib
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim import model as fedsim_model
from fedsim.data import LabeledDataset
from fedsim.errors import ShapeError, TrainingError
from fedsim.model import (
    ModelParams,
    _layer_views,
    epoch_batches,
    forward,
    init_model,
    last_layer_weight_block,
    local_train,
    loss_and_grad,
    param_dim,
    representation,
    sgd_train,
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
    # the views are built once, so .flat cannot be rebound; writes into it still land
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.flat = np.zeros(param_dim(shapes))
    model.flat[:15] = -1.0
    assert np.all(model.layers()[0][0] == -1.0)


def test_stacked_layer_views_keep_the_leading_axes():
    shapes = [(5, 3), (2, 5)]
    stack = ModelParams(np.arange(3 * 4 * param_dim(shapes), dtype=float).reshape(3, 4, -1), shapes)
    assert stack.dim == param_dim(shapes)
    for (w, b), (rows, cols) in zip(stack.layers(), shapes):
        assert w.shape == (3, 4, rows, cols) and b.shape == (3, 4, rows)
        assert np.shares_memory(w, stack.flat) and np.shares_memory(b, stack.flat)
    one = ModelParams(stack.flat[2, 1], shapes)
    for (w, b), (w1, b1) in zip(stack.layers(), one.layers()):
        assert np.array_equal(w[2, 1], w1) and np.array_equal(b[2, 1], b1)
    with pytest.raises(ShapeError):
        ModelParams(np.zeros((3, param_dim(shapes) + 1)), shapes)


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
        theta = ModelParams(model.flat.copy(), model.shapes)
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
    with pytest.raises(TrainingError):
        local_train(model, LabeledDataset(np.zeros((0, 8)), np.zeros(0, dtype=int), 4),
                    epochs=1, lr=0.1, batch_size=4, seed=0)


@pytest.mark.parametrize("x, y, rngs", [
    (np.zeros(8), np.array([0]), None),                 # 1-D inputs
    (np.zeros((1, 8)), np.array([[0]]), None),          # 2-D labels
    (np.zeros((2, 8)), np.array([0]), None),            # lengths differ
    (np.zeros((1, 7)), np.array([0]), None),            # width differs from the model's
    (np.zeros((1, 8)), np.array([4]), None),            # label beyond the class count
    (np.zeros((1, 8)), np.array([0]), [np.random.default_rng(s) for s in range(2)]),
])
def test_sgd_train_rejects_a_bad_stack_before_any_step(x, y, rngs):
    # one model's data as a stack of one; with no epochs no step is taken, so the
    # error can only come from the check of the whole call
    with pytest.raises(ShapeError):
        sgd_train(init_model([8, 6, 4], seed=3), x[None], y[None], 0, 0.1, 4, rngs)


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


def test_local_train_returns_a_non_finite_update_unchecked():
    # the round loop's row check names the client; local_train only trains
    rng = np.random.default_rng(12)
    model = init_model([8, 6, 4], seed=3)
    with np.errstate(over="ignore", invalid="ignore"):
        delta = local_train(model, rand_batch(rng, 10, 8, 4), epochs=2, lr=1e200, batch_size=4,
                            seed=0)
    assert delta.shape == (model.dim,)
    assert not np.isfinite(delta).all()


def test_last_layer_weight_block_view():
    model = init_model([8, 6, 4], seed=5)
    block = last_layer_weight_block(model.flat, model.shapes)
    assert np.array_equal(block, model.layers()[-1][0])
    block += 1.0  # writes land in the flat vector, as forge_full_claim relies on
    assert np.array_equal(model.layers()[-1][0], block)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 50), batch_size=st.integers(1, 60), epochs=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_epoch_batches_cut_one_fresh_permutation_per_epoch(n, batch_size, epochs, seed):
    rngs = [np.random.default_rng(seed + k) for k in range(3)]
    twins = [np.random.default_rng(seed + k) for k in range(3)]
    for _ in range(epochs):
        batches = epoch_batches(n, batch_size, rngs)
        if n <= batch_size:
            # the data as given, and no draw from any generator
            assert batches == [slice(None)]
            assert [g.bit_generator.state for g in rngs] == [g.bit_generator.state for g in twins]
        else:
            assert all(models.ravel().tolist() == [0, 1, 2] for models, _ in batches)
            assert all(records.shape == (3, batch_size) for _, records in batches[:-1])
            rows = np.concatenate([records for _, records in batches], axis=1)
            for row, twin in zip(rows, twins):
                assert row.tolist() == twin.permutation(n).tolist()


# a stack of models is K models side by side: every oracle below compares it
# byte for byte with one model at a time
STACKS = dict(k=st.integers(1, 5), n=st.integers(1, 12),
              hidden=st.sampled_from([(), (6,), (6, 5)]), seed=st.integers(0, 2**32 - 1))


def stack_case(k, n, hidden, seed):
    rng = np.random.default_rng(seed)
    datasets = [rand_batch(rng, n, 8, 4) for _ in range(k)]
    return init_model([8, *hidden, 4], seed=seed), datasets


# sgd_train's block size, drawn small so that a stack of up to five models crosses block
# boundaries; None keeps the trainer's own
BLOCKS = st.none() | st.integers(1, 3)


@contextlib.contextmanager
def blocks_of(rows):
    """sgd_train with blocks of at most `rows` models, or of its own size when None."""
    with pytest.MonkeyPatch.context() as mp:
        if rows is not None:
            mp.setattr(fedsim_model, "_BLOCK_ROWS", rows)
        yield


@settings(max_examples=60, deadline=None)
@given(**STACKS)
def test_stacked_loss_and_grad_equals_one_call_per_model(k, n, hidden, seed):
    model, datasets = stack_case(k, n, hidden, seed)
    rng = np.random.default_rng(seed + 1)
    # k distinct models, one batch each
    flats = model.flat + 0.3 * rng.standard_normal((k, model.dim))
    stack = ModelParams(flats, model.shapes)
    x = np.stack([d.samples for d in datasets])
    y = np.stack([d.labels for d in datasets])
    loss, grad = loss_and_grad(stack, x, y)
    assert loss.shape == (k,) and grad.shape == (k, model.dim)
    for i, data in enumerate(datasets):
        loss_i, grad_i = loss_and_grad(ModelParams(flats[i], model.shapes), data.samples, data.labels)
        assert loss[i] == loss_i
        assert grad[i].tobytes() == grad_i.tobytes()


@settings(max_examples=60, deadline=None)
@given(**STACKS, extra=st.integers(0, 60), epochs=st.integers(1, 4), block=BLOCKS)
def test_sgd_train_stack_rows_equal_local_train_alone(k, n, hidden, seed, extra, epochs, block):
    model, datasets = stack_case(k, n, hidden, seed)
    lr = 0.3
    x = np.stack([d.samples for d in datasets])
    y = np.stack([d.labels for d in datasets])
    # any batch size that holds the whole dataset trains it in one step per epoch
    with blocks_of(block):
        rows = sgd_train(model, x, y, epochs, lr, n + extra, None)
    assert rows.shape == (k, model.dim)
    for row, data in zip(rows, datasets):
        assert row.tobytes() == local_train(model, data, epochs, lr, n + extra, seed).tobytes()
        # and that step is plain full-batch SGD written out with one-model calls
        theta, delta = ModelParams(model.flat.copy(), model.shapes), np.zeros(model.dim)
        for _ in range(epochs):
            _, grad = loss_and_grad(theta, data.samples, data.labels)
            delta = delta - lr * grad
            theta = ModelParams(model.flat + delta, model.shapes)
        assert row.tobytes() == delta.tobytes()


def test_sgd_train_stack_takes_one_generator_per_model():
    # each model of a stack beyond one batch draws its own permutation, so it needs K generators
    rng = np.random.default_rng(13)
    model = init_model([8, 6, 4], seed=3)
    x, y = rng.standard_normal((2, 10, 8)), rng.integers(0, 4, (2, 10))

    def generators(k):
        return [np.random.default_rng(s) for s in range(k)]

    assert sgd_train(model, x, y, 1, 0.1, 9, generators(2)).shape == (2, model.dim)
    for rngs in (None, generators(1), generators(3)):
        with pytest.raises(ShapeError, match="one generator per model"):
            sgd_train(model, x, y, 1, 0.1, 9, rngs)
    # a one-batch stack draws nothing, so it takes None, and K generators stay untouched
    assert sgd_train(model, x, y, 1, 0.1, 10, None).shape == (2, model.dim)
    rngs = generators(2)
    states = [g.bit_generator.state for g in rngs]
    assert sgd_train(model, x, y, 1, 0.1, 10, rngs).shape == (2, model.dim)
    assert [g.bit_generator.state for g in rngs] == states
    with pytest.raises(ShapeError, match="one generator per model"):
        sgd_train(model, x, y, 1, 0.1, 10, generators(1))


@settings(max_examples=60, deadline=None)
@given(**STACKS, batch_size=st.integers(1, 6), epochs=st.integers(1, 4), block=BLOCKS)
def test_sgd_train_multi_batch_stack_rows_equal_each_model_alone(k, n, hidden, seed, batch_size,
                                                                 epochs, block):
    model, datasets = stack_case(k, n, hidden, seed)
    lr = 0.3
    seeds = [seed + i for i in range(k)]
    x = np.stack([d.samples for d in datasets])
    y = np.stack([d.labels for d in datasets])
    rngs = [np.random.default_rng(s) for s in seeds]
    with blocks_of(block):
        rows = sgd_train(model, x, y, epochs, lr, batch_size, rngs)
    assert rows.shape == (k, model.dim)
    for row, data, s, rng in zip(rows, datasets, seeds, rngs):
        assert row.tobytes() == local_train(model, data, epochs, lr, batch_size, s).tobytes()
        # and that is minibatch SGD written out with one-model calls, one permutation per
        # model per epoch, so each generator ends where the loop's does
        loop_rng = np.random.default_rng(s)
        theta, delta = ModelParams(model.flat.copy(), model.shapes), np.zeros(model.dim)
        for _ in range(epochs):
            order = np.arange(n) if n <= batch_size else loop_rng.permutation(n)
            for start in range(0, n, batch_size):
                idx = order[start:start + batch_size]
                _, grad = loss_and_grad(theta, data.samples[idx], data.labels[idx])
                delta = delta - lr * grad
                theta = ModelParams(model.flat + delta, model.shapes)
        assert row.tobytes() == delta.tobytes()
        assert loop_rng.bit_generator.state == rng.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(**STACKS, batch_size=st.integers(1, 6), epochs=st.integers(1, 5),
       pull=st.just(0.0) | st.floats(0.0, 1.0), data=st.data(), block=BLOCKS)
def test_sgd_train_resumed_over_calls_equals_one_call(k, n, hidden, seed, batch_size, epochs,
                                                     pull, data, block):
    # epochs split over calls that each resume the delta the last one returned
    model, datasets = stack_case(k, n, hidden, seed)
    x = np.stack([d.samples for d in datasets])
    y = np.stack([d.labels for d in datasets])

    def generators():
        return [np.random.default_rng(seed + i) for i in range(k)]

    def states(rngs):
        return [g.bit_generator.state for g in rngs]

    anchor = 0.1 * np.random.default_rng(seed + 1).standard_normal((k, model.dim))
    whole_rng = generators()
    cuts = data.draw(st.sets(st.integers(1, epochs - 1)) if epochs > 1 else st.just(set()))
    bounds = [0, *sorted(cuts), epochs]
    parts_rng, delta = generators(), None
    with blocks_of(block):
        whole = sgd_train(model, x, y, epochs, 0.3, batch_size, whole_rng, anchor, pull)
        for start, stop in zip(bounds, bounds[1:]):
            before = None if delta is None else delta.tobytes()
            resumed = sgd_train(model, x, y, stop - start, 0.3, batch_size, parts_rng, anchor,
                                pull, delta)
            # resumed on a copy: the delta passed in is left as it was
            assert delta is None or delta.tobytes() == before
            delta = resumed
    assert delta.shape == (k, model.dim)
    assert delta.tobytes() == whole.tobytes()
    assert states(parts_rng) == states(whole_rng)
    # and row i is model i trained alone, pulled toward its own row of the anchor
    for i, alone_rng in enumerate(generators()):
        alone = sgd_train(model, x[i:i + 1], y[i:i + 1], epochs, 0.3, batch_size, [alone_rng],
                          anchor[i:i + 1], pull)
        assert whole[i].tobytes() == alone[0].tobytes()
        assert alone_rng.bit_generator.state == whole_rng[i].bit_generator.state


@pytest.mark.parametrize("batch_size", [64, 7])
def test_sgd_train_stack_across_its_own_blocks_equals_each_model_alone(batch_size):
    # two full blocks of the trainer's own size and one row more, in one batch or several
    k = 2 * fedsim_model._BLOCK_ROWS + 1
    model, datasets = stack_case(k, 20, (6,), 5)
    x = np.stack([d.samples for d in datasets])
    y = np.stack([d.labels for d in datasets])
    rngs = [np.random.default_rng(i) for i in range(k)]
    rows = sgd_train(model, x, y, 3, 0.3, batch_size, rngs)
    for i, (row, data, rng) in enumerate(zip(rows, datasets, rngs)):
        assert row.tobytes() == local_train(model, data, 3, 0.3, batch_size, i).tobytes()
        twin = np.random.default_rng(i)
        if batch_size < 20:
            for _ in range(3):
                twin.permutation(20)
        assert rng.bit_generator.state == twin.bit_generator.state


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 12), n=st.integers(1, 9), hidden=st.sampled_from([(6,), (6, 5)]),
       seed=st.integers(0, 2**32 - 1))
def test_representation_of_a_stack_equals_one_call_per_model(k, n, hidden, seed):
    # the defense's representation vote: one call on theta + U, the (k, d) update matrix
    rng = np.random.default_rng(seed)
    theta = init_model([8, *hidden, 4], seed=seed)
    U = 0.3 * rng.standard_normal((k, theta.dim))
    aux = rand_batch(rng, n, 8, 4)
    reps = representation(ModelParams(theta.flat + U, theta.shapes), aux)
    assert reps.shape == (k, hidden[-1])
    for i in range(k):
        alone = representation(ModelParams(theta.flat + U[i], theta.shapes), aux)
        assert reps[i].tobytes() == alone.tobytes()


# The kernel written with plain numpy expressions and fresh arrays. The in-place
# kernel must do the same floating-point operations in the same order, so its
# results equal these byte for byte.
def reference_softmax(logits):
    """Row-wise softmax with max subtraction for overflow safety."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def reference_forward(layers, x):
    """Logits plus the input of every layer: x, then each hidden ReLU output."""
    acts = [x]
    for w, b in layers[:-1]:
        acts.append(np.maximum(acts[-1] @ w.mT + b[..., None, :], 0.0))
    w_last, b_last = layers[-1]
    return acts[-1] @ w_last.mT + b_last[..., None, :], acts


def reference_loss_and_grad(params, x, y):
    n = x.shape[-2]
    layers = params.layers()
    logits, acts = reference_forward(layers, x)

    probs = reference_softmax(logits)
    m = probs.shape[-1]
    rows, labels = np.arange(y.size), y.reshape(-1)
    # clip only inside the log; the gradient uses the exact probabilities
    picked = probs.reshape(-1, m)[rows, labels].reshape(y.shape)
    loss = -np.mean(np.log(np.maximum(picked, 1e-300)), axis=-1)
    dz = probs  # edited in place: the loss has been read
    dz.reshape(-1, m)[rows, labels] -= 1.0
    dz /= n

    grad = np.empty(params.flat.shape)
    grads = _layer_views(grad, params.shapes)
    for li in range(len(layers) - 1, -1, -1):
        gw, gb = grads[li]
        np.matmul(dz.mT, acts[li], out=gw)
        dz.sum(axis=-2, out=gb)
        if li > 0:
            # a ReLU output is positive exactly where its pre-activation is
            dz = (dz @ layers[li][0]) * (acts[li] > 0.0)
    return (float(loss) if loss.ndim == 0 else loss), grad


@settings(max_examples=120, deadline=None)
@given(lead=st.sampled_from([(), (1,), (2,), (3,), (4,), (5,)]), n=st.integers(1, 9),
       hidden=st.sampled_from([(), (6,), (6, 5)]), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([0.0, 0.5, 5.0, 500.0]), one_class=st.booleans())
def test_kernel_is_byte_for_byte_the_reference(lead, n, hidden, seed, scale, one_class):
    # one model (no leading axis) or a stack of K; a large scale saturates the
    # softmax, so the 1e-300 clip inside the log is taken as well
    rng = np.random.default_rng(seed)
    model = init_model([8, *hidden, 4], seed=seed)
    params = ModelParams(model.flat + scale * rng.standard_normal(lead + (model.dim,)),
                         model.shapes)
    x = rng.standard_normal(lead + (n, 8))
    y = (np.full(lead + (n,), rng.integers(4)) if one_class
         else rng.integers(0, 4, lead + (n,)))
    loss, grad = loss_and_grad(params, x, y)
    ref_loss, ref_grad = reference_loss_and_grad(params, x, y)
    assert type(loss) is type(ref_loss)
    assert np.asarray(loss).tobytes() == np.asarray(ref_loss).tobytes()
    assert grad.tobytes() == ref_grad.tobytes()
    # forward takes one (n, width) batch for every model of the stack
    logits, pen = forward(params, x.reshape(-1, 8))
    ref_logits, ref_acts = reference_forward(params.layers(), x.reshape(-1, 8))
    assert logits.tobytes() == ref_logits.tobytes()
    assert pen.tobytes() == ref_acts[-1].tobytes()
    assert softmax(logits).tobytes() == reference_softmax(logits).tobytes()
