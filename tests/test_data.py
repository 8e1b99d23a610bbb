"""Data generation, partitioning, sufficiency matrix, triggers."""

import numpy as np
import pytest

from fedsim.config import SimConfig
from fedsim.data import (
    MEAN_SEPARATION,
    QUIET_DIMS,
    LabeledDataset,
    TriggerPattern,
    class_means,
    concat_datasets,
    gen_dataset,
    ground_truth_abstract,
    partition_noniid,
)
from fedsim.errors import ConfigError


def sorted_rows(ds):
    order = np.lexsort(np.vstack([ds.samples.T, ds.labels]))
    return ds.samples[order], ds.labels[order]


def test_gen_counts_and_shape():
    ds = gen_dataset(10, 32, 100, seed=0, means=class_means(10, 32, 0))
    assert ds.samples.shape == (1000, 32)
    assert np.all(ds.class_counts() == 100)


def test_gen_deterministic():
    a = gen_dataset(10, 32, 50, seed=3, means=class_means(10, 32, 3))
    b = gen_dataset(10, 32, 50, seed=3, means=class_means(10, 32, 3))
    assert np.array_equal(a.samples, b.samples) and np.array_equal(a.labels, b.labels)


def test_means_separation_and_quiet_dims():
    mu = class_means(10, 32, seed=1)
    d2 = ((mu[:, None, :] - mu[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    assert np.sqrt(d2.min()) >= 2.0          # contract: at least 2 sigma apart
    assert abs(np.sqrt(d2.min()) - MEAN_SEPARATION) < 1e-9
    assert np.all(mu[:, :QUIET_DIMS] == 0.0)


def test_shared_means_across_splits():
    mu = class_means(10, 32, seed=5)
    train = gen_dataset(10, 32, 50, seed=1, means=mu)
    test = gen_dataset(10, 32, 20, seed=2, means=mu)
    mu_err = 2 * np.sqrt(32 / 20)  # ~3 sigma of an empirical 32-d mean over 20 draws
    for c in range(10):
        tr = train.samples[train.labels == c].mean(axis=0)
        te = test.samples[test.labels == c].mean(axis=0)
        assert np.linalg.norm(tr - te) < 2 * mu_err  # both center on the same mean


def softmax_regression_train_acc(ds, epochs=20, lr=0.5, bs=64):
    """Independent linear oracle: plain softmax regression."""
    m, d = ds.num_classes, ds.samples.shape[1]
    W = np.zeros((m, d))
    b = np.zeros(m)
    onehot = np.eye(m)[ds.labels]
    for _ in range(epochs):
        for s in range(0, ds.size, bs):
            x, y = ds.samples[s:s + bs], onehot[s:s + bs]
            z = x @ W.T + b
            z -= z.max(axis=1, keepdims=True)
            p = np.exp(z)
            p /= p.sum(axis=1, keepdims=True)
            g = (p - y) / len(x)
            W -= lr * (g.T @ x)
            b -= lr * g.sum(axis=0)
    return float(np.mean((ds.samples @ W.T + b).argmax(axis=1) == ds.labels))


def test_task_linearly_learnable():
    ds = gen_dataset(10, 32, 1000, seed=1, means=class_means(10, 32, 1))
    assert softmax_regression_train_acc(ds) >= 0.9


def test_partition_uniform_case():
    ds = gen_dataset(10, 32, 1000, seed=2, means=class_means(10, 32, 2))
    parts = partition_noniid(ds, 50, p=0.0, shards=250, seed=0)
    sizes = np.array([p.size for p in parts])
    assert np.all(sizes == 200)
    counts = np.stack([p.class_counts() for p in parts])
    assert np.max(np.abs(counts - 20)) < 20  # multinomial fluctuation only


def test_partition_fully_skewed_degenerate():
    ds = gen_dataset(10, 16, 100, seed=4, means=class_means(10, 16, 4))
    parts = partition_noniid(ds, 10, p=1.0, shards=10, seed=0)
    for part in parts:
        assert np.unique(part.labels).size == 1


def test_partition_desk_totals_and_dominance():
    ds = gen_dataset(10, 32, 1000, seed=1, means=class_means(10, 32, 1))
    parts = partition_noniid(ds, 50, p=0.4, shards=250, seed=7)
    assert all(p.size == 200 for p in parts)
    col_sums = ground_truth_abstract(parts, tau=20).sum(axis=0)
    assert col_sums.min() >= 1 and col_sums.max() <= 10


@pytest.mark.parametrize("p", [0.0, 0.3, 0.7, 1.0])
def test_partition_conservation(p):
    ds = gen_dataset(6, 12, 60, seed=5, means=class_means(6, 12, 5))
    parts = partition_noniid(ds, 6, p=p, shards=12, seed=11)
    union = concat_datasets(parts)
    xs, ys = sorted_rows(union)
    xs0, ys0 = sorted_rows(ds)
    assert np.array_equal(xs, xs0) and np.array_equal(ys, ys0)


def test_partition_monotone_skew():
    ds = gen_dataset(10, 32, 500, seed=6, means=class_means(10, 32, 6))
    for seed in (1, 2, 3):
        spreads = []
        for p in (0.0, 0.4, 0.8, 1.0):
            parts = partition_noniid(ds, 50, p=p, shards=250, seed=seed)
            spreads.append(np.mean([np.std(pt.class_counts()) for pt in parts]))
        assert all(a <= b + 1e-9 for a, b in zip(spreads, spreads[1:]))


def test_partition_shard_divisibility_error():
    # partition_noniid trusts its shard count; the config that supplies it
    # rejects shards that do not split evenly over the clients
    with pytest.raises(ConfigError, match=r"^shards \(251\) must be divisible by n_clients \(50\)$"):
        SimConfig(n_clients=50, shards=251)


def test_ground_truth_trivial_cases():
    ds = gen_dataset(10, 32, 500, seed=2, means=class_means(10, 32, 2))
    parts = partition_noniid(ds, 10, p=0.0, shards=50, seed=0)
    assert np.all(ground_truth_abstract(parts, tau=0) == 1)
    assert np.all(ground_truth_abstract(parts, tau=10_000) == 0)


def test_ground_truth_matches_counting_oracle():
    ds = gen_dataset(10, 32, 500, seed=3, means=class_means(10, 32, 3))
    parts = partition_noniid(ds, 25, p=0.5, shards=50, seed=1)
    A = ground_truth_abstract(parts, tau=30)
    assert A.dtype == np.uint8 and A.shape == (10, 25)
    for j, part in enumerate(parts):
        for i in range(10):
            assert A[i, j] == (int(np.sum(part.labels == i)) > 30)


def test_trigger_idempotent():
    rng = np.random.default_rng(0)
    trig = TriggerPattern((0, 3), (1.5, -1.5), 0)
    x = rng.standard_normal((5, 8))
    once = trig.apply(x)
    assert np.array_equal(trig.apply(once), once)


def test_trigger_parts_contiguous():
    trig = TriggerPattern((0, 1, 2, 3), (1.0, 2.0, 3.0, 4.0), 0)
    a = trig.part(2, 0)
    b = trig.part(2, 1)
    assert a.indices == (0, 1) and a.values == (1.0, 2.0)
    assert b.indices == (2, 3) and b.values == (3.0, 4.0)
    whole = trig.part(1, 0)
    assert whole.indices == trig.indices and whole.values == trig.values


def test_triggered_samples_on_clean_model_rarely_hit_target():
    # no-attack floor: a model that never saw the trigger should almost
    # never send triggered samples to the target label
    ds = gen_dataset(10, 32, 400, seed=1, means=class_means(10, 32, 1))
    m, d = 10, 32
    W = np.zeros((m, d))
    b = np.zeros(m)
    onehot = np.eye(m)[ds.labels]
    for _ in range(20):
        for s in range(0, ds.size, 64):
            x, y = ds.samples[s:s + 64], onehot[s:s + 64]
            z = x @ W.T + b
            z -= z.max(axis=1, keepdims=True)
            p = np.exp(z)
            p /= p.sum(axis=1, keepdims=True)
            g = (p - y) / len(x)
            W -= 0.5 * (g.T @ x)
            b -= 0.5 * g.sum(axis=0)
    trig = TriggerPattern((0, 1, 2, 3), (3.0, -3.0, 3.0, -3.0), 0)
    probe = gen_dataset(10, 32, 20, seed=9, means=class_means(10, 32, 1))
    keep = probe.labels != trig.target_label
    triggered = trig.apply(probe.samples[keep][:100])
    pred = (triggered @ W.T + b).argmax(axis=1)
    floor = float(np.mean(pred == trig.target_label))
    assert floor < 0.05

