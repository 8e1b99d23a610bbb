"""Reference aggregators against brute-force oracles."""

import numpy as np
import pytest

from fedsim.baselines import (
    coordinate_median,
    fedavg,
    fltrust,
    krum,
    trimmed_mean,
)
from fedsim.config import SimConfig
from fedsim.errors import ConfigError


def rand_updates(rng, n, d=12):
    return [rng.standard_normal(d) for _ in range(n)]


def test_spec_validation():
    # the aggregator and its budget are checked where the config is built
    with pytest.raises(ConfigError):
        SimConfig(aggregator="average")
    with pytest.raises(ConfigError):
        SimConfig(aggregator="krum", agg_f=-1)
    with pytest.raises(ConfigError):
        SimConfig(aggregator="fltrust", aux_classes=0)  # no server data
    SimConfig(aggregator="median", aux_classes=0)


def test_fedavg_identity_and_cancellation():
    u = np.arange(5.0)
    assert np.array_equal(fedavg([u]), u)
    assert np.allclose(fedavg([u, -u]), 0.0, atol=1e-15)


def test_fedavg_matches_mean_oracle():
    rng = np.random.default_rng(0)
    ups = rand_updates(rng, 5)
    naive = sum(ups) / 5
    assert np.max(np.abs(fedavg(ups) - naive)) < 1e-12


def test_krum_excludes_outlier():
    rng = np.random.default_rng(1)
    center = rng.standard_normal(8)
    group = [center + 1e-3 * rng.standard_normal(8) for _ in range(4)]
    outlier = center + 100.0
    out = krum(group + [outlier], f=1)
    assert any(np.array_equal(out, g) for g in group)


def test_krum_tie_returns_lowest_index():
    ups = [np.ones(4)] * 5
    assert np.array_equal(krum(ups, f=1), ups[0])


def test_krum_matches_exhaustive_oracle():
    rng = np.random.default_rng(2)
    ups = rand_updates(rng, 7)
    f = 2
    # independent scoring
    n = len(ups)
    scores = []
    for i in range(n):
        dists = sorted(np.sum((ups[i] - ups[j]) ** 2) for j in range(n) if j != i)
        scores.append(sum(dists[: n - f - 2]))
    expected = ups[int(np.argmin(scores))]
    assert np.array_equal(krum(ups, f), expected)


def test_krum_population_check():
    with pytest.raises(ConfigError):
        krum(rand_updates(np.random.default_rng(0), 6), f=2)  # needs >= 2f+3


def test_median_small_cases():
    ups = [np.array([1.0, 5.0]), np.array([2.0, -1.0]), np.array([3.0, 100.0])]
    assert np.array_equal(coordinate_median(ups), np.array([2.0, 5.0]))
    outliers = [np.zeros(3), np.zeros(3), np.full(3, 100.0)]
    assert np.array_equal(coordinate_median(outliers), np.zeros(3))


def test_median_matches_sort_oracle():
    rng = np.random.default_rng(3)
    ups = rand_updates(rng, 6)
    mat = np.stack(ups)
    expected = np.sort(mat, axis=0)[2:4].mean(axis=0)
    assert np.max(np.abs(coordinate_median(ups) - expected)) < 1e-15


def test_trim_zero_equals_fedavg():
    rng = np.random.default_rng(4)
    ups = rand_updates(rng, 5)
    assert np.array_equal(trimmed_mean(ups, f=0), fedavg(ups))


def test_trim_to_median_identity():
    rng = np.random.default_rng(5)
    ups = rand_updates(rng, 5)
    assert np.allclose(trimmed_mean(ups, f=2), coordinate_median(ups), atol=1e-15)


def test_trim_matches_sort_drop_oracle():
    rng = np.random.default_rng(6)
    ups = rand_updates(rng, 10)
    f = 3
    expected = np.sort(np.stack(ups), axis=0)[f:-f].mean(axis=0)
    assert np.max(np.abs(trimmed_mean(ups, f) - expected)) < 1e-15
    with pytest.raises(ConfigError):
        trimmed_mean(ups[:6], f=3)


def test_fltrust_aligned_client_passthrough():
    server = np.array([1.0, 2.0, 0.5])
    assert np.allclose(fltrust([server.copy()], server), server, atol=1e-12)


def test_fltrust_opposed_client_excluded():
    server = np.array([1.0, 0.0])
    aligned = np.array([2.0, 0.0])
    opposed = np.array([-3.0, 0.0])
    out = fltrust([aligned, opposed], server)
    # only the aligned client contributes, rescaled to the server norm
    assert np.allclose(out, server, atol=1e-12)
    # all clients opposed: fall back to the server update
    assert np.allclose(fltrust([opposed], server), server, atol=1e-12)


def test_fltrust_matches_step_by_step_oracle():
    rng = np.random.default_rng(7)
    ups = rand_updates(rng, 5)
    server = rng.standard_normal(12)
    s_norm = np.linalg.norm(server)
    ts, rescaled = [], []
    for u in ups:
        cos = float(u @ server / (np.linalg.norm(u) * s_norm))
        ts.append(max(cos, 0.0))
        rescaled.append(u * (s_norm / np.linalg.norm(u)))
    expected = sum(t * r for t, r in zip(ts, rescaled)) / sum(ts)
    assert np.max(np.abs(fltrust(ups, server) - expected)) < 1e-10


def test_permutation_invariance():
    rng = np.random.default_rng(8)
    ups = rand_updates(rng, 6)
    perm = [3, 1, 5, 0, 4, 2]
    shuffled = [ups[i] for i in perm]
    assert np.allclose(fedavg(ups), fedavg(shuffled), atol=1e-12)
    assert np.allclose(coordinate_median(ups), coordinate_median(shuffled), atol=1e-15)
    assert np.allclose(trimmed_mean(ups, 2), trimmed_mean(shuffled, 2), atol=1e-15)
    server = rng.standard_normal(12)
    assert np.allclose(fltrust(ups, server), fltrust(shuffled, server), atol=1e-12)


def test_robustness_smoke():
    rng = np.random.default_rng(9)
    honest = [rng.standard_normal(10) for _ in range(7)]
    outliers = [np.full(10, 100.0) for _ in range(3)]
    ups = honest + outliers
    honest_mean = np.mean(honest, axis=0)
    for robust in (coordinate_median(ups), trimmed_mean(ups, 3), krum(ups, 3)):
        assert np.linalg.norm(robust - honest_mean) < 3 * np.sqrt(10)
    assert np.linalg.norm(fedavg(ups) - honest_mean) > 3 * np.sqrt(10)
