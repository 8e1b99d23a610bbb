"""Reference aggregators against brute-force oracles."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedsim
from fedsim import baselines
from fedsim.baselines import (
    coordinate_median,
    fedavg,
    fltrust,
    krum,
    trimmed_mean,
)
from fedsim.config import SimConfig
from fedsim.errors import ConfigError
from fedsim.harness import run_experiment
from test_golden import _DIGEST_SCRIPT, CASES, PARAMS_DIGESTS


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
    assert np.array_equal(fedavg(np.stack([u])), u)
    assert np.allclose(fedavg(np.stack([u, -u])), 0.0, atol=1e-15)


def test_fedavg_matches_mean_oracle():
    rng = np.random.default_rng(0)
    ups = rand_updates(rng, 5)
    naive = sum(ups) / 5
    assert np.max(np.abs(fedavg(np.stack(ups)) - naive)) < 1e-12


def test_krum_excludes_outlier():
    rng = np.random.default_rng(1)
    center = rng.standard_normal(8)
    group = [center + 1e-3 * rng.standard_normal(8) for _ in range(4)]
    outlier = center + 100.0
    out = krum(np.stack(group + [outlier]), f=1)
    assert any(np.array_equal(out, g) for g in group)


def test_krum_tie_returns_lowest_index():
    ups = [np.ones(4)] * 5
    assert np.array_equal(krum(np.stack(ups), f=1), ups[0])


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
    assert np.array_equal(krum(np.stack(ups), f), expected)


def broadcast_krum(updates, f):
    """Krum with the full n x n x d broadcast for its distances."""
    mat = np.stack(updates)
    n = mat.shape[0]
    sq = ((mat[:, None, :] - mat[None, :, :]) ** 2).sum(axis=2)
    scores = np.empty(n)
    for i in range(n):
        d = np.delete(sq[i], i)
        d.sort()
        scores[i] = d[: n - f - 2].sum()
    return mat[int(np.argmin(scores))].copy()


@pytest.mark.parametrize("attack", ["basic", "sybil"])  # sybil sends exact duplicates
def test_krum_bit_identical_to_broadcast_on_run_traffic(attack, monkeypatch):
    calls = []
    orig = baselines.krum

    def spy(updates, f):
        out = orig(updates, f)
        calls.append((list(updates), f, out))
        return out

    monkeypatch.setattr(baselines, "krum", spy)
    run_experiment(SimConfig(n_clients=500, shards=500, num_malicious=50, rounds=2,
                             aggregator="krum", attack=attack))
    assert len(calls) == 2
    for updates, f, out in calls:
        assert len(updates) == 100
        assert out.tobytes() == broadcast_krum(updates, f).tobytes()


@settings(max_examples=60, deadline=None)
@given(f=st.integers(0, 3), extra=st.integers(0, 6), d=st.integers(1, 40),
       seed=st.integers(0, 2**32 - 1), dups=st.integers(0, 4),
       spread=st.sampled_from([1e-3, 1.0]), offset=st.sampled_from([0.0, 1e6]))
def test_krum_bit_identical_to_broadcast_property(f, extra, d, seed, dups, spread, offset):
    rng = np.random.default_rng(seed)
    n = 2 * f + 3 + extra
    mat = spread * rng.standard_normal((n, d)) * rng.choice([1.0, 1e3], size=(n, 1))
    # a shared far-off center makes distances tiny next to the norms: near-ties
    # that any reformulated distance (the Gram identity) rounds differently
    mat += offset * rng.standard_normal(d)
    for _ in range(dups):  # exact copies tie on distance, as sybils do
        mat[rng.integers(n)] = mat[rng.integers(n)]
    assert krum(mat, f).tobytes() == broadcast_krum(list(mat), f).tobytes()


def exact_scores(mat, f):
    """Each row's Krum score from the full n x n x d broadcast's distances."""
    n = mat.shape[0]
    sq = ((mat[:, None, :] - mat[None, :, :]) ** 2).sum(axis=2)
    return np.array([np.sort(np.delete(sq[i], i))[: n - f - 2].sum() for i in range(n)])


def screened_updates(f, extra, d, seed, dups, offset):
    """Rows at mixed 1e-3, 1 and 1e3 scales around a shared center, some of them copies."""
    rng = np.random.default_rng(seed)
    n = 2 * f + 3 + extra
    mat = rng.standard_normal((n, d)) * rng.choice([1e-3, 1.0, 1e3], size=(n, 1))
    mat += offset * rng.standard_normal(d)
    for _ in range(dups):
        mat[rng.integers(n)] = mat[rng.integers(n)]
    return mat


SCREEN_DRAWS = dict(f=st.integers(0, 3), extra=st.integers(0, 6), d=st.integers(1, 40),
                    seed=st.integers(0, 2**32 - 1), dups=st.integers(0, 4),
                    offset=st.sampled_from([0.0, 1.0, 1e6]))


@settings(max_examples=200, deadline=None)
@given(**SCREEN_DRAWS)
def test_krum_gram_interval_holds_the_exact_score(f, extra, d, seed, dups, offset):
    # a far-off center leaves distances tiny next to the norms, where the Gram
    # identity loses the most digits
    mat = screened_updates(f, extra, d, seed, dups, offset)
    scores, bound = baselines._gram_screen(mat, f)
    exact = exact_scores(mat, f)
    assert np.isfinite(bound).all()
    assert ((scores - bound <= exact) & (exact <= scores + bound)).all()


@settings(max_examples=60, deadline=None)
@given(**SCREEN_DRAWS)
def test_krum_screen_keeps_every_row_when_the_squares_overflow(f, extra, d, seed, dups, offset):
    z = screened_updates(f, extra, d, seed, dups, offset)
    mat = np.copysign(1e155, z) + 1e150 * z  # every square exceeds the float64 range
    scores, bound = baselines._gram_screen(mat, f)
    assert not (scores - bound > np.min(scores + bound)).any()
    with np.errstate(over="ignore"):
        assert krum(mat, f).tobytes() == broadcast_krum(list(mat), f).tobytes()


def test_krum_golden_digests_at_one_and_two_blas_threads():
    # the Gram screen runs a BLAS-3 kernel whose summation order follows the thread
    # count, and the thread count is read once, when numpy loads
    names = ["krum-basic", "krum-sybil"]
    configs = json.dumps([{"rounds": 4, **CASES[name]} for name in names])
    src = str(Path(fedsim.__file__).resolve().parents[1])
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src,
               **dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"),
                               threads)}
        out = subprocess.run([sys.executable, "-c", _DIGEST_SCRIPT, configs], env=env,
                             capture_output=True, text=True, timeout=300, check=True).stdout
        assert out.split() == [PARAMS_DIGESTS[name] for name in names], f"{threads} BLAS threads"


def test_krum_memory_is_linear_in_n():
    ups = np.random.default_rng(3).standard_normal((100, 2762))
    tracemalloc.start()
    try:
        krum(ups, f=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the n x n x d broadcast alone would be 221 MB
    assert peak < 16 * 2**20


def test_krum_population_check():
    # 6 clients per round are too few for f=2 (needs 2f+3 = 7); at exactly
    # 2f+3 an honest update's f+1 nearest peers are honest, so it scores 0
    with pytest.raises(ConfigError, match="krum needs"):
        SimConfig(n_clients=30, shards=30, aggregator="krum", agg_f=2)
    SimConfig(n_clients=35, shards=35, aggregator="krum", agg_f=2)
    honest = np.array([0.5, -1.0, 2.0])
    ups = [np.full(3, -40.0), *[honest.copy() for _ in range(5)], np.full(3, 40.0)]
    assert np.array_equal(krum(np.stack(ups), f=2), honest)


def test_median_small_cases():
    ups = [np.array([1.0, 5.0]), np.array([2.0, -1.0]), np.array([3.0, 100.0])]
    assert np.array_equal(coordinate_median(np.stack(ups)), np.array([2.0, 5.0]))
    outliers = [np.zeros(3), np.zeros(3), np.full(3, 100.0)]
    assert np.array_equal(coordinate_median(np.stack(outliers)), np.zeros(3))


def test_median_matches_sort_oracle():
    rng = np.random.default_rng(3)
    ups = rand_updates(rng, 6)
    mat = np.stack(ups)
    expected = np.sort(mat, axis=0)[2:4].mean(axis=0)
    assert np.max(np.abs(coordinate_median(np.stack(ups)) - expected)) < 1e-15


def test_trim_zero_equals_fedavg():
    rng = np.random.default_rng(4)
    ups = np.stack(rand_updates(rng, 5))
    assert np.array_equal(trimmed_mean(ups, f=0), fedavg(ups))


def test_trim_to_median_identity():
    rng = np.random.default_rng(5)
    ups = np.stack(rand_updates(rng, 5))
    assert np.allclose(trimmed_mean(ups, f=2), coordinate_median(ups), atol=1e-15)


def test_trim_matches_sort_drop_oracle():
    rng = np.random.default_rng(6)
    ups = rand_updates(rng, 10)
    f = 3
    expected = np.sort(np.stack(ups), axis=0)[f:-f].mean(axis=0)
    assert np.max(np.abs(trimmed_mean(np.stack(ups), f) - expected)) < 1e-15


def test_fltrust_aligned_client_passthrough():
    server = np.array([1.0, 2.0, 0.5])
    assert np.allclose(fltrust(np.stack([server.copy()]), server), server, atol=1e-12)


def test_fltrust_opposed_client_excluded():
    server = np.array([1.0, 0.0])
    aligned = np.array([2.0, 0.0])
    opposed = np.array([-3.0, 0.0])
    out = fltrust(np.stack([aligned, opposed]), server)
    # only the aligned client contributes, rescaled to the server norm
    assert np.allclose(out, server, atol=1e-12)
    # all clients opposed: fall back to the server update
    assert np.allclose(fltrust(np.stack([opposed]), server), server, atol=1e-12)


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
    assert np.max(np.abs(fltrust(np.stack(ups), server) - expected)) < 1e-10


def test_permutation_invariance():
    rng = np.random.default_rng(8)
    ups = rand_updates(rng, 6)
    perm = [3, 1, 5, 0, 4, 2]
    ups, shuffled = np.stack(ups), np.stack([ups[i] for i in perm])
    assert np.allclose(fedavg(ups), fedavg(shuffled), atol=1e-12)
    assert np.allclose(coordinate_median(ups), coordinate_median(shuffled), atol=1e-15)
    assert np.allclose(trimmed_mean(ups, 2), trimmed_mean(shuffled, 2), atol=1e-15)
    server = rng.standard_normal(12)
    assert np.allclose(fltrust(ups, server), fltrust(shuffled, server), atol=1e-12)


def test_robustness_smoke():
    rng = np.random.default_rng(9)
    honest = [rng.standard_normal(10) for _ in range(7)]
    outliers = [np.full(10, 100.0) for _ in range(3)]
    ups = np.stack(honest + outliers)
    honest_mean = np.mean(honest, axis=0)
    for robust in (coordinate_median(ups), trimmed_mean(ups, 3), krum(ups, 3)):
        assert np.linalg.norm(robust - honest_mean) < 3 * np.sqrt(10)
    assert np.linalg.norm(fedavg(ups) - honest_mean) > 3 * np.sqrt(10)
