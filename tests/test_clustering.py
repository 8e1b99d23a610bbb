"""Balanced overlapping clustering: thresholds, greedy pass, objective."""

import itertools

import numpy as np
import pytest

from fedsim.clustering import (
    ClusterThresholds,
    active_columns,
    compute_thresholds,
    greedy_cluster,
    membership_histograms,
    objective_value,
)
from fedsim.data import gen_dataset, ground_truth_abstract, partition_noniid
from fedsim.errors import ConfigError, ShapeError


def exact_max_kept(A, per_client, per_cluster):
    """Column-DP oracle: maximum memberships keepable under both budgets."""
    m, n = A.shape
    frontier = {(0,) * m: 0}
    for j in range(n):
        avail = list(np.flatnonzero(A[:, j]))
        subsets = []
        for r in range(0, min(per_client, len(avail)) + 1):
            subsets.extend(itertools.combinations(avail, r))
        new = {}
        for state, kept in frontier.items():
            for sub in subsets:
                st = list(state)
                ok = True
                for i in sub:
                    st[i] += 1
                    if st[i] > per_cluster:
                        ok = False
                        break
                if not ok:
                    continue
                key, val = tuple(st), kept + len(sub)
                if new.get(key, -1) < val:
                    new[key] = val
        frontier = new
    return max(frontier.values())


def test_thresholds_all_ones():
    A = np.ones((10, 50), dtype=np.uint8)
    th = compute_thresholds(A)
    assert th.per_client == 10 and th.per_cluster == 50


def test_thresholds_uniform_five_classes():
    A = np.zeros((10, 50), dtype=np.uint8)
    for j in range(50):
        A[(j % 2) * 5:(j % 2) * 5 + 5, j] = 1  # every client claims exactly 5
    th = compute_thresholds(A)
    assert th.per_client == 5 and th.per_cluster == 25


def test_thresholds_boundary_client_counts_full_share():
    # a client claiming exactly per_client classes contributes per_client
    A = np.zeros((4, 3), dtype=np.uint8)
    A[:2, 0] = 1   # m_j = 2
    A[:2, 1] = 1   # m_j = 2
    A[:3, 2] = 1   # m_j = 3 -> mean 2.33 -> per_client 2
    th = compute_thresholds(A)
    assert th.per_client == 2
    # min(m_j, 2) sums to 6 over 4 classes -> floor 1.5 = 1
    assert th.per_cluster == 1


def test_thresholds_match_independent_formula_on_desk_partition():
    ds = gen_dataset(10, 32, 1000, seed=1)
    parts = partition_noniid(ds, 50, p=0.4, shards=250, seed=7)
    A = ground_truth_abstract(parts, tau=20)
    th = compute_thresholds(A)
    # independent evaluation, written from the formula rather than the code
    m_j = [int(A[:, j].sum()) for j in range(50) if A[:, j].sum() > 0]
    m_th = int(np.floor(sum(m_j) / len(m_j)))
    budget = sum(m_th if mj > m_th else mj if mj < m_th else m_th for mj in m_j)
    n_th = budget // 10
    assert th.per_client == max(1, m_th)
    assert th.per_cluster == max(1, n_th)


def test_thresholds_exclude_empty_clients():
    A = np.ones((4, 5), dtype=np.uint8)
    A[:, 2] = 0
    th = compute_thresholds(A)
    assert th.per_client == 4
    assert np.array_equal(active_columns(A), np.array([1, 1, 0, 1, 1], dtype=bool))
    with pytest.raises(ConfigError):
        compute_thresholds(np.zeros((3, 3), dtype=np.uint8))


def test_thresholds_validation():
    with pytest.raises(ConfigError):
        ClusterThresholds(0, 1)


def test_greedy_feasible_start_untouched():
    A = np.ones((10, 50), dtype=np.uint8)
    x = greedy_cluster(A, ClusterThresholds(per_client=10, per_cluster=50))
    assert np.array_equal(x, A)


def test_greedy_tiny_instance_among_valid_optima():
    A = np.ones((2, 3), dtype=np.uint8)
    th = ClusterThresholds(per_client=1, per_cluster=1)
    x = greedy_cluster(A, th)
    # brute force all valid assignments
    valid = []
    for bits in itertools.product((0, 1), repeat=6):
        cand = np.array(bits, dtype=np.uint8).reshape(2, 3)
        if np.all(cand <= A) and cand.sum(axis=1).max() <= 1 and cand.sum(axis=0).max() <= 1:
            valid.append(cand)
    assert any(np.array_equal(x, v) for v in valid)
    assert x.sum() <= 2


def test_greedy_deterministic_tiebreak():
    A = np.ones((2, 2), dtype=np.uint8)
    x = greedy_cluster(A, ClusterThresholds(per_client=1, per_cluster=1))
    # row 0 drops the lowest-index max column, then row 1 drops column 1
    assert np.array_equal(x, np.array([[0, 1], [1, 0]], dtype=np.uint8))


def test_greedy_budgets_on_random_instances():
    rng = np.random.default_rng(99)
    for _ in range(200):
        m = int(rng.integers(2, 13))
        n = int(rng.integers(2, 61))
        A = (rng.random((m, n)) < rng.uniform(0.2, 0.9)).astype(np.uint8)
        if not active_columns(A).any():
            continue
        th = compute_thresholds(A)
        x = greedy_cluster(A, th)
        assert np.all(x <= A)
        assert x.sum(axis=1).max() <= th.per_cluster
        assert x.sum(axis=0).max() <= th.per_client
        assert np.array_equal(x, greedy_cluster(A, th))  # deterministic


def test_objective_trivial_values():
    A = np.array([[1, 1], [0, 1]], dtype=np.uint8)
    assert objective_value(A, A) == 0
    assert objective_value(A, np.zeros_like(A)) == int(A.sum())
    with pytest.raises(ConfigError):
        objective_value(A, np.ones_like(A))
    with pytest.raises(ShapeError):
        objective_value(A, np.zeros((3, 3), dtype=np.uint8))


def test_greedy_matches_exact_optimum_on_small_instances():
    # 200 random instances (m <= 4, n <= 6) against the column-DP oracle;
    # recorded slack for this fixed seed is 0, spec envelope is +2
    rng = np.random.default_rng(2024)
    gaps = []
    while len(gaps) < 200:
        m = int(rng.integers(2, 5))
        n = int(rng.integers(2, 7))
        A = (rng.random((m, n)) < 0.6).astype(np.uint8)
        if not active_columns(A).any():
            continue
        th = compute_thresholds(A)
        greedy_removed = objective_value(A, greedy_cluster(A, th))
        active = active_columns(A)
        opt_removed = int(A.sum()) - int(A[:, ~active].sum()) - exact_max_kept(
            A[:, active], th.per_client, th.per_cluster)
        assert greedy_removed >= opt_removed
        gaps.append(greedy_removed - opt_removed)
    assert max(gaps) <= 2
    assert max(gaps) == 0  # recorded value for this instance set


def test_membership_histograms():
    x = np.array([[1, 0, 1], [1, 1, 0]], dtype=np.uint8)
    sizes, memberships = membership_histograms(x)
    assert list(sizes) == [2, 2]
    assert list(memberships) == [2, 1, 1]
