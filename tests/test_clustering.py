"""Balanced overlapping clustering: thresholds, greedy pass, objective."""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fedsim.clustering import (
    active_columns,
    compute_thresholds,
    greedy_cluster,
    membership_histograms,
)
from fedsim.data import class_means, gen_dataset, ground_truth_abstract, partition_noniid


def removed(A, x):
    """Memberships of A that the assignment x dropped; x may only drop, never add."""
    assert A.shape == x.shape and np.all(x <= A)
    return int(A.sum()) - int(x.sum())


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
    assert compute_thresholds(A) == (10, 50)


def test_thresholds_uniform_five_classes():
    A = np.zeros((10, 50), dtype=np.uint8)
    for j in range(50):
        A[(j % 2) * 5:(j % 2) * 5 + 5, j] = 1  # every client claims exactly 5
    assert compute_thresholds(A) == (5, 25)


def test_thresholds_boundary_client_counts_full_share():
    # a client claiming exactly per_client classes contributes per_client
    A = np.zeros((4, 3), dtype=np.uint8)
    A[:2, 0] = 1   # m_j = 2
    A[:2, 1] = 1   # m_j = 2
    A[:3, 2] = 1   # m_j = 3 -> mean 2.33 -> per_client 2
    # min(m_j, 2) sums to 6 over 4 classes -> floor 1.5 = 1
    assert compute_thresholds(A) == (2, 1)


def test_thresholds_match_independent_formula_on_desk_partition():
    ds = gen_dataset(10, 32, 1000, seed=1, means=class_means(10, 32, 1))
    parts = partition_noniid(ds, 50, p=0.4, shards=250, seed=7)
    A = ground_truth_abstract(parts, tau=20)
    per_client, per_cluster = compute_thresholds(A)
    # independent evaluation, written from the formula rather than the code
    m_j = [int(A[:, j].sum()) for j in range(50) if A[:, j].sum() > 0]
    m_th = int(np.floor(sum(m_j) / len(m_j)))
    budget = sum(m_th if mj > m_th else mj if mj < m_th else m_th for mj in m_j)
    n_th = budget // 10
    assert per_client == max(1, m_th)
    assert per_cluster == max(1, n_th)


def test_thresholds_exclude_empty_clients():
    A = np.ones((4, 5), dtype=np.uint8)
    A[:, 2] = 0
    assert compute_thresholds(A)[0] == 4
    assert np.array_equal(active_columns(A), np.array([1, 1, 0, 1, 1], dtype=bool))
    # a round in which nobody claims a class gets the smallest budgets
    assert compute_thresholds(np.zeros((3, 3), dtype=np.uint8)) == (1, 1)


def test_thresholds_validation():
    # both budgets are floored at 1: one claim over ten classes would
    # otherwise give clusters of size 0
    A = np.zeros((10, 4), dtype=np.uint8)
    A[3, 1] = 1
    assert compute_thresholds(A) == (1, 1)
    assert np.array_equal(greedy_cluster(A, (1, 1)), A)


def test_greedy_feasible_start_untouched():
    A = np.ones((10, 50), dtype=np.uint8)
    x = greedy_cluster(A, (10, 50))
    assert np.array_equal(x, A)


def test_greedy_tiny_instance_among_valid_optima():
    A = np.ones((2, 3), dtype=np.uint8)
    x = greedy_cluster(A, (1, 1))
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
    x = greedy_cluster(A, (1, 1))
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
        per_client, per_cluster = th
        x = greedy_cluster(A, th)
        assert np.all(x <= A)
        assert x.sum(axis=1).max() <= per_cluster
        assert x.sum(axis=0).max() <= per_client
        assert np.array_equal(x, greedy_cluster(A, th))  # deterministic


@settings(max_examples=300, deadline=None)
@given(base=arrays(np.uint8, st.tuples(st.integers(1, 8), st.integers(1, 8)), elements=st.integers(0, 1)),
       picks=st.lists(st.integers(0, 7), min_size=1, max_size=16))
def test_greedy_keeps_both_budgets_on_any_matrix(base, picks):
    # columns are drawn with repetition, so duplicated clients are common;
    # all-zero matrices and columns are included
    A = base[:, [p % base.shape[1] for p in picks]]
    th = compute_thresholds(A)
    per_client, per_cluster = th
    assert per_client >= 1 and per_cluster >= 1
    x = greedy_cluster(A, th)
    assert x.dtype == np.uint8 and np.all(x <= A)
    assert x.sum(axis=1).max() <= per_cluster
    assert x.sum(axis=0).max() <= per_client


def two_sweep_greedy(A, per_client, per_cluster):
    """The greedy pass written out as a row sweep and a separate column sweep."""
    x = A.copy()
    x[:, A.sum(axis=0) == 0] = 0
    m, n = x.shape
    while x.sum(axis=1).max(initial=0) > per_cluster or x.sum(axis=0).max(initial=0) > per_client:
        for i in range(m):
            if x[i].sum() > per_cluster:
                members = np.flatnonzero(x[i])
                x[i, members[int(np.argmax(x.sum(axis=0)[members]))]] = 0
        for j in range(n):
            if x[:, j].sum() > per_client:
                rows = np.flatnonzero(x[:, j])
                x[rows[int(np.argmax(x.sum(axis=1)[rows]))], j] = 0
    return x


@settings(max_examples=300, deadline=None)
@given(base=arrays(np.uint8, st.tuples(st.integers(1, 8), st.integers(1, 8)), elements=st.integers(0, 1)),
       picks=st.lists(st.integers(0, 7), min_size=1, max_size=16),
       per_client=st.integers(1, 9), per_cluster=st.integers(1, 17))
def test_greedy_equals_the_two_sweep_loop(base, picks, per_client, per_cluster):
    # any budgets, not only computed ones; all-zero matrices and columns are included
    A = base[:, [p % base.shape[1] for p in picks]]
    x = greedy_cluster(A, (per_client, per_cluster))
    assert x.dtype == np.uint8
    assert x.tobytes() == two_sweep_greedy(A, per_client, per_cluster).tobytes()


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
        greedy_removed = removed(A, greedy_cluster(A, th))
        active = active_columns(A)
        opt_removed = int(A.sum()) - int(A[:, ~active].sum()) - exact_max_kept(A[:, active], *th)
        assert greedy_removed >= opt_removed
        gaps.append(greedy_removed - opt_removed)
    assert max(gaps) <= 2
    assert max(gaps) == 0  # recorded value for this instance set


def test_membership_histograms():
    x = np.array([[1, 0, 1], [1, 1, 0]], dtype=np.uint8)
    sizes, memberships = membership_histograms(x)
    assert list(sizes) == [2, 2]
    assert list(memberships) == [2, 1, 1]
