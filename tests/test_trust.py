"""Voting trust: similarity, votes, softmax, accumulation, discard, aggregation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim.errors import ShapeError
from fedsim.model import ModelParams, param_dim, softmax
from fedsim.trust import (
    TrustLedger,
    aggregate,
    cluster_votes,
    cosine_similarity,
    median_discard,
    similarity_matrix,
)


def test_cosine_basic_values():
    v = np.array([1.0, 2.0, -3.0])
    assert cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-12)
    assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 5.0])) == 0.0


def test_cosine_matches_fsum_oracle():
    rng = np.random.default_rng(11)
    a = rng.standard_normal(500)
    b = rng.standard_normal(500)
    dot = math.fsum(float(x) * float(y) for x, y in zip(a, b))
    na = math.sqrt(math.fsum(float(x) * float(x) for x in a))
    nb = math.sqrt(math.fsum(float(y) * float(y) for y in b))
    assert cosine_similarity(a, b) == pytest.approx(dot / (na * nb), abs=1e-12)


def test_cosine_zero_norm_and_mismatch():
    assert cosine_similarity(np.zeros(4), np.ones(4)) == 0.0
    with pytest.raises(ShapeError):
        cosine_similarity(np.ones(3), np.ones(4))


def test_similarity_matrix_symmetric_unit_diagonal():
    rng = np.random.default_rng(1)
    vecs = [rng.standard_normal(8) for _ in range(4)]
    S = similarity_matrix(vecs)
    assert np.allclose(S, S.T)
    assert np.allclose(np.diag(S), 1.0)
    assert np.all(np.abs(S) <= 1 + 1e-12)


def test_votes_pair_cluster():
    x = np.ones((1, 2), dtype=np.uint8)
    vecs = [np.array([1.0, 0.0]), np.array([1.0, 0.1])]
    assert list(cluster_votes(x, vecs, k_vote=1)) == [1, 1]


def test_votes_three_member_hand_oracle():
    # members 0 and 1 identical, member 2 orthogonal; everyone votes its
    # single nearest: 0 <-> 1 mutually, 2's tie resolves to the lower index 0
    x = np.ones((1, 3), dtype=np.uint8)
    v = np.array([1.0, 0.0])
    vecs = [v, v.copy(), np.array([0.0, 1.0])]
    assert list(cluster_votes(x, vecs, k_vote=1)) == [2, 1, 0]


def test_votes_small_cluster_budget_stays_selective():
    # three members, k_vote=2: budget shrinks to floor(3/2)=1 so votes
    # still express a preference instead of covering every peer
    x = np.ones((1, 3), dtype=np.uint8)
    v = np.array([1.0, 0.0])
    vecs = [v, v.copy(), np.array([0.0, 1.0])]
    assert list(cluster_votes(x, vecs, k_vote=2)) == [2, 1, 0]


def test_votes_sybil_pair_capped_in_six_member_cluster():
    # a sybil's ballot gives its twin at most one vote, and driving the
    # mutual similarity from 0.99.. to exactly 1.0 changes no vote count
    rng = np.random.default_rng(3)
    x = np.ones((1, 6), dtype=np.uint8)
    sybil = np.ones(10)
    honest = [rng.standard_normal(10) for _ in range(4)]
    near_copy = sybil + 1e-6 * rng.standard_normal(10)
    votes_near = cluster_votes(x, [sybil, near_copy] + honest, k_vote=3)
    votes_exact = cluster_votes(x, [sybil, sybil.copy()] + honest, k_vote=3)
    # exact duplication only reshuffles ties inside the pair; the pair's
    # combined take and every honest member's count are unchanged
    assert votes_near[:2].sum() == votes_exact[:2].sum()
    assert np.array_equal(votes_near[2:], votes_exact[2:])
    # reconstruct sybil 1's ballot: top-3 most similar peers, each +1 once
    S = similarity_matrix([sybil, sybil.copy()] + honest)
    sims = S[1].copy()
    sims[1] = -np.inf
    ballot = np.lexsort((np.arange(6), -sims))[:3]
    assert np.sum(ballot == 0) <= 1


def test_votes_collusion_cap_property():
    rng = np.random.default_rng(4)
    for _ in range(50):
        c = int(rng.integers(3, 9))
        s = int(rng.integers(2, c))
        k_vote = int(rng.integers(1, c))
        coalition = rng.standard_normal(12)
        vecs = [coalition.copy() for _ in range(s)] + [
            rng.standard_normal(12) for _ in range(c - s)]
        x = np.ones((1, c), dtype=np.uint8)
        votes = cluster_votes(x, vecs, k_vote)
        intra = 0
        take = max(1, min(k_vote, c // 2))
        # coalition ballots: identical vectors rank each other at similarity 1,
        # so each coalition voter gives min(take, s-1) votes inside
        assert votes[:s].sum() <= s * min(k_vote, s - 1) + s * take  # total received
        # the pure intra-coalition bound from the spec
        intra_bound = s * min(k_vote, s - 1)
        votes_iso = cluster_votes(
            np.ones((1, c - s + 1), dtype=np.uint8),
            [vecs[0]] + vecs[s:], k_vote)
        intra = votes[0] - votes_iso[0]
        assert intra <= intra_bound


def test_votes_bounded_by_membership_budget():
    rng = np.random.default_rng(5)
    m, n = 6, 12
    for _ in range(20):
        x = (rng.random((m, n)) < 0.5).astype(np.uint8)
        vecs = [rng.standard_normal(7) for _ in range(n)]
        n_th = max(1, int(x.sum(axis=1).max()))
        k_vote = max(1, n_th // 2)
        votes = cluster_votes(x, vecs, k_vote)
        for j in range(n):
            assert votes[j] <= x[:, j].sum() * (n_th - 1) if n_th > 1 else votes[j] == 0


def test_votes_skip_singleton_clusters():
    x = np.array([[1, 0], [1, 1]], dtype=np.uint8)
    vecs = [np.ones(3), np.ones(3)]
    votes = cluster_votes(x, vecs, k_vote=1)
    assert list(votes) == [1, 1]  # only the two-member cluster votes


def test_votes_validation():
    with pytest.raises(ShapeError):
        cluster_votes(np.ones((1, 3), dtype=np.uint8), [np.ones(2)], k_vote=1)


def first_round_trust(votes):
    """The ledger's immediate trust for one first round of the given votes."""
    ledger = TrustLedger(num_clients=len(votes), gamma=0.1)
    ledger.update(range(len(votes)), np.asarray(votes))
    return np.array([ledger.immediate[cid] for cid in range(len(votes))])


def test_immediate_trust_uniform_and_two_point():
    assert np.allclose(first_round_trust(np.full(8, 3)), 1 / 8)
    t = first_round_trust(np.array([1, 0]))
    e = math.e
    assert t[0] == pytest.approx(e / (e + 1), abs=1e-12)
    assert t[1] == pytest.approx(1 / (e + 1), abs=1e-12)


def test_immediate_trust_matches_naive_softmax():
    rng = np.random.default_rng(6)
    K = rng.integers(0, 20, size=10)
    t = first_round_trust(K)
    naive = np.array([math.exp(k) for k in K])
    naive /= naive.sum()
    assert np.max(np.abs(t - naive)) < 1e-12
    assert abs(t.sum() - 1.0) < 1e-9


def test_immediate_trust_shift_invariance():
    K = np.array([3, 5, 1, 0])
    assert np.allclose(first_round_trust(K), first_round_trust(K + 7), atol=1e-12)


def test_accumulate_first_round_equals_immediate():
    ledger = TrustLedger(num_clients=5, gamma=0.1)
    out = ledger.update([0, 2, 4], np.array([2, 1, 0]))
    assert np.allclose(out, softmax(np.array([2.0, 1.0, 0.0])), atol=1e-12)
    assert np.allclose(out, [ledger.immediate[c] for c in (0, 2, 4)], atol=1e-12)


def test_accumulate_gamma_to_zero_limit():
    ledger = TrustLedger(num_clients=3, gamma=1e-15)
    sel = [0, 1, 2]
    ledger.update(sel, np.array([4, 1, 0]))
    out = ledger.update(sel, np.array([0, 3, 2]))
    assert np.allclose(out, softmax(np.array([0.0, 3.0, 2.0])), atol=1e-9)


def test_accumulate_matches_closed_form_oracle():
    gamma = 0.1
    ledger = TrustLedger(num_clients=4, gamma=gamma)
    sel = [0, 1, 2, 3]
    rounds = [
        np.array([4, 3, 2, 1]),
        np.array([1, 1, 4, 4]),
        np.array([2, 2, 2, 2]),
    ]
    for votes in rounds:
        out = ledger.update(sel, votes)
    closed = sum(gamma ** (2 - s) * softmax(rounds[s].astype(float)) for s in range(3))
    closed = closed / closed.sum()
    assert np.max(np.abs(out - closed)) < 1e-12


@settings(max_examples=150, deadline=None)
@given(gamma=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       rounds=st.lists(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 40)),
                                min_size=1, unique_by=lambda pick: pick[0]),
                       min_size=1, max_size=6))
def test_accumulate_freezes_unselected(gamma, rounds):
    # over any rounds of (client, votes) picks: unselected clients' raw trust
    # is frozen, and immediate and returned trust each sum to one
    ledger = TrustLedger(num_clients=8, gamma=gamma)
    for picks in rounds:
        selected = [cid for cid, _ in picks]
        before = ledger.accumulated_raw.copy()
        out = ledger.update(selected, np.array([votes for _, votes in picks]))
        assert math.isclose(out.sum(), 1.0, abs_tol=1e-12)
        assert math.isclose(sum(ledger.immediate.values()), 1.0, abs_tol=1e-12)
        frozen = np.setdiff1d(np.arange(8), selected)
        assert np.array_equal(ledger.accumulated_raw[frozen], before[frozen])


def test_ledger_validation():
    ledger = TrustLedger(num_clients=3, gamma=0.5)
    with pytest.raises(ShapeError):
        ledger.update([0, 1], np.array([1, 2, 3]))


def test_median_discard_examples():
    assert median_discard({0: 0.2, 1: 0.2, 2: 0.2}, [0, 1, 2]) == set()
    assert median_discard({0: 0.5, 1: 0.3, 2: 0.2}, [0, 1, 2]) == {2}
    # clients unselected last round are never dropped
    assert median_discard({0: 0.5, 1: 0.3, 2: 0.2}, [2, 7]) == {2}
    assert median_discard({}, [0, 1]) == set()


def test_two_round_discard_scenario():
    # a client scoring bottom in round t-1 and re-selected in round t is
    # excluded from round t's aggregation
    ledger = TrustLedger(num_clients=5, gamma=0.1)
    ledger.update([0, 1, 2], np.array([4, 3, 0]))          # round t-1: client 2 bottom
    prev = ledger.immediate
    discard = median_discard(prev, [1, 2, 3])              # round t selection
    assert discard == {2}
    theta = ModelParams(np.zeros(param_dim([(2, 3)])), [(2, 3)])
    updates = [np.ones(theta.dim) for _ in (1, 2, 3)]
    weights = [0.5, 0.4, 0.1]
    surviving = [i for i, c in enumerate((1, 2, 3)) if c not in discard]
    out = aggregate(theta, [updates[i] for i in surviving],
                    [weights[i] for i in surviving], lr_server=1.0)
    expected = aggregate(theta, [updates[0], updates[2]], [0.5, 0.1], lr_server=1.0)
    assert np.array_equal(out.flat, expected.flat)


def test_aggregate_sign_check_paper_rule():
    # spec example: delta = -|delta| * g_hat moves the model by +lambda * g_hat
    # under the literal update-subtracting rule
    shapes = [(2, 3)]
    theta = ModelParams(np.zeros(param_dim(shapes)), shapes)
    g_hat = np.zeros(theta.dim)
    g_hat[0] = 1.0
    delta = -5.0 * g_hat
    out = aggregate(theta, [delta], [1.0], lr_server=0.3, toward_clients=False)
    assert np.allclose(out.flat, 0.3 * g_hat, atol=1e-15)
    # default convergent sign moves toward the client model instead
    out2 = aggregate(theta, [delta], [1.0], lr_server=0.3)
    assert np.allclose(out2.flat, -0.3 * g_hat, atol=1e-15)


def test_aggregate_opposite_updates_cancel():
    shapes = [(2, 3)]
    theta = ModelParams(np.ones(param_dim(shapes)), shapes)
    u = np.zeros(theta.dim)
    u[1] = 2.0
    out = aggregate(theta, [u, -u], [0.5, 0.5], lr_server=1.0)
    assert np.allclose(out.flat, theta.flat, atol=1e-15)


def test_aggregate_matches_naive_oracle():
    rng = np.random.default_rng(7)
    shapes = [(4, 5)]
    theta = ModelParams(rng.standard_normal(param_dim(shapes)), shapes)
    deltas = [rng.standard_normal(theta.dim) for _ in range(5)]
    trust = rng.random(5)
    out = aggregate(theta, deltas, trust, lr_server=0.2)
    naive = theta.flat + 0.2 * sum(t * d / np.linalg.norm(d) for t, d in zip(trust, deltas))
    assert np.max(np.abs(out.flat - naive)) < 1e-10


def test_aggregate_skips_zero_norm_and_validates():
    shapes = [(2, 3)]
    theta = ModelParams(np.zeros(param_dim(shapes)), shapes)
    out = aggregate(theta, [np.zeros(theta.dim)], [1.0], lr_server=1.0)
    assert np.array_equal(out.flat, theta.flat)
    with pytest.raises(ShapeError):
        aggregate(theta, [np.ones(theta.dim)], [0.5, 0.5], lr_server=1.0)


def test_aggregate_scale_invariance():
    # boosting an update's magnitude does not change its contribution
    rng = np.random.default_rng(8)
    shapes = [(3, 3)]
    theta = ModelParams(np.zeros(param_dim(shapes)), shapes)
    d = rng.standard_normal(theta.dim)
    a = aggregate(theta, [d], [0.7], lr_server=0.5)
    b = aggregate(theta, [50.0 * d], [0.7], lr_server=0.5)
    assert np.max(np.abs(a.flat - b.flat)) < 1e-12
