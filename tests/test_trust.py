"""Voting trust: similarity, votes, softmax, accumulation, discard, aggregation."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim.config import SimConfig
from fedsim.data import class_means, gen_dataset
from fedsim.harness import ClusterVote
from fedsim.model import init_model, softmax
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


def test_similarity_matrix_symmetric_unit_diagonal():
    rng = np.random.default_rng(1)
    vecs = np.array([rng.standard_normal(8) for _ in range(4)])
    S = similarity_matrix(vecs)
    assert np.allclose(S, S.T)
    assert np.allclose(np.diag(S), 1.0)
    assert np.all(np.abs(S) <= 1 + 1e-12)


def test_votes_pair_cluster():
    x = np.ones((1, 2), dtype=np.uint8)
    vecs = np.array([[1.0, 0.0], [1.0, 0.1]])
    assert list(cluster_votes(x, vecs, k_vote=1)) == [1, 1]


def test_votes_three_member_hand_oracle():
    # members 0 and 1 identical, member 2 orthogonal; everyone votes its
    # single nearest: 0 <-> 1 mutually, 2's tie resolves to the lower index 0
    x = np.ones((1, 3), dtype=np.uint8)
    v = np.array([1.0, 0.0])
    vecs = np.array([v, v.copy(), np.array([0.0, 1.0])])
    assert list(cluster_votes(x, vecs, k_vote=1)) == [2, 1, 0]


def test_votes_small_cluster_budget_stays_selective():
    # three members, k_vote=2: budget shrinks to floor(3/2)=1 so votes
    # still express a preference instead of covering every peer
    x = np.ones((1, 3), dtype=np.uint8)
    v = np.array([1.0, 0.0])
    vecs = np.array([v, v.copy(), np.array([0.0, 1.0])])
    assert list(cluster_votes(x, vecs, k_vote=2)) == [2, 1, 0]


def test_votes_sybil_pair_capped_in_six_member_cluster():
    # a sybil's ballot gives its twin at most one vote, and driving the
    # mutual similarity from 0.99.. to exactly 1.0 changes no vote count
    rng = np.random.default_rng(3)
    x = np.ones((1, 6), dtype=np.uint8)
    sybil = np.ones(10)
    honest = [rng.standard_normal(10) for _ in range(4)]
    near_copy = sybil + 1e-6 * rng.standard_normal(10)
    votes_near = cluster_votes(x, np.array([sybil, near_copy] + honest), k_vote=3)
    votes_exact = cluster_votes(x, np.array([sybil, sybil.copy()] + honest), k_vote=3)
    # exact duplication only reshuffles ties inside the pair; the pair's
    # combined take and every honest member's count are unchanged
    assert votes_near[:2].sum() == votes_exact[:2].sum()
    assert np.array_equal(votes_near[2:], votes_exact[2:])
    # reconstruct sybil 1's ballot: top-3 most similar peers, each +1 once
    S = similarity_matrix(np.array([sybil, sybil.copy()] + honest))
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
        votes = cluster_votes(x, np.array(vecs), k_vote)
        intra = 0
        take = max(1, min(k_vote, c // 2))
        # coalition ballots: identical vectors rank each other at similarity 1,
        # so each coalition voter gives min(take, s-1) votes inside
        assert votes[:s].sum() <= s * min(k_vote, s - 1) + s * take  # total received
        # the pure intra-coalition bound from the spec
        intra_bound = s * min(k_vote, s - 1)
        votes_iso = cluster_votes(
            np.ones((1, c - s + 1), dtype=np.uint8),
            np.array([vecs[0]] + vecs[s:]), k_vote)
        intra = votes[0] - votes_iso[0]
        assert intra <= intra_bound


def test_votes_bounded_by_membership_budget():
    rng = np.random.default_rng(5)
    m, n = 6, 12
    for _ in range(20):
        x = (rng.random((m, n)) < 0.5).astype(np.uint8)
        vecs = np.array([rng.standard_normal(7) for _ in range(n)])
        n_th = max(1, int(x.sum(axis=1).max()))
        k_vote = max(1, n_th // 2)
        votes = cluster_votes(x, vecs, k_vote)
        for j in range(n):
            assert votes[j] <= x[:, j].sum() * (n_th - 1) if n_th > 1 else votes[j] == 0


def test_votes_skip_singleton_clusters():
    x = np.array([[1, 0], [1, 1]], dtype=np.uint8)
    vecs = np.ones((2, 3))
    votes = cluster_votes(x, vecs, k_vote=1)
    assert list(votes) == [1, 1]  # only the two-member cluster votes


def first_round_trust(votes):
    """The ledger's immediate trust for one first round of the given votes."""
    ledger = TrustLedger(num_clients=len(votes), gamma=0.1)
    ledger.update(range(len(votes)), np.asarray(votes))
    return ledger.immediate


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
    assert np.allclose(out, ledger.immediate[[0, 2, 4]], atol=1e-12)
    assert np.isnan(ledger.immediate[[1, 3]]).all()


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
    # is frozen and their immediate trust is NaN, and the selected clients'
    # immediate and returned trust each sum to one
    ledger = TrustLedger(num_clients=8, gamma=gamma)
    for picks in rounds:
        selected = [cid for cid, _ in picks]
        before = ledger.accumulated_raw.copy()
        out = ledger.update(selected, np.array([votes for _, votes in picks]))
        assert math.isclose(out.sum(), 1.0, abs_tol=1e-12)
        assert math.isclose(ledger.immediate[selected].sum(), 1.0, abs_tol=1e-12)
        frozen = np.setdiff1d(np.arange(8), selected)
        assert np.isnan(ledger.immediate[frozen]).all()
        assert np.array_equal(ledger.accumulated_raw[frozen], before[frozen])


def last_round(trust_by_client, n=8):
    """An immediate-trust array holding the given client trusts, NaN for everyone else."""
    out = np.full(n, np.nan)
    out[list(trust_by_client)] = list(trust_by_client.values())
    return out


def test_median_discard_examples():
    assert median_discard(last_round({0: 0.2, 1: 0.2, 2: 0.2}), [0, 1, 2]).tolist() == [
        False, False, False]
    assert median_discard(last_round({0: 0.5, 1: 0.3, 2: 0.2}), [0, 1, 2]).tolist() == [
        False, False, True]
    # clients unselected last round are never dropped, and the mask follows `selected`
    assert median_discard(last_round({0: 0.5, 1: 0.3, 2: 0.2}), [7, 2]).tolist() == [False, True]
    assert median_discard(last_round({}), [0, 1]).tolist() == [False, False]


class DictLedger:
    """Reference trust state: immediate trust as a {client: trust} dict, discards as a set."""

    def __init__(self, num_clients, gamma):
        self.gamma = gamma
        self.accumulated_raw = np.zeros(num_clients)
        self.immediate = {}

    def update(self, selected, votes):
        T_now = softmax(np.asarray(votes, dtype=np.float64))
        self.immediate = {cid: float(t) for cid, t in zip(selected, T_now)}
        self.accumulated_raw[selected] = self.gamma * self.accumulated_raw[selected] + T_now
        raw = self.accumulated_raw[selected]
        total = raw.sum()
        return raw / total if total > 0 else np.full(len(selected), 1.0 / len(selected))

    @staticmethod
    def median_discard(prev_immediate, selected):
        if not prev_immediate:
            return set()
        median = float(np.median(list(prev_immediate.values())))
        return {cid for cid in selected if cid in prev_immediate and prev_immediate[cid] < median}


@settings(max_examples=200, deadline=None)
@given(gamma=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       rounds=st.lists(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 40)),
                                min_size=1, max_size=10, unique_by=lambda pick: pick[0]),
                       min_size=1, max_size=8))
def test_trust_arrays_match_dict_reference(gamma, rounds):
    # round by round, as the defense runs them: discard from last round's
    # immediate trust, then record this round's votes; every value bit for bit
    ledger, reference = TrustLedger(num_clients=10, gamma=gamma), DictLedger(10, gamma)
    immediate = ledger.immediate
    for picks in rounds:
        selected = [cid for cid, _ in picks]
        votes = np.array([v for _, v in picks])
        dropped = reference.median_discard(reference.immediate, selected)
        discard = median_discard(ledger.immediate, selected)
        assert discard.tolist() == [c in dropped for c in selected]
        assert np.array_equal(ledger.update(selected, votes), reference.update(selected, votes))
        assert ledger.immediate is immediate  # written in place
        assert ledger.immediate[selected].tolist() == [reference.immediate[c] for c in selected]
        assert np.isnan(np.delete(ledger.immediate, selected)).all()


def test_two_round_discard_scenario():
    # a client scoring bottom in round t-1 and re-selected in round t is
    # excluded from round t's aggregation
    ledger = TrustLedger(num_clients=5, gamma=0.1)
    ledger.update([0, 1, 2], np.array([4, 3, 0]))          # round t-1: client 2 bottom
    immediate = ledger.immediate
    discard = median_discard(ledger.immediate, [1, 2, 3])  # round t reads t-1's trust first
    ledger.update([1, 2, 3], np.array([1, 1, 1]))          # then overwrites it in place
    assert ledger.immediate is immediate
    assert np.allclose(immediate[[1, 2, 3]], 1 / 3) and np.isnan(immediate[[0, 4]]).all()
    assert discard.tolist() == [False, True, False]
    updates = np.ones((3, 6))
    weights = np.array([0.5, 0.4, 0.1])
    out = aggregate(updates[~discard], weights[~discard])
    expected = aggregate(updates[[0, 2]], np.array([0.5, 0.1]))
    assert np.array_equal(out, expected)


def test_aggregate_sign_check_paper_rule():
    # spec example: delta = -|delta| * g_hat moves the model by +lambda * g_hat
    # under the literal update-subtracting rule; the default convergent sign
    # moves toward the client model instead
    cfg = SimConfig(n_clients=4, num_malicious=0, shards=4, selection_ratio=0.5, lr_server=0.3)
    aux = gen_dataset(cfg.num_classes, cfg.input_dim, 5, seed=1,
                      means=class_means(cfg.num_classes, cfg.input_dim, seed=1))
    ground_truth = np.ones((cfg.num_classes, cfg.n_clients), dtype=np.uint8)
    theta = init_model(cfg.layer_dims, seed=2)
    g_hat = np.zeros(theta.dim)
    g_hat[0] = 1.0
    U = np.stack([-5.0 * g_hat, -2.0 * g_hat])  # one direction: the trust weights sum to one
    for strict_paper_sign, direction in ((True, 1.0), (False, -1.0)):
        defense = ClusterVote(replace(cfg, strict_paper_sign=strict_paper_sign), ground_truth, aux)
        step, record = defense(theta, U, [0, 3], 0)
        assert not record.flagged
        assert np.allclose(step, direction * 0.3 * g_hat, atol=1e-15)


def test_aggregate_opposite_updates_cancel():
    u = np.zeros(6)
    u[1] = 2.0
    out = aggregate(np.stack([u, -u]), np.array([0.5, 0.5]))
    assert np.allclose(out, 0.0, atol=1e-15)


def test_aggregate_matches_naive_oracle():
    rng = np.random.default_rng(7)
    deltas = rng.standard_normal((5, 24))
    trust = rng.random(5)
    out = aggregate(deltas, trust)
    naive = sum(t * d / np.linalg.norm(d) for t, d in zip(trust, deltas))
    assert out.shape == (24,)
    assert np.max(np.abs(out - naive)) < 1e-10


def test_aggregate_skips_zero_norm_and_validates():
    out = aggregate(np.zeros((1, 6)), np.array([1.0]))
    assert np.array_equal(out, np.zeros(6))


def test_aggregate_of_no_rows_is_a_zero_step():
    # a round that discards everyone aggregates zero rows
    out = aggregate(np.empty((0, 7)), np.empty(0))
    assert out.shape == (7,) and not out.any()


def test_aggregate_scale_invariance():
    # boosting an update's magnitude does not change its contribution
    rng = np.random.default_rng(8)
    d = rng.standard_normal((1, 12))
    a = aggregate(d, np.array([0.7]))
    b = aggregate(50.0 * d, np.array([0.7]))
    assert np.max(np.abs(a - b)) < 1e-12
