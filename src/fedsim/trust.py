"""Per-cluster voting trust and trust-weighted aggregation.

Trust is built from vote counts rather than raw similarity values: within
each cluster every member nominates its k nearest peers, so colluders who
submit near-identical updates gain at most one vote from each accomplice
per cluster, however high their mutual similarity. Vote totals pass
through a softmax into per-round trust, which is discounted into a running
score; clients scoring below the previous round's median are dropped for a
round before the surviving updates are averaged direction-wise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .model import softmax

ZERO_NORM_EPS = 1e-12


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Standard cosine of two vectors of one length; degenerate (near-zero) vectors score 0."""
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na < ZERO_NORM_EPS or nb < ZERO_NORM_EPS:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def similarity_matrix(vectors: np.ndarray) -> np.ndarray:
    """Pairwise cosine matrix of the rows of a (k, h) array, one row per client; diagonal 1."""
    k = len(vectors)
    S = np.eye(k)
    for i in range(k):
        for j in range(i + 1, k):
            S[i, j] = S[j, i] = cosine_similarity(vectors[i], vectors[j])
    return S


def cluster_votes(x: np.ndarray, vectors: np.ndarray, k_vote: int) -> np.ndarray:
    """Total nearest-neighbour votes per client over all clusters.

    `x` is the (m, n) cluster assignment (clusters by rows) and `vectors` the
    (n, h) array of the same n clients, column j of `x` for row j. In each cluster,
    every member votes for its most similar peers; the vote budget is
    k_vote, reduced to floor(members/2) in clusters smaller than the
    target size so that votes stay selective (never one vote for every
    peer in clusters of three or more). Similarity ties break toward the
    lower column index. Clusters with fewer than two members cast no
    votes.
    """
    votes = np.zeros(x.shape[1], dtype=np.int64)
    for row in x:
        members = np.flatnonzero(row)
        if members.size < 2:
            continue
        S = similarity_matrix(vectors[members])
        np.fill_diagonal(S, -np.inf)
        take = max(1, min(k_vote, members.size // 2))
        # each member's picks: a stable sort on -similarity, so ties go to the lower index
        picks = np.argsort(-S, axis=1, kind="stable")[:, :take]
        np.add.at(votes, members[picks], 1)
    return votes


@dataclass
class TrustLedger:
    """Per-client trust state carried across rounds, one array entry per client id.

    `accumulated_raw` holds the undiscounted-sum recursion acc <- gamma*acc
    + T_now for selected clients (frozen while unselected). `immediate` is
    the latest round's immediate trust, NaN for every client that round did
    not select; the next round's median discard reads it.
    """

    num_clients: int
    gamma: float
    accumulated_raw: np.ndarray = field(init=False)
    immediate: np.ndarray = field(init=False)

    def __post_init__(self):
        self.accumulated_raw = np.zeros(self.num_clients)
        self.immediate = np.full(self.num_clients, np.nan)

    def update(self, selected: Sequence[int], K_selected: np.ndarray) -> np.ndarray:
        """Record a round's votes; returns normalized accumulated trust per selected client.

        Immediate trust T is the softmax of the vote counts; for clients
        selected in every round the result normalizes sum_s gamma^(t-s) T^s.
        The sum is positive: softmax's largest entry is 1/sum(exp(K - max K)).
        `immediate` is overwritten in place, so a discard must read it first.
        """
        T_now = softmax(np.asarray(K_selected, dtype=np.float64))
        self.immediate.fill(np.nan)
        self.immediate[selected] = T_now
        self.accumulated_raw[selected] = self.gamma * self.accumulated_raw[selected] + T_now
        raw = self.accumulated_raw[selected]
        return raw / raw.sum()


def median_discard(prev_immediate: np.ndarray, selected: Sequence[int]) -> np.ndarray:
    """Mask over `selected`: last round's immediate trust fell strictly below its median.

    The median is taken over the non-NaN entries, the clients last round
    selected; a NaN entry (a client absent last round) is never discarded.
    """
    last = prev_immediate[~np.isnan(prev_immediate)]
    if last.size == 0:
        return np.zeros(len(selected), dtype=bool)
    return prev_immediate[selected] < np.median(last)


def aggregate(updates: np.ndarray, trust: np.ndarray) -> np.ndarray:
    """Trust-weighted sum of the direction-normalized rows of an (n, d) update matrix.

    Each update is scaled to unit norm first so magnitude boosting buys an
    attacker nothing; zero-norm updates are skipped, and no rows sum to zero.
    """
    step = np.zeros(updates.shape[1])
    for upd, t in zip(updates, trust):
        norm = np.linalg.norm(upd)
        if norm < ZERO_NORM_EPS:
            continue
        step += t * upd / norm
    return step
