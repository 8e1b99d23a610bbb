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
from typing import Dict, Iterable, Mapping, Sequence, Set

import numpy as np

from .errors import ShapeError
from .model import ModelParams, softmax

ZERO_NORM_EPS = 1e-12


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Standard cosine; degenerate (near-zero) vectors score 0."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"vector lengths differ: {a.shape} vs {b.shape}")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na < ZERO_NORM_EPS or nb < ZERO_NORM_EPS:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def similarity_matrix(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Pairwise cosine matrix for the given per-client vectors."""
    k = len(vectors)
    S = np.eye(k)
    for i in range(k):
        for j in range(i + 1, k):
            S[i, j] = S[j, i] = cosine_similarity(vectors[i], vectors[j])
        if np.linalg.norm(vectors[i]) < ZERO_NORM_EPS:
            S[i, i] = 0.0
    return S


def cluster_votes(
    x: np.ndarray, vectors: Sequence[np.ndarray], k_vote: int
) -> np.ndarray:
    """Total nearest-neighbour votes per client over all clusters.

    `x` is the cluster assignment (clusters by rows) over exactly the
    clients whose vectors are supplied, column-aligned. In each cluster,
    every member votes for its most similar peers; the vote budget is
    k_vote, reduced to floor(members/2) in clusters smaller than the
    target size so that votes stay selective (never one vote for every
    peer in clusters of three or more). Similarity ties break toward the
    lower column index. Clusters with fewer than two members cast no
    votes.
    """
    x = np.asarray(x, dtype=np.uint8)
    if x.ndim != 2 or x.shape[1] != len(vectors):
        raise ShapeError("assignment columns must match the vector list")
    votes = np.zeros(x.shape[1], dtype=np.int64)
    for row in x:
        members = np.flatnonzero(row)
        if members.size < 2:
            continue
        S = similarity_matrix([vectors[j] for j in members])
        np.fill_diagonal(S, -np.inf)
        take = max(1, min(k_vote, members.size // 2))
        # each member's picks: a stable sort on -similarity, so ties go to the lower index
        picks = np.argsort(-S, axis=1, kind="stable")[:, :take]
        np.add.at(votes, members[picks], 1)
    return votes


@dataclass
class TrustLedger:
    """Per-client trust state carried across rounds.

    `accumulated_raw` holds the undiscounted-sum recursion acc <- gamma*acc
    + T_now for selected clients (frozen while unselected). `immediate` is
    the latest round's (client -> immediate trust) map, which the next
    round's median discard reads.
    """

    num_clients: int
    gamma: float
    accumulated_raw: np.ndarray = field(init=False)
    immediate: Dict[int, float] = field(init=False, default_factory=dict)

    def __post_init__(self):
        self.accumulated_raw = np.zeros(self.num_clients)

    def update(self, selected: Sequence[int], K_selected: np.ndarray) -> np.ndarray:
        """Record a round's votes; returns normalized accumulated trust per selected client.

        Immediate trust T is the softmax of the vote counts; for clients
        selected in every round the result normalizes sum_s gamma^(t-s) T^s.
        """
        selected = list(selected)
        if len(selected) != len(K_selected):
            raise ShapeError("selected ids and vote counts disagree on length")
        T_now = softmax(np.asarray(K_selected, dtype=np.float64))
        self.immediate = {cid: float(t) for cid, t in zip(selected, T_now)}
        self.accumulated_raw[selected] = self.gamma * self.accumulated_raw[selected] + T_now
        raw = self.accumulated_raw[selected]
        total = raw.sum()
        return raw / total if total > 0 else np.full(len(selected), 1.0 / len(selected))


def median_discard(
    prev_immediate: Mapping[int, float], selected: Iterable[int]
) -> Set[int]:
    """Currently selected clients whose last-round trust fell strictly below the median.

    Clients absent from the previous round's map are never discarded.
    """
    if not prev_immediate:
        return set()
    median = float(np.median(list(prev_immediate.values())))
    return {
        cid
        for cid in selected
        if cid in prev_immediate and prev_immediate[cid] < median
    }


def aggregate(
    theta: ModelParams,
    updates: Sequence[np.ndarray],
    trust: Sequence[float],
    lr_server: float,
    toward_clients: bool = True,
) -> ModelParams:
    """Trust-weighted average of direction-normalized updates applied to the global model.

    Each update is scaled to unit norm first so magnitude boosting buys an
    attacker nothing; zero-norm updates are skipped. `toward_clients`
    selects the convergent sign (global model moves toward the clients');
    False applies the raw update-subtracting rule instead.
    """
    if len(updates) != len(trust):
        raise ShapeError("updates and trust weights disagree on length")
    step = np.zeros_like(theta.flat)
    for upd, t in zip(updates, trust):
        norm = np.linalg.norm(upd)
        if norm < ZERO_NORM_EPS:
            continue
        step += t * upd / norm
    sign = 1.0 if toward_clients else -1.0
    return ModelParams(theta.flat + sign * lr_server * step, list(theta.shapes))
