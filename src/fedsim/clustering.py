"""Balanced overlapping clustering of clients from a sufficiency matrix.

There is one cluster per class; a client may sit in several clusters. Two
budgets keep the result fair: per_cluster caps cluster size (balanced
clusters) and per_client caps how many clusters one client joins (uniform
vote opportunities). Starting from the full sufficiency matrix, the greedy
pass trims memberships from overloaded rows and columns until both budgets
hold; the removal count is the quantity being minimized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError


@dataclass
class ClusterThresholds:
    """per_client: clusters each client may join; per_cluster: target cluster size."""

    per_client: int
    per_cluster: int

    def __post_init__(self):
        if self.per_client < 1 or self.per_cluster < 1:
            raise ConfigError("cluster thresholds must be >= 1")


def active_columns(A: np.ndarray) -> np.ndarray:
    """Boolean mask of clients that claim at least one class.

    All-zero columns cannot be clustered (and so can neither vote nor be
    voted on); they are excluded from threshold statistics and from the
    greedy pass.
    """
    A = np.asarray(A)
    return A.sum(axis=0) > 0


def compute_thresholds(A: np.ndarray) -> ClusterThresholds:
    """Derive both budgets from the sufficiency matrix.

    per_client is the floored mean class count over active clients;
    per_cluster is the total participation budget sum(min(m_j, per_client))
    spread over the m clusters.
    """
    A = np.asarray(A, dtype=np.uint8)
    if A.ndim != 2:
        raise ShapeError("sufficiency matrix must be 2-D")
    m = A.shape[0]
    mask = active_columns(A)
    if not mask.any():
        raise ConfigError("no client claims any class; cannot derive thresholds")
    m_j = A[:, mask].sum(axis=0).astype(np.int64)
    per_client = max(1, int(np.floor(m_j.mean())))
    per_cluster = int(np.floor(np.minimum(m_j, per_client).sum() / m))
    return ClusterThresholds(per_client=per_client, per_cluster=max(1, per_cluster))


def greedy_cluster(A: np.ndarray, th: ClusterThresholds) -> np.ndarray:
    """Trim the sufficiency matrix down to both budgets.

    Start from x = A (zeroing inactive columns). While any row exceeds
    per_cluster or any column exceeds per_client: sweep rows, removing from
    each overloaded row the member with the largest current column count;
    then sweep columns, removing from each overloaded column the membership
    in the largest current row. Ties break toward the lowest index and all
    counts are re-read after every removal, so the pass is deterministic and
    each removal flips exactly one bit.
    """
    A = np.asarray(A, dtype=np.uint8)
    if A.ndim != 2:
        raise ShapeError("sufficiency matrix must be 2-D")
    x = A.copy()
    x[:, ~active_columns(A)] = 0
    m, n = x.shape
    while True:
        row_counts = x.sum(axis=1)
        col_counts = x.sum(axis=0)
        if row_counts.max(initial=0) <= th.per_cluster and col_counts.max(initial=0) <= th.per_client:
            break
        for i in range(m):
            if x[i].sum() > th.per_cluster:
                members = np.flatnonzero(x[i])
                counts = x.sum(axis=0)[members]
                j = members[int(np.argmax(counts))]  # argmax keeps the first max
                x[i, j] = 0
        for j in range(n):
            if x[:, j].sum() > th.per_client:
                rows = np.flatnonzero(x[:, j])
                counts = x.sum(axis=1)[rows]
                i = rows[int(np.argmax(counts))]
                x[i, j] = 0
    return x


def objective_value(A: np.ndarray, x: np.ndarray) -> int:
    """Number of memberships removed relative to A; lower is better."""
    A = np.asarray(A, dtype=np.uint8)
    x = np.asarray(x, dtype=np.uint8)
    if A.shape != x.shape:
        raise ShapeError("assignment and sufficiency matrix shapes differ")
    if np.any(x > A):
        raise ConfigError("assignment keeps a membership absent from the sufficiency matrix")
    return int(((1 - x) * A).sum())


def membership_histograms(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cluster sizes, per-client membership counts) for reporting."""
    x = np.asarray(x)
    return x.sum(axis=1).astype(np.int64), x.sum(axis=0).astype(np.int64)
