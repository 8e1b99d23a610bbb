"""Balanced overlapping clustering of clients from a sufficiency matrix.

There is one cluster per class; a client may sit in several clusters. Two
budgets keep the result fair: per_cluster caps cluster size (balanced
clusters) and per_client caps how many clusters one client joins (uniform
vote opportunities). Starting from the full sufficiency matrix, the greedy
pass trims memberships from overloaded rows and columns until both budgets
hold; the removal count is the quantity being minimized.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .errors import ShapeError


def active_columns(A: np.ndarray) -> np.ndarray:
    """Boolean mask of clients that claim at least one class.

    All-zero columns cannot be clustered (and so can neither vote nor be
    voted on); they are excluded from threshold statistics and from the
    greedy pass.
    """
    A = np.asarray(A)
    return A.sum(axis=0) > 0


def compute_thresholds(A: np.ndarray) -> Tuple[int, int]:
    """Derive both budgets, (per_client, per_cluster), from the sufficiency matrix.

    per_client is the floored mean class count over active clients;
    per_cluster is the total participation budget sum(min(m_j, per_client))
    spread over the m clusters. Both are at least 1, and both are 1 when no
    client claims any class.
    """
    A = np.asarray(A, dtype=np.uint8)
    if A.ndim != 2:
        raise ShapeError("sufficiency matrix must be 2-D")
    m = A.shape[0]
    mask = active_columns(A)
    if not mask.any():
        return 1, 1
    m_j = A[:, mask].sum(axis=0).astype(np.int64)
    per_client = max(1, int(np.floor(m_j.mean())))
    per_cluster = int(np.floor(np.minimum(m_j, per_client).sum() / m))
    return per_client, max(1, per_cluster)


def greedy_cluster(A: np.ndarray, th: Tuple[int, int]) -> np.ndarray:
    """Trim the sufficiency matrix down to both budgets th = (per_client, per_cluster).

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
    per_client, per_cluster = th
    x = A.copy()
    x[:, ~active_columns(A)] = 0
    m, n = x.shape
    while True:
        row_counts = x.sum(axis=1)
        col_counts = x.sum(axis=0)
        if row_counts.max(initial=0) <= per_cluster and col_counts.max(initial=0) <= per_client:
            break
        for i in range(m):
            if x[i].sum() > per_cluster:
                members = np.flatnonzero(x[i])
                counts = x.sum(axis=0)[members]
                j = members[int(np.argmax(counts))]  # argmax keeps the first max
                x[i, j] = 0
        for j in range(n):
            if x[:, j].sum() > per_client:
                rows = np.flatnonzero(x[:, j])
                counts = x.sum(axis=1)[rows]
                i = rows[int(np.argmax(counts))]
                x[i, j] = 0
    return x


def membership_histograms(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cluster sizes, per-client membership counts) for reporting."""
    x = np.asarray(x)
    return x.sum(axis=1).astype(np.int64), x.sum(axis=0).astype(np.int64)
