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


def active_columns(A: np.ndarray) -> np.ndarray:
    """Boolean mask of clients that claim at least one class.

    All-zero columns cannot be clustered (and so can neither vote nor be
    voted on); they are excluded from threshold statistics and from the
    greedy pass.
    """
    return A.sum(axis=0) > 0


def compute_thresholds(A: np.ndarray) -> Tuple[int, int]:
    """Derive both budgets, (per_client, per_cluster), from the sufficiency matrix.

    per_client is the floored mean class count over active clients;
    per_cluster is the total participation budget sum(min(m_j, per_client))
    spread over the m clusters. Both are at least 1, and both are 1 when no
    client claims any class.
    """
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

    Start from x = A. While any row exceeds per_cluster or any column exceeds
    per_client: sweep rows, removing from each overloaded row the member with
    the largest current column count; then sweep columns by the same rule on
    x.T, removing from each overloaded column the membership in the largest
    current row. Ties break toward the lowest index and all counts are re-read
    after every removal, so the pass is deterministic and each removal flips
    exactly one bit. Inactive (all-zero) columns are never touched.
    """
    per_client, per_cluster = th
    x = A.copy()
    while x.sum(axis=1).max(initial=0) > per_cluster or x.sum(axis=0).max(initial=0) > per_client:
        for lines, cap in ((x, per_cluster), (x.T, per_client)):  # x.T writes through to x
            for i in range(len(lines)):
                if lines[i].sum() > cap:
                    members = np.flatnonzero(lines[i])
                    counts = lines.sum(axis=0)[members]
                    lines[i, members[int(np.argmax(counts))]] = 0  # argmax keeps the first max
    return x


def membership_histograms(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cluster sizes, per-client membership counts) for reporting."""
    return x.sum(axis=1).astype(np.int64), x.sum(axis=0).astype(np.int64)
