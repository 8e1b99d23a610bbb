"""Reference robust aggregators: FedAvg, Krum, Median, Trimmed Mean, FLTrust.

Each takes the round's update vectors and returns one aggregate update for
the server to apply. All are pure and order-invariant apart from Krum's
documented lowest-index tie rule.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .trust import ZERO_NORM_EPS


def _stack(updates) -> np.ndarray:
    mat = np.stack([np.asarray(u, dtype=np.float64) for u in updates])
    if mat.ndim != 2:
        raise ShapeError("updates must be flat vectors")
    return mat


def fedavg(updates) -> np.ndarray:
    """Arithmetic mean of the update vectors."""
    return _stack(updates).mean(axis=0)


def krum(updates, f: int) -> np.ndarray:
    """The single update with the smallest summed squared distance to its n-f-2 nearest peers.

    Distances are built one row at a time (n*d temporary memory, not n*n*d),
    bit-identical to the full broadcast.
    """
    mat = _stack(updates)
    n = mat.shape[0]
    sq = np.zeros((n, n))
    for i in range(n - 1):
        row = ((mat[i + 1:] - mat[i]) ** 2).sum(axis=1)
        sq[i, i + 1:] = row
        sq[i + 1:, i] = row
    scores = np.empty(n)
    for i in range(n):
        d = np.delete(sq[i], i)
        d.sort()
        scores[i] = d[: n - f - 2].sum()
    return mat[int(np.argmin(scores))].copy()


def coordinate_median(updates) -> np.ndarray:
    """Per-coordinate median (even counts average the two middle values)."""
    return np.median(_stack(updates), axis=0)


def trimmed_mean(updates, f: int) -> np.ndarray:
    """Per-coordinate mean after dropping the largest f and smallest f values."""
    mat = _stack(updates)
    n = mat.shape[0]
    if f == 0:
        return mat.mean(axis=0)
    s = np.sort(mat, axis=0)
    return s[f: n - f].mean(axis=0)


def fltrust(updates, server_update: np.ndarray) -> np.ndarray:
    """Server-anchored trust weighting.

    Each client scores ReLU(cosine) against the server's own update on its
    auxiliary data and is rescaled to the server update's norm before the
    trust-weighted mean. If every score is zero the server update itself is
    returned.
    """
    mat = _stack(updates)
    server_update = np.asarray(server_update, dtype=np.float64)
    if server_update.shape != mat.shape[1:]:
        raise ShapeError("server update length differs from client updates")
    s_norm = np.linalg.norm(server_update)
    if s_norm < ZERO_NORM_EPS:
        return server_update.copy()
    norms = np.linalg.norm(mat, axis=1)
    safe = np.maximum(norms, ZERO_NORM_EPS)
    cos = (mat @ server_update) / (safe * s_norm)
    cos[norms < ZERO_NORM_EPS] = 0.0
    ts = np.maximum(cos, 0.0)
    if ts.sum() <= 0:
        return server_update.copy()
    rescaled = mat * (s_norm / safe)[:, None]
    return (ts[:, None] * rescaled).sum(axis=0) / ts.sum()
