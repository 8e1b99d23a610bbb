"""Reference robust aggregators: FedAvg, Krum, Median, Trimmed Mean, FLTrust.

Each takes the round's update vectors and returns one aggregate update for
the server to apply. All are pure and order-invariant apart from Krum's
documented lowest-index tie rule.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ShapeError


def _stack(updates) -> np.ndarray:
    if len(updates) < 1:
        raise ConfigError("need at least one update to aggregate")
    mat = np.stack([np.asarray(u, dtype=np.float64) for u in updates])
    if mat.ndim != 2:
        raise ShapeError("updates must be flat vectors")
    return mat


def fedavg(updates) -> np.ndarray:
    """Arithmetic mean of the update vectors."""
    return _stack(updates).mean(axis=0)


def krum(updates, f: int) -> np.ndarray:
    """The single update with the smallest summed squared distance to its n-f-2 nearest peers."""
    mat = _stack(updates)
    n = mat.shape[0]
    if n < 2 * f + 3:
        raise ConfigError(f"krum needs n >= 2f+3 (got n={n}, f={f})")
    sq = ((mat[:, None, :] - mat[None, :, :]) ** 2).sum(axis=2)
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
    if n <= 2 * f:
        raise ConfigError(f"trimmed mean needs n > 2f (got n={n}, f={f})")
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
    if s_norm < 1e-12:
        return server_update.copy()
    norms = np.linalg.norm(mat, axis=1)
    safe = np.maximum(norms, 1e-12)
    cos = (mat @ server_update) / (safe * s_norm)
    cos[norms < 1e-12] = 0.0
    ts = np.maximum(cos, 0.0)
    if ts.sum() <= 0:
        return server_update.copy()
    rescaled = mat * (s_norm / safe)[:, None]
    return (ts[:, None] * rescaled).sum(axis=0) / ts.sum()
