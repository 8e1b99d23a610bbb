"""Reference robust aggregators: FedAvg, Krum, Median, Trimmed Mean, FLTrust.

Each takes the round's (n, d) update matrix and returns one aggregate update for
the server to apply. All are pure and order-invariant apart from Krum's
documented lowest-index tie rule.
"""

from __future__ import annotations

import numpy as np

from .trust import ZERO_NORM_EPS


def fedavg(updates: np.ndarray) -> np.ndarray:
    """Arithmetic mean of the update rows."""
    return updates.mean(axis=0)


def _gram_screen(mat: np.ndarray, f: int):
    """Each row's Krum score from the Gram identity, and a bound on its distance to the exact score.

    With G = mat @ mat.T and g its diagonal, the distance D_ij = g_i + g_j - 2 G_ij, and
    row i's score S_i sums its n-f-2 smallest off-diagonal D_ij. The exact score `krum`
    computes lies within E_i = 4 (d + n) (eps w_i + (n - 1) tiny) of S_i, where
    w_i = sum over j != i of (g_i + g_j). The bound holds for any summation order, so the
    BLAS kernel and its thread count do not matter. Derivation, with u = eps/2,
    gamma_m = m u / (1 - m u), N_i = |x_i|^2 and delta_ij = |x_i - x_j|^2 <= 2 (N_i + N_j):

    - a d-term dot product is within gamma_d sum_k |x_ik x_jk| <= gamma_d (N_i + N_j) / 2
      of its true value, so g_i is within gamma_d N_i and D_ij, after its two roundings,
      within (2 gamma_d + 3u) (N_i + N_j) of delta_ij;
    - the exact distance sums d nonnegative terms, each a rounded square of a rounded
      difference, so it is within gamma_{d+2} delta_ij <= 2 gamma_{d+2} (N_i + N_j);
    - the sum of the m <= n - 1 smallest values moves by at most the sum of the changes,
      and rounding each m-term score adds at most gamma_{m-1} sum |D_ij| <= 2 gamma_{n-2}
      (N_i + N_j) per term on either side.

    To first order the two scores differ by at most (2d + 2n - 1/2) eps w_i. The factor
    4 (d + n) doubles that, which covers the higher-order terms, the step from N_i to the
    computed g_i and the rounding of S_i +- E_i. A product or square that underflows errs
    by at most 2**-1075 instead of relatively, at most 5d times per distance, which the
    tiny term covers. When 4 w_i is not finite some square or sum may overflow, and the
    bound is NaN.
    """
    n, d = mat.shape
    eps, tiny = np.finfo(np.float64).eps, np.finfo(np.float64).tiny
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow makes the bound NaN
        gram = mat @ mat.T
        g = gram.diagonal()
        dist = (g[:, None] + g) - 2 * gram
        off = dist[~np.eye(n, dtype=bool)].reshape(n, n - 1)
        off.sort(axis=1)
        scores = off[:, : n - f - 2].sum(axis=1)
        w = (n - 2) * g + g.sum()
        bound = np.where(np.isfinite(4 * w), 4 * (d + n) * (eps * w + (n - 1) * tiny), np.nan)
    return scores, bound


def krum(updates: np.ndarray, f: int) -> np.ndarray:
    """The single update with the smallest summed squared distance to its n-f-2 nearest peers.

    Ties go to the lowest index. A row's exact distances are the row sums of
    `np.square(updates - updates[i])`, the arithmetic of the full n x n x d broadcast, so the
    choice is bit-identical to it. Only candidate rows get them: `_gram_screen` scores
    every row from one Gram matrix within a rigorous bound E, and a row whose interval
    [S - E, S + E] lies strictly above the least S + E scores strictly above the
    minimum, so the lowest-index minimum is always a candidate. A NaN bound keeps
    every row a candidate; at worst every row is one, which is n exact rows.
    """
    n = updates.shape[0]
    scores, bound = _gram_screen(updates, f)
    rows = np.flatnonzero(~(scores - bound > np.min(scores + bound)))
    buf = np.empty(updates.shape)  # C order, so each row sums in the broadcast's order
    exact = np.empty(len(rows))
    for s, i in enumerate(rows):
        np.subtract(updates, updates[i], out=buf)
        np.square(buf, out=buf)
        d = np.delete(np.add.reduce(buf, axis=1), i)
        d.sort()
        exact[s] = d[: n - f - 2].sum()
    return updates[rows[int(np.argmin(exact))]].copy()


def coordinate_median(updates: np.ndarray) -> np.ndarray:
    """Per-coordinate median (even counts average the two middle values).

    Byte for byte `np.median(updates, axis=0)` on finite updates: the mean of the same one
    or two middle values, which one sort finds where np.median partitions around three.
    """
    n = updates.shape[0]
    return np.sort(updates, axis=0)[(n - 1) // 2: n // 2 + 1].mean(axis=0)


def trimmed_mean(updates: np.ndarray, f: int) -> np.ndarray:
    """Per-coordinate mean after dropping the largest f and smallest f values."""
    n = updates.shape[0]
    if f == 0:
        return updates.mean(axis=0)
    s = np.sort(updates, axis=0)
    return s[f: n - f].mean(axis=0)


def fltrust(updates: np.ndarray, server_update: np.ndarray) -> np.ndarray:
    """Server-anchored trust weighting.

    Each client scores ReLU(cosine) against the server's own update on its
    auxiliary data and is rescaled to the server update's norm before the
    trust-weighted mean. If every score is zero the server update itself is
    returned.
    """
    s_norm = np.linalg.norm(server_update)
    if s_norm < ZERO_NORM_EPS:
        return server_update.copy()
    norms = np.linalg.norm(updates, axis=1)
    safe = np.maximum(norms, ZERO_NORM_EPS)
    cos = (updates @ server_update) / (safe * s_norm)
    cos[norms < ZERO_NORM_EPS] = 0.0
    ts = np.maximum(cos, 0.0)
    if ts.sum() <= 0:
        return server_update.copy()
    rescaled = updates * (s_norm / safe)[:, None]
    return (ts[:, None] * rescaled).sum(axis=0) / ts.sum()
