"""Label-distribution inference from the last-layer block of a model update.

With cross-entropy loss the logits gradient for a sample is p - onehot(y),
negative only at the true class; with a ReLU penultimate layer the final
weight-matrix gradient row for class s therefore sums negative exactly when
s is well represented. Under plain SGD the update's last-layer block is
-lr times the summed per-step gradients, so the server can recover the
accumulated gradient from the update alone and threshold its negated row
sums into a per-client class-sufficiency column.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from .errors import ShapeError
from .model import last_layer_weight_block


def recover_last_layer_gradient(
    delta: np.ndarray, shapes: Sequence[Tuple[int, int]], lr: float
) -> np.ndarray:
    """Accumulated last-layer weight gradient implied by an SGD update.

    delta = -lr * sum of per-step gradients, so the accumulated gradient is
    -delta_block / lr. The bias block is ignored.
    """
    return -last_layer_weight_block(delta, shapes) / lr


def class_indicator(G: np.ndarray) -> np.ndarray:
    """Negated row sums of the accumulated gradient; larger means more samples."""
    G = np.asarray(G, dtype=np.float64)
    if G.ndim != 2:
        raise ShapeError("gradient block must be 2-D")
    if not np.all(np.isfinite(G)):
        raise ShapeError("gradient block contains non-finite values")
    return -G.sum(axis=1)


def infer_column(u: np.ndarray, threshold_mode: str, beta: float) -> np.ndarray:
    """Sufficiency bits for one client: u strictly above the mode's threshold.

    "mean" and "mean_plus_std" derive the threshold from u itself; "absolute"
    uses beta.
    """
    u = np.asarray(u, dtype=np.float64)
    if threshold_mode == "mean":
        beta = u.mean()
    elif threshold_mode == "mean_plus_std":
        beta = u.mean() + u.std()
    return (u > beta).astype(np.uint8)


def distribution_accuracy(A: np.ndarray, A_hat: np.ndarray) -> float:
    """Fraction of matching elements between two bit matrices."""
    A = np.asarray(A)
    A_hat = np.asarray(A_hat)
    if A.shape != A_hat.shape:
        raise ShapeError(f"shape mismatch: {A.shape} vs {A_hat.shape}")
    if A.size == 0:
        raise ShapeError("empty matrices have no accuracy")
    return float(np.mean(A == A_hat))
