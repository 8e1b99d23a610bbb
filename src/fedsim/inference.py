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
    -delta_block / lr. The bias block is ignored. An (n, d) matrix of
    updates gives one (m, h) block per row.
    """
    return -last_layer_weight_block(delta, shapes) / lr


def class_indicator(G: np.ndarray) -> np.ndarray:
    """Negated row sums of the accumulated gradient (..., m, h); larger means more samples.

    The block holds client-sent values, so it must be finite before any arithmetic reads it.
    """
    if not np.all(np.isfinite(G)):
        raise ShapeError("gradient block contains non-finite values")
    return -G.sum(axis=-1)


def infer_column(u: np.ndarray, threshold_mode: str, beta: float) -> np.ndarray:
    """Sufficiency bits, one row per client's indicator row of u: above the mode's threshold.

    "mean" and "mean_plus_std" derive each row's threshold from that row;
    "absolute" uses beta for every row.
    """
    if threshold_mode == "mean":
        beta = u.mean(axis=-1, keepdims=True)
    elif threshold_mode == "mean_plus_std":
        beta = u.mean(axis=-1, keepdims=True) + u.std(axis=-1, keepdims=True)
    return (u > beta).astype(np.uint8)


def distribution_accuracy(A: np.ndarray, A_hat: np.ndarray) -> float:
    """Fraction of matching elements between two non-empty bit matrices of one shape."""
    return float(np.mean(A == A_hat))
