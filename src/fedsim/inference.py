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

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import ConfigError, ShapeError
from .model import last_layer_weight_block

THRESHOLD_MODES = ("mean", "mean_plus_std", "absolute")


@dataclass
class InferenceConfig:
    """Threshold rule for turning an indicator vector into sufficiency bits."""

    threshold_mode: str = "mean"
    beta: float = 0.0          # used by the absolute mode
    client_lr: float = 0.05    # protocol learning rate, for gradient recovery

    def __post_init__(self):
        if self.threshold_mode not in THRESHOLD_MODES:
            raise ConfigError(f"unknown threshold mode {self.threshold_mode!r}")
        if not np.isfinite(self.beta):
            raise ConfigError("beta must be finite")
        if self.client_lr <= 0:
            raise ConfigError("client learning rate must be positive")


def recover_last_layer_gradient(
    delta: np.ndarray, shapes: Sequence[Tuple[int, int]], lr: float
) -> np.ndarray:
    """Accumulated last-layer weight gradient implied by an SGD update.

    delta = -lr * sum of per-step gradients, so the accumulated gradient is
    -delta_block / lr. The bias block is ignored.
    """
    if lr <= 0:
        raise ConfigError("learning rate must be positive to recover gradients")
    return -last_layer_weight_block(delta, shapes) / lr


def class_indicator(G: np.ndarray) -> np.ndarray:
    """Negated row sums of the accumulated gradient; larger means more samples."""
    G = np.asarray(G, dtype=np.float64)
    if G.ndim != 2:
        raise ShapeError("gradient block must be 2-D")
    if not np.all(np.isfinite(G)):
        raise ShapeError("gradient block contains non-finite values")
    return -G.sum(axis=1)


def infer_column(u: np.ndarray, cfg: InferenceConfig) -> np.ndarray:
    """Sufficiency bits for one client: u strictly above the configured threshold."""
    u = np.asarray(u, dtype=np.float64)
    if cfg.threshold_mode == "mean":
        beta = u.mean()
    elif cfg.threshold_mode == "mean_plus_std":
        beta = u.mean() + u.std()
    else:
        beta = cfg.beta
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
