"""Backdoor client behaviors: basic, alternate, distributed-trigger, sybil, adaptive.

Every attack degenerates to honest training when its knobs are neutral
(no poison, boost 1, pull 0), byte for byte under equal seeds. The
alternate family interleaves poison epochs with clean epochs that pull the
weights toward a benign-looking update; the adaptive variant additionally
edits the finished update's last-layer block to forge the server-side
class-sufficiency inference.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .config import SimConfig
from .data import LabeledDataset, TriggerPattern, concat_datasets
from .errors import TrainingError
from .inference import class_indicator, recover_last_layer_gradient
from .model import (ModelParams, Shapes, epoch_batches, finite_update, last_layer_weight_block,
                    local_train, loss_and_grad, sgd_step)


def make_poison_pool(base: LabeledDataset, trig: TriggerPattern) -> LabeledDataset:
    """Triggered copies of every base sample, all relabeled to the target."""
    return LabeledDataset(
        trig.apply(base.samples),
        np.full(base.size, trig.target_label, dtype=np.int64),
        base.num_classes,
    )


def _training_set(clean: LabeledDataset, poison: LabeledDataset, count: int) -> LabeledDataset:
    return concat_datasets([clean, poison.subset(np.arange(count))])


def basic_attack(
    global_params: ModelParams,
    clean: LabeledDataset,
    poison: LabeledDataset,
    cfg: SimConfig,
    seed: int,
) -> np.ndarray:
    """Plain data poisoning: honest SGD over clean + triggered records."""
    mixed = _training_set(clean, poison, cfg.poison_count)
    return local_train(global_params, mixed, cfg.epochs, cfg.lr_client, cfg.batch_size, seed)


def alternate_attack(
    global_params: ModelParams,
    clean: LabeledDataset,
    poison: LabeledDataset,
    benign_delta: np.ndarray,
    cfg: SimConfig,
    seed: int,
) -> np.ndarray:
    """Alternate poison epochs with stealth epochs, then boost the update.

    Even epochs run SGD on clean + poison (clean gradients scaled by
    lambda_clean). Odd epochs run SGD on clean data with each step pulled
    toward the benign anchor by min(2*lr*rho, 1) * (theta - anchor); the
    clip keeps the pull stable for arbitrarily large rho, and as rho grows
    the update converges to the anchor. The finished delta is scaled by the
    boost coefficient.
    """
    if clean.size < 1:
        raise TrainingError("attacker has no clean data")
    mixed = _training_set(clean, poison, cfg.poison_count)
    pull = min(2.0 * cfg.lr_client * cfg.stealth_rho, 1.0)
    rng = np.random.default_rng(seed)
    theta = global_params.copy()
    delta = np.zeros(global_params.dim)
    for h in range(cfg.epochs):
        stealth = h % 2 == 1
        data = clean if stealth else mixed
        weighted = not stealth and cfg.lambda_clean != 1.0
        for idx in epoch_batches(data.size, cfg.batch_size, rng):
            if weighted:
                grad = _weighted_grad(theta, data, idx, clean.size, cfg.lambda_clean)
            else:
                _, grad = loss_and_grad(theta, data.samples[idx], data.labels[idx])
            sgd_step(global_params, theta, delta, grad, cfg.lr_client, benign_delta,
                     pull if stealth else 0.0)
    return finite_update(delta * cfg.boost)


def _weighted_grad(theta: ModelParams, data: LabeledDataset, idx: slice | np.ndarray, n_clean: int,
                   lam: float) -> np.ndarray:
    """Batch gradient with clean samples (index < n_clean) weighted by lam."""
    idx = np.arange(data.size)[idx]
    clean_idx = idx[idx < n_clean]
    pois_idx = idx[idx >= n_clean]
    total = lam * clean_idx.size + pois_idx.size
    grad = np.zeros(theta.dim)
    if clean_idx.size:
        _, g = loss_and_grad(theta, data.samples[clean_idx], data.labels[clean_idx])
        grad += lam * clean_idx.size * g
    if pois_idx.size:
        _, g = loss_and_grad(theta, data.samples[pois_idx], data.labels[pois_idx])
        grad += pois_idx.size * g
    return grad / total


def sybil_updates(leader: np.ndarray, colluders: Sequence[int]) -> np.ndarray:
    """One row per selected colluder, each byte-identical to the leader's update."""
    return np.tile(leader, (len(colluders), 1))


# how far the forged indicator clears the threshold it has to beat
FORGE_MARGIN = 1.0


def forge_full_claim(delta: np.ndarray, shapes: Shapes, cfg: SimConfig) -> np.ndarray:
    """Rank-1 edit of the last-layer weight block inflating the class indicator.

    Adds the same constant to every row sum of the recovered gradient's
    negation, lifting all indicator entries above an absolute threshold so
    the client appears to hold sufficient data for every class. A uniform
    lift cannot beat the relative (mean-based) thresholds, which is exactly
    why clustering caps the forger's memberships like anyone else's.
    """
    lr = cfg.lr_client
    delta = np.asarray(delta, dtype=np.float64).copy()
    u = class_indicator(recover_last_layer_gradient(delta, shapes, lr))
    if cfg.threshold_mode == "absolute":
        target = cfg.beta
    else:
        target = float(u.max())
    shift = target + FORGE_MARGIN - float(u.min())
    if shift > 0.0:
        rows, cols = shapes[-1]
        block = last_layer_weight_block(delta, shapes)
        block += lr * shift / cols  # in-place on the flat vector's view
    return delta


def adaptive_attack(
    global_params: ModelParams,
    clean: LabeledDataset,
    poison: LabeledDataset,
    benign_delta: np.ndarray,
    cfg: SimConfig,
    seed: int,
) -> np.ndarray:
    """Alternate attack whose finished update also forges a full-class claim."""
    delta = alternate_attack(global_params, clean, poison, benign_delta, cfg, seed)
    return finite_update(forge_full_claim(delta, global_params.shapes, cfg))
