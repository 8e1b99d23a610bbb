"""Backdoor client behaviors: basic, alternate, distributed-trigger, sybil, adaptive.

Every attack trains K attackers whose clean sets share one size as one stack
and returns (K, d): row k is byte for byte attacker k's update trained alone,
left unchecked for the caller to name. The round loop hands over each
attacker's clean and poisoned sets; the functions here only train. Each
degenerates to honest training when its knobs are neutral (no poison, boost
1, pull 0), byte for byte under equal seeds. The alternate family interleaves
poison epochs with clean epochs pulled toward a benign-looking update; the
adaptive variant additionally forges each update's class-sufficiency claim.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .config import SimConfig
from .data import LabeledDataset, TriggerPattern, stack_datasets
from .inference import class_indicator, recover_last_layer_gradient
from .model import ModelParams, Shapes, last_layer_weight_block, local_train, sgd_train

# the attack surface; local_train stays while perfbench's tracer tests expect
# to find it bound here, as in the package root
__all__ = [
    "FORGE_MARGIN",
    "adaptive_attack",
    "alternate_attack",
    "basic_attack",
    "forge_full_claim",
    "local_train",
    "make_poison_pool",
    "sybil_updates",
]


def make_poison_pool(base: LabeledDataset, trig: TriggerPattern) -> LabeledDataset:
    """Triggered copies of every base sample, all relabeled to the target."""
    return LabeledDataset(
        trig.apply(base.samples),
        np.full(base.size, trig.target_label, dtype=np.int64),
        base.num_classes,
    )


def basic_attack(
    global_params: ModelParams,
    poisoned: Sequence[LabeledDataset],
    cfg: SimConfig,
    seeds: Sequence[int],
) -> np.ndarray:
    """Plain data poisoning: honest SGD over each attacker's poisoned set.

    Attacker k trains with a generator seeded by seeds[k].
    """
    return sgd_train(global_params, *stack_datasets(poisoned), cfg.epochs, cfg.lr_client,
                     cfg.batch_size, [np.random.default_rng(seed) for seed in seeds])


def alternate_attack(
    global_params: ModelParams,
    cleans: Sequence[LabeledDataset],
    poisoned: Sequence[LabeledDataset],
    anchors: np.ndarray,
    cfg: SimConfig,
    seeds: Sequence[int],
) -> np.ndarray:
    """Alternate poison epochs with stealth epochs, then boost the updates.

    Each epoch is one `sgd_train` call that resumes the last one's delta; attacker k draws
    from a generator seeded by seeds[k]. Even epochs train on the poisoned sets, odd epochs
    train on clean data with each step pulled toward row k of the (K, d) benign `anchors` by
    min(2*lr*rho, 1) * (theta - anchor); the clip keeps the pull stable for any rho, and as
    rho grows the update converges to the anchor. The finished delta is scaled by the boost.
    """
    clean = stack_datasets(cleans)
    mixed = stack_datasets(poisoned)
    pull = min(2.0 * cfg.lr_client * cfg.stealth_rho, 1.0)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    delta = None
    for h in range(cfg.epochs):
        (x, y), epoch_pull = (clean, pull) if h % 2 else (mixed, 0.0)
        delta = sgd_train(global_params, x, y, 1, cfg.lr_client, cfg.batch_size, rngs, anchors,
                          epoch_pull, delta)
    return delta * cfg.boost


def sybil_updates(leader: np.ndarray, colluders: Sequence[int]) -> np.ndarray:
    """One row per selected colluder, each byte-identical to the leader's one-row update."""
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
    delta = delta.copy()
    u = class_indicator(recover_last_layer_gradient(delta, shapes, lr))
    if cfg.threshold_mode == "absolute":
        target = cfg.beta
    else:
        target = float(u.max())
    shift = target + FORGE_MARGIN - float(u.min())
    if shift > 0.0:
        cols = shapes[-1][1]
        block = last_layer_weight_block(delta, shapes)
        block += lr * shift / cols  # in-place on the flat vector's view
    return delta


def adaptive_attack(
    global_params: ModelParams,
    cleans: Sequence[LabeledDataset],
    poisoned: Sequence[LabeledDataset],
    anchors: np.ndarray,
    cfg: SimConfig,
    seeds: Sequence[int],
) -> np.ndarray:
    """Alternate attack whose finite updates also forge a full-class claim, each its own."""
    rows = alternate_attack(global_params, cleans, poisoned, anchors, cfg, seeds)
    for k in np.flatnonzero(np.isfinite(rows).all(axis=1)):
        rows[k] = forge_full_claim(rows[k], global_params.shapes, cfg)
    return rows
