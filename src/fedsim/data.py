"""Synthetic labeled data, non-IID partitioning, and trigger patterns.

Classes are isotropic unit-variance Gaussians around well-separated seeded
means, giving a task a linear model can learn. The partitioner mixes a
uniformly dealt portion with label-sorted shards; the shard fraction p is
the non-IID degree (0 = IID, 1 = fully label-skewed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, ShapeError

# pairwise distance between class means, in units of the noise sigma
MEAN_SEPARATION = 4.5

# leading feature coordinates that carry no class signal -- the tabular
# analog of an image's background corner, where trigger patches live
QUIET_DIMS = 4


@dataclass
class LabeledDataset:
    """Feature matrix with integer labels in [0, num_classes)."""

    samples: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.samples.ndim != 2:
            raise ShapeError("samples must be a 2-D array")
        if self.samples.shape[0] != self.labels.shape[0]:
            raise ShapeError("samples and labels disagree on length")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ShapeError("labels out of range")

    @property
    def size(self) -> int:
        return self.samples.shape[0]

    @property
    def input_dim(self) -> int:
        return self.samples.shape[1]

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.num_classes)

    def subset(self, idx: np.ndarray) -> "LabeledDataset":
        return LabeledDataset(self.samples[idx], self.labels[idx], self.num_classes)


@dataclass
class TriggerPattern:
    """Fixed feature overwrite plus the label the attacker wants predicted."""

    indices: Tuple[int, ...]
    values: Tuple[float, ...]
    target_label: int

    def __post_init__(self):
        self.indices = tuple(int(i) for i in self.indices)
        self.values = tuple(float(v) for v in self.values)
        if len(self.indices) != len(self.values):
            raise ConfigError("trigger indices and values must have equal length")
        if len(set(self.indices)) != len(self.indices):
            raise ConfigError("trigger indices must be distinct")
        if any(i < 0 for i in self.indices):
            raise ConfigError("trigger indices must be non-negative")

    def apply(self, samples: np.ndarray) -> np.ndarray:
        """Copy of `samples` with the trigger values written in place."""
        out = np.array(samples, dtype=np.float64, copy=True)
        if self.indices and max(self.indices) >= out.shape[1]:
            raise ConfigError("trigger index beyond feature width")
        out[:, list(self.indices)] = list(self.values)
        return out

    def part(self, parts: int, index: int) -> "TriggerPattern":
        """Contiguous sub-pattern `index` of `parts` (for distributed triggers)."""
        if parts < 1 or not (0 <= index < parts):
            raise ConfigError("invalid trigger part request")
        chunks = np.array_split(np.arange(len(self.indices)), parts)
        picked = chunks[index]
        if picked.size == 0:
            raise ConfigError(f"trigger part {index} of {parts} is empty")
        return TriggerPattern(
            tuple(self.indices[i] for i in picked),
            tuple(self.values[i] for i in picked),
            self.target_label,
        )


def class_means(m: int, r_in: int, seed: int) -> np.ndarray:
    """Seeded random orthonormal class means scaled to pairwise distance MEAN_SEPARATION.

    A randomly rotated orthonormal frame keeps every pair of classes equally
    far apart, so no class is intrinsically harder than another; that keeps
    per-class gradient residuals comparable, which the label-distribution
    inference depends on. The first QUIET_DIMS coordinates are left at zero
    for every class (pure background noise dimensions).
    """
    live = r_in - QUIET_DIMS
    if m > live:
        raise ConfigError(f"cannot place {m} orthonormal means in {live} live dimensions")
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((live, m)))
    mu = np.zeros((m, r_in))
    mu[:, QUIET_DIMS:] = q.T * (MEAN_SEPARATION / np.sqrt(2.0))
    return mu


def gen_dataset(
    m: int,
    r_in: int,
    per_class: int,
    seed: int,
    means: Optional[np.ndarray] = None,
) -> LabeledDataset:
    """per_class samples from each of m Gaussian classes (sigma = 1).

    Passing `means` reuses a fixed set of class centers so train/test/aux
    splits drawn with different seeds describe the same task.
    """
    if m < 2:
        raise ConfigError("need at least two classes")
    if per_class < 1:
        raise ConfigError("per_class must be >= 1")
    if means is None:
        means = class_means(m, r_in, seed)
    means = np.asarray(means, dtype=np.float64)
    if means.shape != (m, r_in):
        raise ShapeError("means shape must be (m, r_in)")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((m * per_class, r_in)) + np.repeat(means, per_class, axis=0)
    y = np.repeat(np.arange(m), per_class)
    order = rng.permutation(m * per_class)
    return LabeledDataset(x[order], y[order], m)


def partition_noniid(
    data: LabeledDataset, n: int, p: float, shards: int, seed: int
) -> List[LabeledDataset]:
    """Split `data` over n clients: (1-p) dealt uniformly, p via label-sorted shards.

    The sorted portion is cut into `shards` contiguous groups after a stable
    sort by label; each client receives shards/n whole shards. The union of
    the client datasets is exactly the input multiset.
    """
    if not (0.0 <= p <= 1.0):
        raise ConfigError("non-IID degree p must be in [0, 1]")
    if shards % n != 0:
        raise ConfigError(f"shards ({shards}) must be divisible by n ({n})")
    rng = np.random.default_rng(seed)
    N = data.size

    # split each class p/(1-p) separately so the sorted pool keeps the source
    # class balance and shard boundaries line up with class boundaries
    uniform_parts = []
    sorted_parts = []
    for c in range(data.num_classes):
        members = rng.permutation(np.flatnonzero(data.labels == c))
        take = int(round(p * members.size))
        sorted_parts.append(members[:take])
        uniform_parts.append(members[take:])
    uniform_idx = rng.permutation(np.concatenate(uniform_parts))
    sorted_pool = np.concatenate(sorted_parts)
    n_sorted = sorted_pool.size

    assign: List[List[np.ndarray]] = [[] for _ in range(n)]
    # uniform portion: deal a shuffled list round-robin so totals stay even
    for j in range(n):
        assign[j].append(uniform_idx[j::n])

    if n_sorted > 0:
        by_label = sorted_pool[np.argsort(data.labels[sorted_pool], kind="stable")]
        shard_list = np.array_split(by_label, shards)
        shard_order = rng.permutation(shards)
        per_client = shards // n
        for j in range(n):
            for s in shard_order[j * per_client:(j + 1) * per_client]:
                assign[j].append(shard_list[s])

    return [data.subset(np.concatenate(parts)) for parts in assign]


def ground_truth_abstract(clients: Sequence[LabeledDataset], tau: int) -> np.ndarray:
    """uint8 bit matrix A with A[i, j] = 1 iff client j holds more than tau class-i records."""
    if tau < 0:
        raise ConfigError("tau must be >= 0")
    if not clients:
        raise ConfigError("need at least one client dataset")
    m = clients[0].num_classes
    A = np.zeros((m, len(clients)), dtype=np.uint8)
    for j, ds in enumerate(clients):
        A[:, j] = (ds.class_counts() > tau).astype(np.uint8)
    return A


def concat_datasets(parts: Sequence[LabeledDataset]) -> LabeledDataset:
    """Stack datasets that share a class count."""
    if not parts:
        raise ConfigError("nothing to concatenate")
    m = parts[0].num_classes
    if any(ds.num_classes != m for ds in parts):
        raise ShapeError("datasets disagree on class count")
    return LabeledDataset(
        np.concatenate([ds.samples for ds in parts]),
        np.concatenate([ds.labels for ds in parts]),
        m,
    )
