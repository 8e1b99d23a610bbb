"""Synthetic labeled data, non-IID partitioning, and trigger patterns.

Classes are isotropic unit-variance Gaussians around well-separated seeded
means, giving a task a linear model can learn. The partitioner mixes a
uniformly dealt portion with label-sorted shards; the shard fraction p is
the non-IID degree (0 = IID, 1 = fully label-skewed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .errors import ShapeError

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

    def apply(self, samples: np.ndarray) -> np.ndarray:
        """Copy of `samples` with the trigger values written in place."""
        out = samples.copy()
        out[:, self.indices] = self.values
        return out

    def part(self, parts: int, index: int) -> "TriggerPattern":
        """Contiguous sub-pattern `index` of `parts` (for distributed triggers)."""
        picked = np.array_split(np.arange(len(self.indices)), parts)[index]
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
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((live, m)))
    mu = np.zeros((m, r_in))
    mu[:, QUIET_DIMS:] = q.T * (MEAN_SEPARATION / np.sqrt(2.0))
    return mu


def gen_dataset(m: int, r_in: int, per_class: int, seed: int, means: np.ndarray) -> LabeledDataset:
    """per_class samples from each of m Gaussian classes (sigma = 1) around the (m, r_in) `means`.

    One set of class centers (`class_means`) shared by the train/test/aux
    splits, drawn with different seeds, makes them describe the same task.
    """
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
    m = clients[0].num_classes
    A = np.zeros((m, len(clients)), dtype=np.uint8)
    for j, ds in enumerate(clients):
        A[:, j] = (ds.class_counts() > tau).astype(np.uint8)
    return A


def concat_datasets(parts: Sequence[LabeledDataset]) -> LabeledDataset:
    """Stack datasets that share a class count."""
    return LabeledDataset(
        np.concatenate([ds.samples for ds in parts]),
        np.concatenate([ds.labels for ds in parts]),
        parts[0].num_classes,
    )


def stack_datasets(parts: Sequence[LabeledDataset]) -> Tuple[np.ndarray, np.ndarray]:
    """(K, n, width) samples and (K, n) labels of K datasets of one size n: a training stack."""
    return np.stack([ds.samples for ds in parts]), np.stack([ds.labels for ds in parts])
