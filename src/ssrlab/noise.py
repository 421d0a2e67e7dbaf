"""Synthetic Gaussian datasets and label-noise injection.

Noise kinds: symmetric (uniform redraw over all classes), asymmetric (flip to
a fixed partner class per the pair map), and combined closed/open-set noise
where a fraction of the noisy samples has its feature vector swapped for an
out-of-distribution one while keeping the in-vocabulary label.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import OPEN_SET, NoisyDataset, check_fields, param
from .errors import ConfigError, DataError


@dataclass(frozen=True)
class NoiseSpec:
    kind: str = param("symmetric", ("symmetric", "asymmetric", "combined"))
    total_ratio: float = param(0.5, float, "[0, 1]")
    open_ratio: float = param(0.0, float, "[0, 1]")  # open-set fraction of the noise
    pair_map: Optional[tuple] = param(None, tuple, "[0, inf)")  # class -> partner
    seed: int = param(0, int, "[0, inf)")

    def __post_init__(self):
        check_fields(self)
        if self.open_ratio > 0 and self.kind != "combined":
            raise ConfigError("RANGE_ERROR", f"open_ratio={self.open_ratio!r} "
                              f"applies only to combined noise, not {self.kind!r}")
        if self.kind == "asymmetric" and self.pair_map is None:
            raise ConfigError("RANGE_ERROR",
                              "kind='asymmetric' needs a pair_map")


@dataclass(frozen=True)
class SynthSpec:
    num_classes: int = param(4, int, "[2, inf)")
    per_class: int = param(500, int, "[1, inf)")
    dim: int = param(16, int, "[1, inf)")
    separation: float = param(4.0, float, "[0, inf)")  # centre distance / std
    seed: int = param(0, int, "[0, inf)")
    ood_classes: int = param(4, int, "[0, inf)")  # clusters of the open-set pool
    holdout_fraction: float = param(0.1, float, "(0, 1)")
    class_counts: Optional[tuple] = param(None, tuple, "[1, inf)")  # overrides per_class

    def __post_init__(self):
        check_fields(self)
        m, counts = self.num_classes, self.class_counts
        if counts is not None and len(counts) != m:
            raise ConfigError("RANGE_ERROR", f"class_counts={counts!r} has "
                              f"{len(counts)} entries, num_classes={m}")
        # each class and open-set cluster has its own simplex axis
        if self.dim < m + self.ood_classes:
            raise ConfigError("RANGE_ERROR", f"dim={self.dim!r} is below "
                              f"num_classes + ood_classes = {m + self.ood_classes}")


@dataclass(frozen=True)
class SynthData:
    train: NoisyDataset
    test: NoisyDataset
    ood_pool: np.ndarray   # (P, d), empty when ood_classes = 0


def _simplex_centres(n_centres: int, dim: int, distance: float) -> np.ndarray:
    # scaled standard-basis layout: every pair of centres is `distance` apart
    centres = np.zeros((n_centres, dim))
    centres[np.arange(n_centres), np.arange(n_centres)] = distance / np.sqrt(2.0)
    return centres


def make_gaussian_dataset(spec: SynthSpec) -> SynthData:
    """Isotropic Gaussian clusters on a simplex layout, plus a clean holdout
    split and an out-of-distribution pool from extra centres."""
    rng = np.random.default_rng(spec.seed)
    m = spec.num_classes
    centres = _simplex_centres(m + spec.ood_classes, spec.dim, spec.separation)
    counts = spec.class_counts or (spec.per_class,) * m

    def draw(labels):
        return centres[labels] + rng.standard_normal((labels.size, spec.dim))

    train_labels = np.repeat(np.arange(m), counts)
    train_feats = draw(train_labels)
    test_counts = [max(1, round(spec.holdout_fraction * c)) for c in counts]
    test_labels = np.repeat(np.arange(m), test_counts)
    test_feats = draw(test_labels)
    # the last draw: with no open-set classes it is empty and takes no numbers
    ood_pool = draw(np.repeat(np.arange(m, m + spec.ood_classes), max(counts)))
    train = NoisyDataset(train_feats, train_labels, m, train_labels.copy())
    test = NoisyDataset(test_feats, test_labels, m, test_labels.copy())
    return SynthData(train, test, ood_pool)


def pair_map_fits(pair_map, num_classes: int) -> bool:
    """True iff pair_map maps each of num_classes classes to another class."""
    pm = np.asarray(pair_map)  # not cast: a partner past int64 is out of range
    return pm.shape == (num_classes,) and not np.any(
        (pm < 0) | (pm >= num_classes) | (pm == np.arange(num_classes)))


def apply_noise(dataset: NoisyDataset, spec: NoiseSpec,
                ood_pool: Optional[np.ndarray] = None) -> NoisyDataset:
    """Noisy copy of dataset drawn from default_rng(spec.seed). Asymmetric:
    int(total_ratio * size) members of each class flip to its partner. Else
    floor(total_ratio * N) samples are noisy: an open_ratio fraction swaps its
    features for distinct ood_pool rows (true label set to OPEN_SET), the rest
    redraws its label uniformly over all classes. Symmetric noise has
    open_ratio 0 and needs neither a pool nor true labels."""
    rng = np.random.default_rng(spec.seed)
    m = dataset.num_classes
    labels = dataset.observed_labels.copy()
    true = None if dataset.true_labels is None else dataset.true_labels.copy()
    feats = dataset.features
    if spec.kind == "asymmetric":
        if not pair_map_fits(spec.pair_map, m):
            raise DataError("MISSING_PAIR_MAP",
                            "pair map must map every class to a different class")
        for cls in range(m):
            members = np.flatnonzero(dataset.observed_labels == cls)
            n_flip = int(spec.total_ratio * members.size)
            if n_flip:
                chosen = rng.choice(members, size=n_flip, replace=False)
                labels[chosen] = spec.pair_map[cls]
        return NoisyDataset(feats, labels, m, true)
    n = dataset.n_samples
    n_total = int(spec.total_ratio * n)
    n_open = int(spec.open_ratio * n_total)
    idx = rng.permutation(n)[:n_total]
    if n_open:
        if true is None:
            raise DataError("MISSING_GROUND_TRUTH",
                            "open-set injection needs true labels to mark")
        pool_size = 0 if ood_pool is None else ood_pool.shape[0]
        if pool_size < n_open:
            raise DataError("OOD_POOL_TOO_SMALL",
                            f"need {n_open} pool vectors, have {pool_size}")
        if ood_pool.shape[1] != dataset.dim:
            raise DataError("SHAPE_MISMATCH", f"the open-set pool has "
                            f"{ood_pool.shape[1]} features, the dataset "
                            f"{dataset.dim}")
        picks = rng.permutation(pool_size)[:n_open]
        open_idx = idx[:n_open]
        feats = feats.copy()
        feats[open_idx] = ood_pool[picks]
        true[open_idx] = OPEN_SET
    closed = idx[n_open:]
    labels[closed] = rng.integers(0, m, size=closed.size)
    return NoisyDataset(feats, labels, m, true)
