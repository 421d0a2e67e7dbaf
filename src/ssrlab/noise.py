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

from .data import OPEN_SET, NoisyDataset
from .errors import ConfigError, DataError

_NOISE_KINDS = ("symmetric", "asymmetric", "combined")


@dataclass(frozen=True)
class NoiseSpec:
    kind: str = "symmetric"
    total_ratio: float = 0.5
    open_ratio: float = 0.0          # fraction of noisy samples that are open-set
    pair_map: Optional[tuple] = None  # class -> partner class, asymmetric only
    seed: int = 0

    def __post_init__(self):
        if self.kind not in _NOISE_KINDS:
            raise ConfigError("RANGE_ERROR", f"noise kind {self.kind!r} unknown")
        if not 0.0 <= self.total_ratio <= 1.0:
            raise ConfigError("RANGE_ERROR", f"total_ratio={self.total_ratio}")
        if not 0.0 <= self.open_ratio <= 1.0:
            raise ConfigError("RANGE_ERROR", f"open_ratio={self.open_ratio}")
        if self.open_ratio > 0 and self.kind != "combined":
            raise ConfigError("RANGE_ERROR",
                              "open_ratio only applies to combined noise")
        if self.pair_map is not None:
            object.__setattr__(self, "pair_map", tuple(int(v) for v in self.pair_map))


@dataclass(frozen=True)
class SynthSpec:
    num_classes: int = 4
    per_class: int = 500
    dim: int = 16
    separation: float = 4.0      # inter-centre distance over within-class std
    seed: int = 0
    ood_classes: int = 4         # extra clusters feeding the open-set pool
    holdout_fraction: float = 0.1
    class_counts: Optional[tuple] = None  # overrides per_class when imbalanced

    def __post_init__(self):
        if self.num_classes < 2:
            raise ConfigError("RANGE_ERROR", "num_classes must be >= 2")
        if self.per_class < 1:
            raise ConfigError("RANGE_ERROR", "per_class must be >= 1")
        if self.separation < 0:
            raise ConfigError("RANGE_ERROR", "separation must be >= 0")
        if self.ood_classes < 0:
            raise ConfigError("RANGE_ERROR", "ood_classes must be >= 0")
        if not 0.0 < self.holdout_fraction < 1.0:
            raise ConfigError("RANGE_ERROR", "holdout_fraction must be in (0, 1)")
        if self.class_counts is not None:
            cc = tuple(int(v) for v in self.class_counts)
            if len(cc) != self.num_classes or any(v < 1 for v in cc):
                raise ConfigError("RANGE_ERROR", "bad class_counts")
            object.__setattr__(self, "class_counts", cc)


@dataclass(frozen=True)
class SynthData:
    train: NoisyDataset
    test: NoisyDataset
    ood_pool: np.ndarray   # (P, d), empty when ood_classes = 0


def _simplex_centres(n_centres: int, dim: int, distance: float) -> np.ndarray:
    # scaled standard-basis layout: every pair of centres is `distance` apart
    if dim < n_centres:
        raise DataError("SHAPE_MISMATCH",
                        f"dim={dim} too small for {n_centres} simplex centres")
    centres = np.zeros((n_centres, dim))
    centres[np.arange(n_centres), np.arange(n_centres)] = distance / np.sqrt(2.0)
    return centres


def make_gaussian_dataset(spec: SynthSpec) -> SynthData:
    """Isotropic Gaussian clusters on a simplex layout, plus a clean holdout
    split and an out-of-distribution pool from extra centres."""
    rng = np.random.default_rng(spec.seed)
    m = spec.num_classes
    centres = _simplex_centres(m + spec.ood_classes, spec.dim,
                               spec.separation * 1.0)
    counts = spec.class_counts or (spec.per_class,) * m

    def draw(labels):
        return centres[labels] + rng.standard_normal((labels.size, spec.dim))

    train_labels = np.repeat(np.arange(m), counts)
    train_feats = draw(train_labels)
    test_counts = [max(1, round(spec.holdout_fraction * c)) for c in counts]
    test_labels = np.repeat(np.arange(m), test_counts)
    test_feats = draw(test_labels)
    pool_size = max(counts)
    if spec.ood_classes > 0:
        ood_labels = np.repeat(np.arange(m, m + spec.ood_classes), pool_size)
        ood_pool = draw(ood_labels)
    else:
        ood_pool = np.zeros((0, spec.dim))
    train = NoisyDataset(train_feats, train_labels, m, train_labels.copy())
    test = NoisyDataset(test_feats, test_labels, m, test_labels.copy())
    return SynthData(train, test, ood_pool)


def _check_ratio(name: str, ratio: float) -> None:
    if not 0.0 <= ratio <= 1.0:
        raise ConfigError("RANGE_ERROR", f"{name}={ratio} not in [0, 1]")


def inject_asymmetric(dataset: NoisyDataset, ratio: float, pair_map, rng) -> NoisyDataset:
    """Flip a ratio-fraction of each mapped class to its partner class."""
    _check_ratio("ratio", ratio)
    if pair_map is None:
        raise DataError("MISSING_PAIR_MAP", "asymmetric noise needs a pair map")
    m = dataset.num_classes
    pm = np.asarray(pair_map, dtype=np.int64)
    if pm.shape != (m,) or np.any((pm < 0) | (pm >= m)) or np.any(pm == np.arange(m)):
        raise DataError("MISSING_PAIR_MAP",
                        "pair map must map every class to a different class")
    labels = dataset.observed_labels.copy()
    for cls in range(m):
        members = np.flatnonzero(dataset.observed_labels == cls)
        n_flip = int(ratio * members.size)
        if n_flip:
            chosen = rng.choice(members, size=n_flip, replace=False)
            labels[chosen] = pm[cls]
    true = None if dataset.true_labels is None else dataset.true_labels.copy()
    return NoisyDataset(dataset.features, labels, dataset.num_classes, true)


def inject_combined(dataset: NoisyDataset, ood_pool: np.ndarray, total_ratio: float,
                    open_ratio: float, rng) -> NoisyDataset:
    """Make floor(total_ratio*N) samples noisy: an open_ratio fraction has its
    feature vector replaced by a distinct pool vector (observed label kept,
    true label set to OPEN_SET); the rest has its label redrawn uniformly
    over all classes, which may give back the true label. With open_ratio 0
    this is symmetric noise, and needs neither a pool nor true labels."""
    _check_ratio("total_ratio", total_ratio)
    _check_ratio("open_ratio", open_ratio)
    n = dataset.n_samples
    n_total = int(total_ratio * n)
    n_open = int(open_ratio * n_total)
    feats = dataset.features
    labels = dataset.observed_labels.copy()
    true = None if dataset.true_labels is None else dataset.true_labels.copy()
    idx = rng.permutation(n)[:n_total]
    if n_open:
        if true is None:
            raise DataError("MISSING_GROUND_TRUTH",
                            "open-set injection needs true labels to mark")
        if ood_pool.shape[0] < n_open:
            raise DataError("OOD_POOL_TOO_SMALL",
                            f"need {n_open} pool vectors, have {ood_pool.shape[0]}")
        picks = rng.permutation(ood_pool.shape[0])[:n_open]
        open_idx = idx[:n_open]
        feats = feats.copy()
        feats[open_idx] = ood_pool[picks]
        true[open_idx] = OPEN_SET
    closed = idx[n_open:]
    labels[closed] = rng.integers(0, dataset.num_classes, size=closed.size)
    return NoisyDataset(feats, labels, dataset.num_classes, true)


def apply_noise(dataset: NoisyDataset, spec: NoiseSpec,
                ood_pool: Optional[np.ndarray] = None) -> NoisyDataset:
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "asymmetric":
        return inject_asymmetric(dataset, spec.total_ratio, spec.pair_map, rng)
    if ood_pool is None:
        ood_pool = np.zeros((0, dataset.dim))
    # symmetric noise is combined noise with no open set (NoiseSpec keeps
    # open_ratio at 0 for it)
    return inject_combined(dataset, ood_pool, spec.total_ratio,
                           spec.open_ratio, rng)
