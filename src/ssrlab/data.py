"""Core dataset and label-state containers shared by all modules."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, DataError

# Reserved sentinel for out-of-vocabulary true labels; never a valid working label.
OPEN_SET = -1


@dataclass(frozen=True)
class NoisyDataset:
    """N feature embeddings with observed (possibly wrong) labels.

    Checked when built: the first violated invariant raises DataError.
    ``true_labels`` is evaluation-only, as is ``is_noisy``, which is derived
    from it: the selection and relabelling machinery reads neither. Class
    indices are 0-based; ``true_labels`` may contain the OPEN_SET sentinel for
    samples whose true content belongs to no task class.
    """

    features: np.ndarray           # (N, d) float64
    observed_labels: np.ndarray    # (N,) int64 in [0, M)
    num_classes: int
    true_labels: Optional[np.ndarray] = None   # (N,) int64, OPEN_SET allowed

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        obs = np.asarray(self.observed_labels, dtype=np.int64)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "observed_labels", obs)
        if feats.ndim != 2:
            raise DataError("SHAPE_MISMATCH",
                            f"features must be 2-D, got ndim={feats.ndim}")
        n, d = feats.shape
        if n == 0:
            raise DataError("EMPTY_DATASET", "dataset has no samples")
        if d == 0:
            raise DataError("SHAPE_MISMATCH", "feature dimension is 0")
        m = self.num_classes
        if m < 2:
            raise DataError("SHAPE_MISMATCH", f"num_classes must be >= 2, got {m}")
        if obs.shape != (n,):
            raise DataError("SHAPE_MISMATCH",
                            f"observed_labels shape {obs.shape} != ({n},)")
        bad = np.flatnonzero((obs < 0) | (obs >= m))
        if bad.size:
            i = int(bad[0])
            raise DataError("LABEL_OUT_OF_RANGE",
                            f"observed label {obs[i]} at index {i} not in [0, {m})")
        if self.true_labels is not None:
            tl = np.asarray(self.true_labels, dtype=np.int64)
            object.__setattr__(self, "true_labels", tl)
            if tl.shape != (n,):
                raise DataError("SHAPE_MISMATCH",
                                f"true_labels shape {tl.shape} != ({n},)")
            bad = np.flatnonzero((tl != OPEN_SET) & ((tl < 0) | (tl >= m)))
            if bad.size:
                i = int(bad[0])
                raise DataError("LABEL_OUT_OF_RANGE",
                                f"true label {tl[i]} at index {i} not in [0, {m})")

    @property
    def is_noisy(self) -> Optional[np.ndarray]:
        """(N,) bool, true where the observed label is not the true one;
        None without true labels."""
        if self.true_labels is None:
            return None
        return self.true_labels != self.observed_labels

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class LabelState:
    """Current working labels, the relabel mask, and per-class counts.

    Immutable; a fresh state is produced each epoch rather than mutated.
    """

    working_labels: np.ndarray   # (N,) int64
    relabel_mask: np.ndarray     # (N,) bool, true where working != observed
    class_counts: np.ndarray     # (M,) int64

    @classmethod
    def from_working(cls, working_labels, observed_labels, num_classes: int) -> "LabelState":
        working = np.asarray(working_labels, dtype=np.int64)
        observed = np.asarray(observed_labels, dtype=np.int64)
        counts = np.bincount(working, minlength=num_classes).astype(np.int64)
        return cls(working, working != observed, counts)


_FC_DISTANCES = ("cosine", "l2")


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one experiment; defaults follow the method's defaults."""

    theta_s: float = 1.0         # selection threshold on consistency, [0, 1]
    theta_r: float = 0.9         # relabel confidence threshold, (0, 1]
    k_neighbours: int = 100
    lambda_fc: float = 1.0       # weight of the feature-consistency loss
    mixup_alpha: float = 0.5     # Beta(alpha, alpha) mixup; 0 turns mixup off
    learning_rate: float = 0.02
    momentum: float = 0.9
    weight_decay: float = 5e-4
    epochs: int = 30
    batch_size: int = 128
    seed: int = 0
    fc_distance: str = "cosine"  # "cosine" | "l2"
    hidden_dims: tuple = (64, 32)
    sigma_strong: float = 0.1    # feature-jitter scale, fraction of per-dim std
    sigma_weak: float = 0.02
    balance_voting: bool = True
    oversample: bool = True
    stop_gradient: bool = True

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(self.hidden_dims))
        def bad(msg):
            raise ConfigError("RANGE_ERROR", msg)
        if not 0.0 <= self.theta_s <= 1.0:
            bad(f"theta_s={self.theta_s} not in [0, 1]")
        if not 0.0 < self.theta_r <= 1.0:
            bad(f"theta_r={self.theta_r} not in (0, 1]")
        if self.k_neighbours < 1:
            bad(f"k_neighbours={self.k_neighbours} must be >= 1")
        if self.lambda_fc < 0:
            bad(f"lambda_fc={self.lambda_fc} must be >= 0")
        if self.mixup_alpha < 0:
            bad(f"mixup_alpha={self.mixup_alpha} must be >= 0")
        if self.learning_rate <= 0:
            bad(f"learning_rate={self.learning_rate} must be > 0")
        if not 0.0 <= self.momentum < 1.0:
            bad(f"momentum={self.momentum} not in [0, 1)")
        if self.weight_decay < 0:
            bad(f"weight_decay={self.weight_decay} must be >= 0")
        if self.epochs < 1:
            bad(f"epochs={self.epochs} must be >= 1")
        if self.batch_size < 1:
            bad(f"batch_size={self.batch_size} must be >= 1")
        if self.fc_distance not in _FC_DISTANCES:
            bad(f"fc_distance={self.fc_distance!r} not in {_FC_DISTANCES}")
        if self.sigma_strong < 0 or self.sigma_weak < 0:
            bad("jitter sigmas must be >= 0")
        if not self.hidden_dims or any(h < 1 for h in self.hidden_dims):
            bad(f"hidden_dims={self.hidden_dims} must be positive")
