"""Core dataset and label-state containers shared by all modules."""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .errors import ConfigError, DataError, NumericError

# Reserved sentinel for out-of-vocabulary true labels; never a valid working label.
OPEN_SET = -1

F32_MAX = float(np.finfo(np.float32).max)


@dataclass(frozen=True)
class NoisyDataset:
    """N feature embeddings with observed (possibly wrong) labels.

    Checked when built: the first violated invariant raises DataError, or
    NumericError (NON_FINITE_INPUT) for a feature that is not a finite float32.
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
        # SSRD stores the features as float32 and the model trains in it; the
        # two bounds hold no (N, d) temporary, and a NaN fails both
        if not (feats.max() <= F32_MAX and -F32_MAX <= feats.min()):
            row = np.flatnonzero(~(np.abs(feats) <= F32_MAX).all(axis=1))[0]
            raise NumericError("NON_FINITE_INPUT",
                               f"feature row {row} is not finite in float32")
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


class Param:
    """The kind and range of one config field. ``kind`` is ``int`` (NumPy
    integers count, a bool does not), ``float`` (finite; an int is accepted),
    ``bool``, ``tuple`` (a non-empty list or tuple of ints) or a tuple of the
    allowed strings; ``bounds`` is an interval, "(0, 1]" or "[1, inf)", on a
    number or on each item of a tuple, and NaN is in none. A value is checked
    against its kind, never converted to it."""

    def __init__(self, kind, bounds: str = "(-inf, inf)"):
        self.kind, self.bounds = kind, bounds
        lo, hi = (float(b) for b in bounds[1:-1].split(","))
        # an open end moves to the nearest float inside it, so "inf)" also
        # turns away an int too large for a float
        self.lo = math.nextafter(lo, math.inf) if bounds[0] == "(" else lo
        self.hi = math.nextafter(hi, -math.inf) if bounds[-1] == ")" else hi

    def __str__(self) -> str:
        if self.kind is bool or isinstance(self.kind, tuple):
            return "bool" if self.kind is bool else f"one of {self.kind}"
        name = "non-empty list of int" if self.kind is tuple else self.kind.__name__
        return f"{name} in {self.bounds}"

    def accepts(self, value, kind=None) -> bool:
        kind = kind or self.kind
        if kind is bool:
            return isinstance(value, bool)
        if isinstance(kind, tuple):
            return isinstance(value, str) and value in kind
        if kind is tuple:
            return (isinstance(value, (list, tuple)) and len(value) > 0
                    and all(self.accepts(v, int) for v in value))
        return (isinstance(value, numbers.Integral if kind is int else numbers.Real)
                and not isinstance(value, bool) and self.lo <= value <= self.hi)

    def check(self, name: str, value) -> None:
        if not self.accepts(value):
            raise ConfigError("RANGE_ERROR", f"{name}={value!r}, expected {self}")


def param(default, kind, bounds: str = "(-inf, inf)"):
    """A dataclass field whose Param check_fields checks."""
    return field(default=default, metadata={"param": Param(kind, bounds)})


def check_fields(spec) -> None:
    """Check each field against its Param; None passes where it is the
    default, and a list becomes a tuple."""
    for f in fields(spec):
        value = getattr(spec, f.name)
        if value is None and f.default is None:
            continue
        f.metadata["param"].check(f.name, value)
        if isinstance(value, list):
            object.__setattr__(spec, f.name, tuple(value))


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one experiment; defaults follow the method's defaults."""

    theta_s: float = param(1.0, float, "[0, 1]")  # selection threshold
    theta_r: float = param(0.9, float, "(0, 1]")  # relabel confidence threshold
    k_neighbours: int = param(100, int, "[1, inf)")
    # the float32 train step casts lambda_fc, learning_rate and weight_decay
    lambda_fc: float = param(1.0, float, f"[0, {F32_MAX!r}]")  # FC loss weight
    mixup_alpha: float = param(0.5, float, "[0, inf)")  # 0 turns mixup off
    learning_rate: float = param(0.02, float, f"(0, {F32_MAX!r}]")
    momentum: float = param(0.9, float, "[0, 1)")
    weight_decay: float = param(5e-4, float, f"[0, {F32_MAX!r}]")
    epochs: int = param(30, int, "[1, inf)")
    batch_size: int = param(128, int, "[1, inf)")
    seed: int = param(0, int, "[0, inf)")
    hidden_dims: tuple = param((64, 32), tuple, "[1, inf)")
    sigma_strong: float = param(0.1, float, "[0, inf)")  # jitter / per-dim std
    sigma_weak: float = param(0.02, float, "[0, inf)")
    balance_voting: bool = param(True, bool)
    oversample: bool = param(True, bool)

    def __post_init__(self):
        check_fields(self)


TRAIN_PARAMS = {f.name: f.metadata["param"] for f in fields(TrainConfig)}
