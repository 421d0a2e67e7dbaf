"""Confidence-based relabelling from classifier softmax outputs."""
from __future__ import annotations

import numpy as np

from .data import OPEN_SET, LabelState, NoisyDataset
from .errors import ConfigError, DataError

_ROW_SUM_TOL = 1e-6


def _check_rows(probs: np.ndarray) -> None:
    bad = np.flatnonzero((probs < -_ROW_SUM_TOL).any(axis=1)
                         | (np.abs(probs.sum(axis=1) - 1.0) > _ROW_SUM_TOL))
    if bad.size:
        raise DataError("INVALID_PROBABILITY_ROW",
                        f"row {bad[0]} is not a probability vector")


def relabel(probs: np.ndarray, observed_labels: np.ndarray,
            theta_r: float) -> LabelState:
    """Overwrite a sample's label with the argmax of its (N, M) row-stochastic
    softmax row when the maximum confidence strictly exceeds theta_r; keep the
    observed label otherwise.

    Pure function of its arguments: labels are recomputed from the observed
    labels every call, nothing persists across epochs.
    """
    if not 0.0 < theta_r <= 1.0:
        raise ConfigError("RANGE_ERROR", f"theta_r={theta_r} not in (0, 1]")
    probs = np.asarray(probs, dtype=np.float64)
    _check_rows(probs)
    observed = np.asarray(observed_labels, dtype=np.int64)
    conf = probs.max(axis=1)
    arg = probs.argmax(axis=1)  # first max: ties broken by ascending class index
    working = np.where(conf > theta_r, arg, observed)
    return LabelState.from_working(working, observed, probs.shape[1])


def relabel_metrics(state: LabelState, dataset: NoisyDataset) -> dict:
    """Fraction and count of relabelled samples, and how often the new label
    is the true one (0.0 if none, None without true labels). Open-set
    relabels always count as wrong."""
    mask = state.relabel_mask
    n_re = int(mask.sum())
    acc = None
    if dataset.true_labels is not None:
        # working labels are always in [0, M), so OPEN_SET entries never match
        hit = state.working_labels[mask] == dataset.true_labels[mask]
        acc = int(hit.sum()) / max(n_re, 1)
    return {"relabelled_fraction": n_re / mask.shape[0],
            "relabel_accuracy": acc, "relabelled_count": n_re}
