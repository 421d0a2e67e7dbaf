"""Per-epoch orchestration: relabel, select, train, evaluate.

Each epoch runs, in order: one forward pass over the raw features gives the
softmax predictions, which feed the relabelling rule, and the trunk
embeddings, which feed the neighbour index and the clean-subset selection;
the selection (oversampled per class) is trained for one pass with the
composite loss; metrics are recorded, the scores against the hidden ground
truth when the dataset has it, without ever feeding back into training.
Wall-clock timings are kept apart from those metrics, so the metrics repeat
bit for bit for a given seed.
"""
from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, asdict, replace
from typing import Iterator, Optional

import numpy as np

from .data import F32_MAX, LabelState, NoisyDataset, Param, TrainConfig
from .errors import ConfigError, DataError, NumericError
from .model import (MiniBatch, PmcModel, cosine_lr, forward, init_model,
                    mixup_pair, oversample_balanced, sgd_step, total_loss_grads)
from .model import trunk_forward  # noqa: F401 (uncalled; perfbench patches it)
from .relabel import relabel, relabel_metrics
from .selector import (TAU, baseline_gmm_loss, baseline_small_loss_predefined,
                       build_neighbour_index, check_k, compute_selection)

log = logging.getLogger(__name__)

# a run whose largest |parameter| passes this after a train pass has
# diverged: healthy runs stay below 2, while lr 1e4 reaches 4e10 in one pass
# (slower growth, such as lr 10 at a few hundred, collapses the labels)
_PARAM_BOUND = 1e6

# the dtype run_experiment trains in: the trunk, the head and the train step
# run in it, while the softmax, relabelling, the neighbour index, the vote and
# the GMM read float64
TRAIN_DTYPE = np.dtype(np.float32)


@dataclass
class EpochMetrics:
    epoch: int
    relabelled_fraction: float
    relabel_accuracy: Optional[float]   # None without ground truth, as are
    sel_precision: Optional[float]      # the three selection scores
    sel_recall: Optional[float]
    sel_fscore: Optional[float]
    selected_count: int
    test_acc: Optional[float]           # None without a test set
    relabelled_count: int


@dataclass
class EpochTimings:
    epoch: int
    relabel_s: float
    select_s: float
    train_s: float
    eval_s: float       # the metric block and the test forward


@dataclass
class ExperimentRecord:
    config: dict
    epochs: list          # EpochMetrics, a deterministic function of the inputs
    timings: list         # EpochTimings, wall-clock seconds

    @property
    def best_test_acc(self) -> Optional[float]:
        return max((e.test_acc for e in self.epochs if e.test_acc is not None),
                   default=None)

    @property
    def last_test_acc(self) -> Optional[float]:
        return self.epochs[-1].test_acc


@dataclass
class ExperimentOutcome:
    record: ExperimentRecord
    model: PmcModel


def selection_metrics(clean_mask: np.ndarray, state: LabelState,
                      dataset: NoisyDataset) -> dict:
    """The selected count, and precision/recall/F of the clean subset against
    the true labels (None without them); a selected sample counts as a true
    positive iff its working label is true."""
    n_sel = int(clean_mask.sum())
    p = r = f = None
    if dataset.true_labels is not None:
        correct = state.working_labels == dataset.true_labels
        tp = int((clean_mask & correct).sum())
        n_correct = int(correct.sum())
        p = tp / n_sel if n_sel else 0.0
        r = tp / n_correct if n_correct else 0.0
        f = 2.0 * p * r / (p + r) if p + r else 0.0
    return {"sel_precision": p, "sel_recall": r, "sel_fscore": f,
            "selected_count": n_sel}


def _per_sample_ce(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    p = probs[np.arange(probs.shape[0]), labels]
    return -np.log(np.maximum(p, 1e-12))


def _knn_selection(state, fwd, config):
    # the index counts each tile's votes as it goes, so no (N, K) ids are
    # held; handed over as the only reference, the embeddings are freed once
    # the index has normalised them
    counts = build_neighbour_index(fwd.pop("embeddings"), config.k_neighbours,
                                   state)
    return compute_selection(counts, state, config.theta_s,
                             balance=config.balance_voting)


def _gmm(dataset, state, fwd, config, tau):
    losses = _per_sample_ce(fwd["probs"], state.working_labels)
    try:
        return baseline_gmm_loss(losses)
    except NumericError as exc:
        if exc.code != "DEGENERATE_FIT":
            raise
        fallback = tau if tau is not None else 0.5
        log.warning("GMM fit degenerate (%s); falling back to predefined "
                    "tau=%s", exc.message, fallback)
        return baseline_small_loss_predefined(losses, fallback)


# selection mode -> clean-mask function of (dataset, label state, forward
# outputs, config, tau); the predefined modes keep the ceil((1 - tau) * N)
# most consistent / smallest-loss samples
SELECTORS = {
    "npk_automatic": lambda ds, st, fwd, cfg, tau:
        _knn_selection(st, fwd, cfg).clean_mask,
    "pmc_gmm_automatic": _gmm,
    "npk_predefined": lambda ds, st, fwd, cfg, tau:
        baseline_small_loss_predefined(
            -_knn_selection(st, fwd, cfg).consistency, tau),
    "pmc_predefined": lambda ds, st, fwd, cfg, tau:
        baseline_small_loss_predefined(
            _per_sample_ce(fwd["probs"], st.working_labels), tau),
    "whole_dataset": lambda ds, st, fwd, cfg, tau:
        np.ones(ds.n_samples, dtype=bool),
    "clean_subset": lambda ds, st, fwd, cfg, tau: ~ds.is_noisy,
}


def _epoch(epoch, model, velocity, rng, dataset, test, config, select, tau,
           strong, weak):
    """Relabel and select from one forward pass, train one pass of SGD steps
    over the selection, then evaluate. Raises DIVERGED when relabelling puts
    every sample in one class, on a trained model's non-finite outputs or loss,
    or when a parameter is non-finite or past _PARAM_BOUND after the pass."""
    t0 = time.perf_counter()
    fwd = forward(model, dataset.features)
    try:
        state = relabel(fwd["probs"], dataset.observed_labels, config.theta_r)
        live = np.flatnonzero(state.class_counts)
        if live.size < 2 and np.unique(dataset.observed_labels).size > 1:
            raise NumericError("DIVERGED", f"epoch {epoch}: relabelling put all "
                               f"{dataset.n_samples} samples in class {live[0]}")
        t1 = time.perf_counter()
        clean_mask = select(dataset, state, fwd, config, tau)
    except NumericError as exc:
        # the raw features are finite (forward checks them), and a model that
        # no pass has changed repeats epoch 0's inputs, so after epoch 0 a
        # non-finite relabel or selector input comes from training
        if epoch == 0 or exc.code != "NON_FINITE_INPUT":
            raise
        raise NumericError("DIVERGED", f"epoch {epoch}: the trained "
                           f"model's outputs overflow ({exc})") from exc
    t2 = time.perf_counter()
    sel_idx = np.flatnonzero(clean_mask)
    if sel_idx.size == 0:
        # fall back to relabel-confident samples; skip the pass if none
        sel_idx = np.flatnonzero(fwd["probs"].max(axis=1) > config.theta_r)
        log.warning("epoch %d: empty selection, falling back to %d "
                    "relabel-confident samples", epoch, sel_idx.size)
    del fwd   # freed before the pass allocates
    if sel_idx.size:
        if config.oversample:
            train_idx = oversample_balanced(sel_idx, state.working_labels, rng)
        else:
            train_idx = rng.permutation(sel_idx)
        lr = cosine_lr(config.learning_rate, epoch, config.epochs)
        xs = dataset.features
        n, d = xs.shape
        dtype = model.flat.dtype
        eye = np.eye(dataset.num_classes, dtype=dtype)

        def jitter(rows, sigma):
            # drawn and added in float64, then rounded once to the model's dtype
            return (xs[rows] + rng.standard_normal((rows.size, d)) * sigma
                    ).astype(dtype, copy=False)

        use_fc = config.lambda_fc > 0
        fc_order = rng.permutation(n) if use_fc else None
        fc_pos = 0
        for step, start in enumerate(range(0, train_idx.size, config.batch_size)):
            idx = train_idx[start:start + config.batch_size]
            batch = MiniBatch(jitter(idx, strong), eye[state.working_labels[idx]])
            if config.mixup_alpha > 0:
                batch = mixup_pair(batch, config.mixup_alpha, rng)
            v1 = v2 = None
            if use_fc:
                # consistency loss runs over the whole dataset, cycling a shuffle
                if fc_pos + idx.size > n:
                    fc_order = rng.permutation(n)
                    fc_pos = 0
                fb = fc_order[fc_pos:fc_pos + idx.size]
                fc_pos += idx.size
                v1 = jitter(fb, strong)
                v2 = jitter(fb, weak)
            loss, grads, _ = total_loss_grads(
                model, batch, config.lambda_fc, fc_view1=v1, fc_view2=v2)
            if not math.isfinite(loss):
                raise NumericError("DIVERGED",
                                   f"epoch {epoch} step {step}: loss is {loss}")
            sgd_step(model, grads, velocity, lr, config.momentum,
                     config.weight_decay)
            del grads   # freed before the next step allocates its buffer
        top = np.abs(model.flat).max()
        if not top <= _PARAM_BOUND:   # also true for nan
            what = (f"max |parameter| {top:.3g} is past {_PARAM_BOUND:g}"
                    if math.isfinite(top) else "a parameter is non-finite")
            raise NumericError("DIVERGED",
                               f"epoch {epoch} step {step}: {what} after the pass")
    t3 = time.perf_counter()

    test_acc = None
    if test is not None:
        pred = forward(model, test.features)["probs"].argmax(axis=1)
        test_acc = float((pred == test.observed_labels).mean())
    metrics = EpochMetrics(epoch=epoch, **relabel_metrics(state, dataset),
                           **selection_metrics(clean_mask, state, dataset),
                           test_acc=test_acc)
    return metrics, EpochTimings(epoch, t1 - t0, t2 - t1, t3 - t2,
                                 time.perf_counter() - t3)


def check_experiment(dataset: NoisyDataset, config: TrainConfig,
                     selection_mode: str = "npk_automatic",
                     tau: Optional[float] = None,
                     test: Optional[NoisyDataset] = None) -> tuple:
    """Raise the error run_experiment would raise before it trains: the
    limits that depend on the data, the test set or the selection mode, not
    on the config alone. Return the strong and weak jitter scales, each
    sigma times the per-dimension feature std (a zero std counted as 1)."""
    Param(tuple(SELECTORS)).check("selection_mode", selection_mode)
    # the predefined modes need tau; pmc_gmm_automatic falls back to it
    if tau is None and selection_mode in ("npk_predefined", "pmc_predefined"):
        raise ConfigError("RANGE_ERROR",
                          f"selection mode {selection_mode!r} needs tau")
    if tau is not None:
        TAU.check("tau", tau)
    # no softmax row's largest value is below 1/M, so a lower theta_r would
    # relabel every sample in every epoch
    if config.theta_r < 1.0 / dataset.num_classes:
        raise ConfigError("RANGE_ERROR", f"theta_r={config.theta_r} is below "
                          f"1/M = 1/{dataset.num_classes}")
    if selection_mode in ("npk_automatic", "npk_predefined"):
        check_k(config.k_neighbours, dataset.n_samples)
    if selection_mode == "clean_subset" and dataset.true_labels is None:
        raise DataError("MISSING_GROUND_TRUTH",
                        "selection mode 'clean_subset' needs true labels")
    # the jitter adds sigma * std to each dimension of a float32 row; Python
    # floats compare the product without an overflow warning
    std = dataset.features.std(axis=0)
    std[std == 0] = 1.0
    top_std = float(std.max())
    for key in ("sigma_strong", "sigma_weak"):
        sigma = getattr(config, key)
        if float(sigma) * top_std > F32_MAX:
            raise ConfigError("RANGE_ERROR", f"{key}={sigma!r} times the "
                              f"largest feature std {top_std:.4g} is past the "
                              f"float32 range")
    if test is not None and (test.dim, test.num_classes) != (
            dataset.dim, dataset.num_classes):
        raise DataError("SHAPE_MISMATCH", f"the test set has {test.dim} "
                        f"features and {test.num_classes} classes, the "
                        f"training set {dataset.dim} and {dataset.num_classes}")
    return config.sigma_strong * std, config.sigma_weak * std


def run_experiment(dataset: NoisyDataset, config: TrainConfig,
                   test: Optional[NoisyDataset] = None,
                   selection_mode: str = "npk_automatic",
                   tau: Optional[float] = None) -> ExperimentOutcome:
    """Train a TRAIN_DTYPE copy of a fresh float64 model for config.epochs,
    applying relabel -> select -> train each epoch, and record per-epoch
    quality metrics."""
    strong, weak = check_experiment(dataset, config, selection_mode, tau, test)
    select = SELECTORS[selection_mode]
    rng = np.random.default_rng(config.seed)
    model = init_model(dataset.dim, dataset.num_classes, config.hidden_dims,
                       rng).astype(TRAIN_DTYPE)
    velocity = np.zeros_like(model.flat)
    epochs, timings = zip(*(_epoch(epoch, model, velocity, rng, dataset, test,
                                   config, select, tau, strong, weak)
                            for epoch in range(config.epochs)))
    record = ExperimentRecord(config=asdict(config), epochs=list(epochs),
                              timings=list(timings))
    return ExperimentOutcome(record, model)


def compare_selection_modes(dataset: NoisyDataset, config: TrainConfig,
                            test: Optional[NoisyDataset] = None) -> Iterator:
    """(mode, outcome) of the four selector variants plus the whole-dataset and
    oracle-clean references in SELECTORS order, each run only when asked for;
    the refusals of the whole comparison raise at the call."""
    if dataset.true_labels is None:
        raise DataError("MISSING_GROUND_TRUTH",
                        "mode comparison needs true labels for tau")
    tau = float(dataset.is_noisy.mean())
    if tau == 1.0:
        raise ConfigError("RANGE_ERROR", "measured noise rate 1.0: every "
                          "observed label is wrong, so no tau is in [0, 1)")
    # strong augmentation (jitter + mixup), relabelling, and the consistency
    # loss are all switched off so only the selection mechanism differs
    base = replace(config, theta_r=1.0, lambda_fc=0.0, mixup_alpha=0.0,
                   sigma_strong=0.0, sigma_weak=0.0)
    return ((mode, run_experiment(dataset, base, test=test,
                                  selection_mode=mode, tau=tau))
            for mode in SELECTORS)
