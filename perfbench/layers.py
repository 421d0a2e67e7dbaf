"""Per-layer metrics from the spans of one traced run.

Each metric is taken per operation (per set-up for ``noise.*`` and the SSRD
writes) and the median over the traced operations is reported. Call
latencies pool every call of the run and give p50 plus the highest
percentile that has at least ten samples beyond it, with the sample count.
"""
from __future__ import annotations

import statistics
from collections import defaultdict

import numpy as np

from tracer import MB, self_times

TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0)

KNN = "selector.build_neighbour_index"
GMM = "selector.baseline_gmm_loss"
STEP = ("model.total_loss_grads", "model.sgd_step")


def latency(samples) -> dict:
    """p50 and the highest percentile with >= 10 samples beyond it (p50 when
    there are too few samples for any)."""
    n = len(samples)
    if n == 0:
        return {"p50_s": 0.0, "tail_s": 0.0, "tail_pct": 0.0, "samples": 0}
    pct = next((p for p in TAIL_CANDIDATES if n * (100.0 - p) / 100.0 >= 10), 50.0)
    return {"p50_s": float(np.percentile(samples, 50)),
            "tail_s": float(np.percentile(samples, pct)),
            "tail_pct": pct, "samples": n}


def _busy(spans, *names) -> float:
    return sum(s.duration for s in spans if s.name in names)


def _calls(spans, name) -> int:
    return sum(1 for s in spans if s.name == name)


def _total(spans, name, key) -> float:
    return sum(s.counts.get(key, 0) for s in spans if s.name == name)


def _mean(spans, name, key) -> float:
    vals = [s.counts[key] for s in spans if s.name == name and key in s.counts]
    return float(np.mean(vals)) if vals else 0.0


def _steps(spans) -> list:
    """Busy time of each train step: a total_loss_grads call plus the
    sgd_step that applies its gradients."""
    out, pending = [], None
    for s in spans:
        if s.name == STEP[0]:
            pending = s.duration
        elif s.name == STEP[1] and pending is not None:
            out.append(pending + s.duration)
            pending = None
    return out


def _per_op(selfs: dict) -> dict:
    """Metric name -> (function of one operation's spans, unit)."""
    def self_of(prefix):
        return lambda ss: sum(selfs[s.id] for s in ss if s.name.startswith(prefix))

    def ratio(num, den):
        return lambda ss: num(ss) / den(ss) if den(ss) else 0.0

    return {
        "selector.knn_builds": (lambda ss: _calls(ss, KNN), "count"),
        "selector.knn_busy_s": (lambda ss: _busy(ss, KNN), "s"),
        "selector.knn_peak_alloc_mb":
            (lambda ss: max([s.counts.get("peak_alloc_bytes", 0) for s in ss
                             if s.name == KNN], default=0) / MB, "MB"),
        "selector.knn_bytes_computed": (lambda ss: _total(ss, KNN, "bytes_computed"),
                                        "bytes"),
        "selector.vote_busy_s": (lambda ss: _busy(ss, "selector.compute_selection"), "s"),
        "selector.gmm_calls": (lambda ss: _calls(ss, GMM), "count"),
        "selector.gmm_busy_s": (lambda ss: _busy(ss, GMM), "s"),
        "selector.gmm_fallbacks":
            (ratio(lambda ss: sum(1 for s in ss if s.name == GMM
                                  and s.error == "DEGENERATE_FIT"),
                   lambda ss: _calls(ss, GMM)), "fraction"),
        "selector.predefined_busy_s":
            (lambda ss: _busy(ss, "selector.baseline_small_loss_predefined"), "s"),
        "selector.selected_fraction":
            (lambda ss: _mean(ss, "selector.compute_selection", "selected_fraction"),
             "fraction"),
        "model.ce_branch_busy_s": (lambda ss: _busy(ss, "model.classification_grads"), "s"),
        "model.fc_branch_busy_s":
            (lambda ss: _busy(ss, "model.feature_consistency_loss"), "s"),
        "model.trunk_backward_busy_s": (lambda ss: _busy(ss, "model.trunk_backward"), "s"),
        "model.sgd_step_busy_s": (lambda ss: _busy(ss, "model.sgd_step"), "s"),
        "model.mixup_busy_s": (lambda ss: _busy(ss, "model.mixup_pair"), "s"),
        "model.oversample_busy_s": (lambda ss: _busy(ss, "model.oversample_balanced"), "s"),
        "model.train_step_busy_s":
            (lambda ss: _busy(ss, *STEP, "model.mixup_pair",
                              "model.oversample_balanced"), "s"),
        "model.train_steps": (lambda ss: _calls(ss, STEP[0]), "count"),
        "model.train_rows": (lambda ss: _total(ss, STEP[0], "rows"), "count"),
        "model.oversample_ratio":
            (ratio(lambda ss: _total(ss, "model.oversample_balanced", "rows_out"),
                   lambda ss: _total(ss, "model.oversample_balanced", "rows_in")),
             "ratio"),
        "model.forward_busy_s": (lambda ss: _busy(ss, "model.forward"), "s"),
        "model.forward_rows": (lambda ss: _total(ss, "model.forward", "rows"), "count"),
        "model.trunk_forward_calls": (lambda ss: _calls(ss, "model.trunk_forward"), "count"),
        "model.trunk_forward_busy_s": (lambda ss: _busy(ss, "model.trunk_forward"), "s"),
        "relabel.busy_s":
            (lambda ss: _busy(ss, "relabel.relabel", "relabel.relabel_metrics"), "s"),
        "relabel.relabelled_fraction":
            (lambda ss: _mean(ss, "relabel.relabel", "relabelled_fraction"), "fraction"),
        "ssrd.load_s":
            (lambda ss: _busy(ss, "ssrd.load_embeddings", "ssrd.load_pool"), "s"),
        "ssrd.bytes_read":
            (lambda ss: _total(ss, "ssrd.load_embeddings", "bytes")
             + _total(ss, "ssrd.load_pool", "bytes"), "bytes"),
        "cli.emit_metrics_s": (lambda ss: _busy(ss, "cli.emit_metrics"), "s"),
        "cli.self_s": (self_of("cli.main"), "s"),
        "config.parse_s": (lambda ss: _busy(ss, "config.parse_config"), "s"),
        "pipeline.self_s": (self_of("pipeline."), "s"),
    }


def _per_setup() -> dict:
    return {
        "noise.make_gaussian_dataset_s":
            (lambda ss: _busy(ss, "noise.make_gaussian_dataset"), "s"),
        "noise.apply_noise_s": (lambda ss: _busy(ss, "noise.apply_noise"), "s"),
        "ssrd.write_s": (lambda ss: _busy(ss, "ssrd.write_dataset", "ssrd.write_pool"), "s"),
        "ssrd.bytes_written":
            (lambda ss: _total(ss, "ssrd.write_dataset", "bytes")
             + _total(ss, "ssrd.write_pool", "bytes"), "bytes"),
    }


def per_layer(spans, traced, untraced_run_s: float):
    """Returns ({metric: (value, unit)}, [nesting problems]).

    ``traced`` is a list of (root span, OpResult or None) per traced operation.
    """
    selfs, problems = self_times(spans)
    by_op = defaultdict(list)
    for s in spans:
        by_op[s.op].append(s)
    op_roots = [span for span, _ in traced]
    setup_roots = [s for s in spans if s.parent is None and s.name == "setup"]
    metrics = {}
    for roots, table in ((op_roots, _per_op(selfs)),
                         (setup_roots, _per_setup())):
        for name, (fn, unit) in table.items():
            values = [fn(by_op[r.id]) for r in roots]
            metrics[name] = (float(statistics.median(values)) if values else 0.0, unit)

    op_ids = {r.id for r in op_roots}
    in_ops = [s for s in spans if s.op in op_ids]
    for prefix, samples in (("selector.knn_call", [s.duration for s in in_ops
                                                   if s.name == KNN]),
                            ("model.step", _steps(in_ops))):
        for key, value in latency(samples).items():
            unit = {"p50_s": "s", "tail_s": "s", "tail_pct": "%", "samples": "count"}[key]
            metrics[f"{prefix}.{key}"] = (value, unit)

    done = [res for _, res in traced if res is not None]
    metrics["cli.files_written"] = (statistics.median(r.files for r in done)
                                    if done else 0, "count")
    metrics["cli.bytes_written"] = (statistics.median(r.bytes for r in done)
                                    if done else 0, "bytes")
    traced_run_s = statistics.median(r.duration for r in op_roots)
    metrics["trace.run_s"] = (traced_run_s, "s")
    metrics["trace.overhead_s"] = (traced_run_s - untraced_run_s, "s")
    metrics["trace.spans_per_op"] = (statistics.median(len(by_op[r.id]) for r in op_roots),
                                     "count")
    return metrics, problems
