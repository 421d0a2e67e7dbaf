"""Spans around the public calls of each ssrlab layer, taken from outside.

The tracer replaces module attributes with timing wrappers and puts the
originals back on ``uninstall``; nothing under ``src/`` changes.
``ssrlab.pipeline`` and ``ssrlab.cli`` bind most layer functions at import (``from .model import ...``),
so each wrapper is installed both in the function's home module and in every
module that imported the name. Inner model calls (``classification_grads``,
``feature_consistency_loss``, ``trunk_backward``) are looked up through
``ssrlab.model`` at call time, so the home-module patch reaches them.

``trunk_forward`` is the exception: it is patched in ``ssrlab.pipeline`` only,
so its count is the pipeline's extra embedding pass per epoch. The trunk
passes inside ``forward`` and the loss functions are covered by those spans.

Spans stay in memory until ``write``; each has a name, start, end, parent
span, the operation (root span) it belongs to and the run id.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from ssrlab.errors import SsrError

# importlib, because the package re-exports the function ``relabel`` under
# the name of its module ``ssrlab.relabel``.
cli, config, model, noise, pipeline, relabel, selector, ssrd = (
    importlib.import_module(f"ssrlab.{m}") for m in
    ("cli", "config", "model", "noise", "pipeline", "relabel", "selector", "ssrd"))

MB = float(1 << 20)


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    op: int
    start: float
    end: float = float("nan")
    counts: dict = field(default_factory=dict)
    error: Optional[str] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _rows(args, result):
    return {"rows": int(np.asarray(args[1]).shape[0])}


def _file_bytes(args, result):
    return {"bytes": Path(args[0]).stat().st_size}


def _knn_count(args, result):
    n = int(np.asarray(args[0]).shape[0])
    return {"rows": n, "bytes_computed": n * n * 8}


def _selected(args, result):
    return {"selected_fraction": float(result.clean_mask.mean())}


def _relabelled(args, result):
    return {"relabelled_fraction": float(result.relabel_mask.mean())}


def _oversampled(args, result):
    return {"rows_in": int(np.asarray(args[0]).size), "rows_out": int(result.size)}


def _batch_rows(args, result):
    return {"rows": int(args[1].inputs.shape[0])}


# (span name, home module, attribute, other modules that imported it,
#  count hook run on the result, trace allocations inside the call)
TARGETS = [
    ("noise.make_gaussian_dataset", noise, "make_gaussian_dataset",
     (cli,), None, False),
    ("noise.apply_noise", noise, "apply_noise", (cli,), None, False),
    ("ssrd.write_dataset", ssrd, "write_dataset", (cli,),
     _file_bytes, False),
    ("ssrd.write_pool", ssrd, "write_pool", (cli,), _file_bytes, False),
    ("ssrd.load_embeddings", ssrd, "load_embeddings", (cli,),
     _file_bytes, False),
    ("ssrd.load_pool", ssrd, "load_pool", (cli,), _file_bytes, False),
    ("config.parse_config", config, "parse_config", (cli,), None, False),
    ("cli.main", cli, "main", (), None, False),
    ("cli.emit_metrics", cli, "emit_metrics", (), None, False),
    ("pipeline.compare_selection_modes", pipeline,
     "compare_selection_modes", (cli,), None, False),
    ("pipeline.run_experiment", pipeline, "run_experiment",
     (cli,), None, False),
    ("relabel.relabel", relabel, "relabel", (pipeline,),
     _relabelled, False),
    ("relabel.relabel_metrics", relabel, "relabel_metrics",
     (pipeline,), None, False),
    ("selector.build_neighbour_index", selector, "build_neighbour_index",
     (pipeline,), _knn_count, True),
    ("selector.compute_selection", selector, "compute_selection",
     (pipeline,), _selected, False),
    ("selector.baseline_gmm_loss", selector, "baseline_gmm_loss",
     (pipeline,), None, False),
    ("selector.baseline_small_loss_predefined", selector,
     "baseline_small_loss_predefined", (pipeline,), None, False),
    ("model.forward", model, "forward", (pipeline,), _rows, False),
    ("model.trunk_forward", pipeline, "trunk_forward", (), _rows, False),
    ("model.oversample_balanced", model, "oversample_balanced",
     (pipeline,), _oversampled, False),
    ("model.mixup_pair", model, "mixup_pair", (pipeline,), None, False),
    ("model.total_loss_grads", model, "total_loss_grads",
     (pipeline,), _batch_rows, False),
    ("model.classification_grads", model, "classification_grads", (),
     None, False),
    ("model.feature_consistency_loss", model, "feature_consistency_loss",
     (), None, False),
    ("model.trunk_backward", model, "trunk_backward", (), None, False),
    ("model.sgd_step", model, "sgd_step", (pipeline,), None, False),
]


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._saved: list[tuple] = []
        self._t0 = time.perf_counter()

    def begin(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, parent and parent.id,
                    parent.op if parent else len(self.spans),
                    time.perf_counter() - self._t0)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = time.perf_counter() - self._t0
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def _wrap(self, name: str, fn: Callable, count, alloc: bool) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            if alloc:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            except SsrError as exc:
                span.error = exc.code
                raise
            finally:
                if alloc:
                    span.counts["peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self.finish(span)
            if count is not None:
                span.counts.update(count(args, result))
            return result
        return wrapper

    def install(self) -> None:
        for name, home, attr, others, count, alloc in TARGETS:
            original = getattr(home, attr)
            wrapper = self._wrap(name, original, count, alloc)
            for mod in (home, *others):
                if getattr(mod, attr) is not original:
                    raise RuntimeError(f"{mod.__name__}.{attr} is not {name}")
                self._saved.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "run": self.run_id, "op": s.op, "id": s.id, "parent": s.parent,
                    "name": s.name, "start": s.start, "end": s.end,
                    "counts": s.counts, "error": s.error}) + "\n")


def self_times(spans: list[Span]) -> tuple[dict, list[str]]:
    """Self time per span id and a list of nesting violations.

    A span's self time is its duration minus the time its children cover.
    Children run one after another, so they must start and end inside their
    parent and their durations must not sum past the parent's.
    """
    child_sum = {s.id: 0.0 for s in spans}
    by_id = {s.id: s for s in spans}
    problems = []
    for s in spans:
        if s.parent is None:
            continue
        p = by_id[s.parent]
        child_sum[p.id] += s.duration
        if s.start < p.start or s.end > p.end:
            problems.append(f"span {s.id} {s.name} outside parent {p.name}")
    out = {}
    for s in spans:
        if child_sum[s.id] > s.duration + 1e-9:
            problems.append(f"children of span {s.id} {s.name} exceed it")
        out[s.id] = s.duration - child_sum[s.id]
    return out, problems
