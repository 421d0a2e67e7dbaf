"""Digests of the outputs that a refactor or a speed-up must leave unchanged.

Run from the repository root, once on the parent commit and once on the
change, on the same machine, and compare the two outputs:

    python3 tests/digests.py > digests.json

It prints one JSON object of sha256 hex digests:

- ``index``: the ``build_neighbour_index`` ids on ``default_rng(0).normal``
  features at (N, d, k) = (2000, 16, 100), (10000, 16, 100) and (3000, 8, 1);
- ``forward``: the softmax and embeddings that ``forward`` gives for 5000
  ``default_rng(0).normal`` rows of width 16, more than one trunk block,
  through a seeded ``init_model`` at the default hidden widths with its zero
  head redrawn, so the logits are not all zero; with them the logits, which
  ``forward`` no longer returns, computed here from its embeddings by the
  expression it applies (``emb @ wh + bh``);
- ``forward_float32``: the same at the dtype ``run_experiment`` trains in
  (``pipeline.TRAIN_DTYPE``), through a copy of the same model rounded to
  it, so that sgemm's bits are covered too;
- ``ties``: per ``KEY_EDGE_KINDS`` kind of ``test_selector``, the ids of 11
  tie-heavy cases drawn by ``hypothesis`` from a fixed seed;
- ``runs``: ``metrics.csv`` and the ``model.flat`` bytes of criterion 10's
  run, sym50 at the default ``TrainConfig``, and the six
  ``compare_selection_modes`` runs at criterion 8's seed 0.

The ids and the trained parameters depend on the BLAS kernel, so no golden
values are kept; tier-1's ``test_determinism_across_blas_threads`` only
checks that a reduced set repeats, at one and at two BLAS threads.
The file name keeps it out of pytest's collection.
"""
from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from hypothesis import HealthCheck, Phase, given, settings  # noqa: E402

from ssrlab import (NoiseSpec, SynthSpec, TrainConfig, apply_noise,  # noqa: E402
                    build_neighbour_index, compare_selection_modes,
                    make_gaussian_dataset, pipeline, run_experiment, selector)
from ssrlab.cli import emit_metrics  # noqa: E402
from ssrlab.model import forward, init_model  # noqa: E402
from test_selector import KEY_EDGE_KINDS, key_edge_case  # noqa: E402

INDEX_SHAPES = ((2000, 16, 100), (10000, 16, 100), (3000, 8, 1))
FORWARD_ROWS = 5000
TIE_EXAMPLES = 11


def _sha(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def index_digests(shapes) -> dict:
    out = {}
    for n, d, k in shapes:
        feats = np.random.default_rng(0).normal(size=(n, d))
        out[f"{n},{d},{k}"] = _sha(build_neighbour_index(feats, k).tobytes())
    return out


def forward_digest(n: int, dtype=np.float64) -> str:
    rng = np.random.default_rng(0)
    model = init_model(16, 4, TrainConfig().hidden_dims, rng)
    model.head[0][:] = rng.normal(size=model.head[0].shape)
    model = model.astype(dtype)
    out = forward(model, rng.normal(size=(n, 16)))
    wh, bh = model.head
    out["logits"] = out["embeddings"] @ wh + bh
    return _sha(b"".join(out[name].tobytes() for name in sorted(out)))


def tie_digests(examples: int) -> dict:
    out = {}
    for kind in KEY_EDGE_KINDS:
        h = hashlib.sha256()

        @settings(derandomize=True, database=None, deadline=None,
                  max_examples=examples, phases=[Phase.generate],
                  suppress_health_check=list(HealthCheck))
        @given(case=key_edge_case(kind))
        def trial(case):
            feats, k, tile_elems, key_elems = case
            with mock.patch.object(selector, "_TILE_ELEMS", tile_elems), \
                    mock.patch.object(selector, "_KEY_ELEMS", key_elems):
                ids = build_neighbour_index(feats, k)
            h.update(np.asarray(ids.shape).tobytes() + ids.tobytes())

        trial()
        out[kind] = h.hexdigest()
    return out


def _run_digest(record, model, out_dir: Path) -> dict:
    emit_metrics(record, out_dir)
    return {"metrics.csv": _sha((out_dir / "metrics.csv").read_bytes()),
            "model.flat": _sha(model.flat.tobytes())}


def _compare_mode_digests(base, tmp: Path) -> dict:
    """Criterion 8 at seed 0; the wrapper keeps each mode's model."""
    sym80 = apply_noise(base.train, NoiseSpec("symmetric", 0.8, seed=0))
    models = []

    def keep(*args, **kwargs):
        outcome = run_experiment(*args, **kwargs)
        models.append(outcome.model)
        return outcome

    with mock.patch.object(pipeline, "run_experiment", keep):
        records = compare_selection_modes(sym80, TrainConfig(seed=0),
                                          test=base.test)
    return {name: _run_digest(record, model, tmp / name)
            for (name, record), model in zip(records.items(), models)}


def run_digests(full: bool) -> dict:
    small = make_gaussian_dataset(SynthSpec(num_classes=3, per_class=80, dim=8,
                                            seed=0))
    runs = {"criterion_10": (
        apply_noise(small.train, NoiseSpec("symmetric", 0.4, seed=0)),
        TrainConfig(epochs=5, k_neighbours=20), small.test)}
    if full:
        base = make_gaussian_dataset(SynthSpec(num_classes=4, per_class=500,
                                               dim=16, separation=4.0, seed=0,
                                               ood_classes=4))
        runs["sym50"] = (apply_noise(base.train,
                                     NoiseSpec("symmetric", 0.5, seed=0)),
                         TrainConfig(), base.test)
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (data, cfg, test) in runs.items():
            outcome = run_experiment(data, cfg, test=test)
            out[name] = _run_digest(outcome.record, outcome.model,
                                    Path(tmp) / name)
        if full:
            out.update(_compare_mode_digests(base, Path(tmp)))
    return out


def digests(full: bool = True) -> dict:
    """Every digest; ``full=False`` keeps one small index shape, a forward
    of two trunk blocks, two cases per tie kind and criterion 10's run."""
    rows = FORWARD_ROWS if full else 2100
    return {"index": index_digests(INDEX_SHAPES if full else ((300, 8, 5),)),
            "forward": forward_digest(rows),
            "forward_float32": forward_digest(rows, pipeline.TRAIN_DTYPE),
            "ties": tie_digests(TIE_EXAMPLES if full else 2),
            "runs": run_digests(full)}


if __name__ == "__main__":
    print(json.dumps(digests(), indent=2, sort_keys=True))
