"""Mutation check of tier-1: every listed mutant of ``src/`` must fail a test.

Run from the repository root:

    python3 tests/mutants.py

A mutant is a (label, file, old, new) replacement of one exact piece of
source. For each one the script copies ``src/``, ``tests/``, ``perfbench/``
(whose tracer a test imports) and ``pyproject.toml`` into a temporary
directory, applies the mutant there, runs tier-1 with ``-x`` and the ``ci``
hypothesis profile (so a kill repeats) and prints ``killed`` with the first
failing test, or
``survived`` when every test passes; ``error`` means pytest stopped for
another reason. A mutant whose ``old`` text is not found exactly once is
``stale``: the code it names has moved. The working tree is never changed.
The exit status is 1 unless every mutant is killed. The file name keeps
it out of pytest's collection.

A change that adds a guard adds its mutant here.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MUTANTS = [
    ("the FC's weak view takes the strong jitter", "src/ssrlab/pipeline.py",
     "v2 = jitter(fb, weak)", "v2 = jitter(fb, strong)"),
    ("the strong jitter divides sigma by the per-dimension std",
     "src/ssrlab/pipeline.py",
     "return config.sigma_strong * std,",
     "return config.sigma_strong / std,"),
    ("the weak jitter divides sigma by the per-dimension std",
     "src/ssrlab/pipeline.py",
     ", config.sigma_weak * std\n",
     ", config.sigma_weak / std\n"),
    ("an epoch's select time adds two clock readings",
     "src/ssrlab/pipeline.py",
     "EpochTimings(epoch, t1 - t0, t2 - t1,",
     "EpochTimings(epoch, t1 - t0, t2 + t1,"),
    ("the empty-selection fallback takes every sample",
     "src/ssrlab/pipeline.py",
     "np.flatnonzero(fwd[\"probs\"].max(axis=1) > config.theta_r)",
     "np.flatnonzero(fwd[\"probs\"].max(axis=1) >= 0.0)"),
    ("oversampling skips a class short by one", "src/ssrlab/model.py",
     "if short > 0:", "if short > 1:"),
    ("the FC order reshuffles one batch early", "src/ssrlab/pipeline.py",
     "if fc_pos + idx.size > n:", "if fc_pos + idx.size >= n:"),
    ("forward's blocks leave a remainder", "src/ssrlab/model.py",
     "rows = -(-n // blocks) if blocks else 1",
     "rows = n // blocks if blocks else 1"),
    ("sgd_step decays the velocity after adding the gradient",
     "src/ssrlab/model.py",
     "        v *= momentum\n"
     "        v += u\n",
     "        v += u\n"
     "        v *= momentum\n"),
    ("the chunk loop drops the partial last chunk", "src/ssrlab/model.py",
     "for lo in range(0, theta.size, _SGD_CHUNK):",
     "for lo in range(0, theta.size // _SGD_CHUNK * _SGD_CHUNK, _SGD_CHUNK):"),
    ("the consistency loss reads view1 for both branches",
     "src/ssrlab/model.py",
     "h2 = trunk_forward(model, view2)[0] @ wp",
     "h2 = trunk_forward(model, view1)[0] @ wp"),
    ("the CE head gradient is assigned, not added", "src/ssrlab/model.py",
     "grads.head[0][:] += emb.T @ grad_logits",
     "grads.head[0][:] = emb.T @ grad_logits"),
    ("the train loop keeps the previous step's gradients",
     "src/ssrlab/pipeline.py",
     "            del grads   # freed before the next step allocates its buffer\n",
     ""),
    ("the index keeps its input alive", "src/ssrlab/selector.py",
     "    del features, feats\n", ""),
    ("the re-sort reads the keyed tile", "src/ssrlab/selector.py",
     "        del tile, keys, key\n"
     "        tile = make_tile()\n"
     "        np.fill_diagonal(tile[:, lo:], -np.inf)\n", ""),
    ("the counting settle skips the boundary check", "src/ssrlab/selector.py",
     "else kth != high[:, 0])", "else True)"),
    ("the 16-bit field is used past 65 536 columns", "src/ssrlab/selector.py",
     "np.dtype(np.uint16 if n <= 1 << 16 else np.uint32)",
     "np.dtype(np.uint16)"),
    ("the open-set pool draws before the test set", "src/ssrlab/noise.py",
     "    test_feats = draw(test_labels)\n"
     "    # the last draw: with no open-set classes it is empty and takes no numbers\n"
     "    ood_pool = draw(np.repeat(np.arange(m, m + spec.ood_classes), max(counts)))\n",
     "    ood_pool = draw(np.repeat(np.arange(m, m + spec.ood_classes), max(counts)))\n"
     "    test_feats = draw(test_labels)\n"),
    ("the open-set pool has min(class_counts) rows per cluster",
     "src/ssrlab/noise.py",
     "spec.ood_classes), max(counts)))", "spec.ood_classes), min(counts)))"),
    ("grid runs a point before checking the rest against the data",
     "src/ssrlab/cli.py",
     "    for train in trains:   # and against the data\n"
     "        check_experiment(data, train, test=test)\n", ""),
    ("run makes its directory before it trains", "src/ssrlab/cli.py",
     "    record = run_experiment(data, parsed.train, test=test).record\n"
     "    out = _run_dir(Path(args.out), parsed.train.seed)\n",
     "    out = _run_dir(Path(args.out), parsed.train.seed)\n"
     "    record = run_experiment(data, parsed.train, test=test).record\n"),
    ("main exits 3 for every SsrError", "src/ssrlab/cli.py",
     "        return exc.exit_code\n", "        return 3\n"),
    ("relabel lets a non-finite row through", "src/ssrlab/relabel.py",
     "    bad = np.flatnonzero(~np.isfinite(probs).all(axis=1))\n"
     "    if bad.size:\n"
     "        raise NumericError(\"NON_FINITE_INPUT\", f\"row {bad[0]} is not finite\")\n",
     ""),
    ("the epoch's DIVERGED remap starts after relabelling",
     "src/ssrlab/pipeline.py",
     "    try:\n"
     "        state = relabel(fwd[\"probs\"], dataset.observed_labels, config.theta_r)\n",
     "    state = relabel(fwd[\"probs\"], dataset.observed_labels, config.theta_r)\n"
     "    try:\n"),
    ("check_k names k, not its config key", "src/ssrlab/selector.py",
     'f"k_neighbours={k} must be', 'f"k={k} must be'),
    ("the fixed-ratio count takes the unrounded product",
     "src/ssrlab/selector.py",
     "m = math.ceil(round((1.0 - tau) * n, 9))",
     "m = math.ceil((1.0 - tau) * n)"),
    ("a dataset lets a non-finite feature through", "src/ssrlab/data.py",
     "if not (feats.max() <= F32_MAX and -F32_MAX <= feats.min()):",
     "if feats.max() > F32_MAX or feats.min() < -F32_MAX:"),
    ("grid runs a repeated sweep value", "src/ssrlab/cli.py",
     "    if len(set(values)) < len(values):",
     "    if False:"),
    ("the point loop collects every record before it emits",
     "src/ssrlab/cli.py",
     "    rows = []\n", "    points = list(points)\n    rows = []\n"),
    ("grid sweeps the bool keys", "src/ssrlab/cli.py",
     "if param.kind in (int, float))", "if param.kind in (int, float, bool))"),
    ("a repeated config key keeps the last value", "src/ssrlab/config.py",
     "object_pairs_hook=_JsonObject", "object_pairs_hook=dict"),
    ("a section's repeated key is reported without its section",
     "src/ssrlab/config.py",
     '_refuse_repeat(obj, f"{context}.")', '_refuse_repeat(obj, "")'),
    ("a run without a test set records test_acc 0.0",
     "src/ssrlab/pipeline.py",
     "    test_acc = None\n", "    test_acc = 0.0\n"),
    ("apply_noise takes any asymmetric pair map", "src/ssrlab/noise.py",
     "        if not pair_map_fits(spec.pair_map, m):\n"
     "            raise DataError(\"MISSING_PAIR_MAP\",\n"
     "                            \"pair map must map every class to a different class\")\n",
     ""),
    ("a run scores the synth holdout when --test comes without -i",
     "src/ssrlab/cli.py",
     "    if test_path is not None:\n"
     "        raise ConfigError(\"RANGE_ERROR\", \"--test needs -i\")\n", ""),
    ("record.json echoes the synth and noise sections of a run on -i data",
     "src/ssrlab/cli.py",
     "        parsed = dataclasses.replace(parsed, synth=None, noise=None)\n",
     "        pass\n"),
    ("the GMM fit lets an overflow through", "src/ssrlab/selector.py",
     "with np.errstate(over=\"raise\", invalid=\"raise\"):",
     "with np.errstate():"),
    ("the EM's sums are pairwise", "src/ssrlab/selector.py",
     "nk = np.cumsum(resp, axis=1, out=run)[:, -1].copy()",
     "nk = resp.sum(axis=1)"),
    ("the softmax reads the float32 logits", "src/ssrlab/model.py",
     "logits = (emb @ wh + bh).astype(np.float64, copy=False)",
     "logits = emb @ wh + bh"),
    ("the one-hot labels are float64", "src/ssrlab/pipeline.py",
     "eye = np.eye(dataset.num_classes, dtype=dtype)",
     "eye = np.eye(dataset.num_classes)"),
    ("the SGD scratch is float64", "src/ssrlab/model.py",
     "scratch = np.empty(min(_SGD_CHUNK, theta.size), dtype=theta.dtype)",
     "scratch = np.empty(min(_SGD_CHUNK, theta.size))"),
    ("a train scalar past the float32 range reaches the train step",
     "src/ssrlab/data.py",
     'lambda_fc: float = param(1.0, float, f"[0, {F32_MAX!r}]")',
     'lambda_fc: float = param(1.0, float, "[0, inf)")'),
    ("a run takes a test set of another width or label space",
     "src/ssrlab/pipeline.py",
     "    if test is not None and (test.dim, test.num_classes) != (",
     "    if False and (test.dim, test.num_classes) != ("),
    ("apply_noise takes an open-set pool of another width",
     "src/ssrlab/noise.py",
     "        if ood_pool.shape[1] != dataset.dim:",
     "        if False:"),
    ("a jitter scale past float32 reaches the train step",
     "src/ssrlab/pipeline.py",
     "if float(sigma) * top_std > F32_MAX:",
     "if float(sigma) * top_std > F32_MAX and False:"),
    ("a feature past the float32 range reaches the forward",
     "src/ssrlab/data.py",
     "if not (feats.max() <= F32_MAX and -F32_MAX <= feats.min()):",
     "if not np.isfinite(feats).all():"),
    ("the variance reads the previous means", "src/ssrlab/selector.py",
     "        mu = np.cumsum(dev, axis=1, out=run)[:, -1] / nk\n"
     "        np.subtract(x, mu[:, None], out=dev)\n"
     "        np.square(dev, out=dev)\n"
     "        dev *= resp\n"
     "        var = np.cumsum(dev, axis=1, out=run)[:, -1] / nk\n",
     "        mu_next = np.cumsum(dev, axis=1, out=run)[:, -1] / nk\n"
     "        np.subtract(x, mu[:, None], out=dev)\n"
     "        np.square(dev, out=dev)\n"
     "        dev *= resp\n"
     "        var = np.cumsum(dev, axis=1, out=run)[:, -1] / nk\n"
     "        mu = mu_next\n"),
]


def run_mutant(path: str, old: str, new: str) -> tuple[str, str]:
    """(verdict, detail) of one mutant, tested in a temporary copy."""
    source = (ROOT / path).read_text()
    if source.count(old) != 1:
        return "stale", f"{source.count(old)} matches of the old text"
    with tempfile.TemporaryDirectory() as tmp:
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for name in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / name, Path(tmp) / name, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", tmp)
        (Path(tmp) / path).write_text(source.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p",
             "no:cacheprovider", "--hypothesis-profile=ci"], cwd=tmp,
            env=env, capture_output=True, text=True)
    if proc.returncode == 0:
        return "survived", ""
    if proc.returncode != 1:   # not a failing test: a usage or collection error
        return "error", proc.stdout.strip().splitlines()[-1]
    # the short summary's lines, not the captured log's "ERROR    ssrlab:..."
    failed = [line for line in proc.stdout.splitlines()
              if line.split(" ")[0] in ("FAILED", "ERROR") and "::" in line]
    return "killed", failed[0] if failed else ""


def main() -> int:
    bad = 0
    for label, path, old, new in MUTANTS:
        verdict, detail = run_mutant(path, old, new)
        bad += verdict != "killed"
        print(f"{verdict:8}  {Path(path).name:11}  {label}"
              + (f"\n          {detail}" if detail else ""), flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
