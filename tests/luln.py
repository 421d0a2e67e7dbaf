"""The LULN table: SSR and its two references across noise kinds and rates.

LULN is the paper's setting, learning when both the kind and the rate of the
label noise are unknown. Each cell is a synthetic set (4 classes of 500
training samples, 16 dimensions, 4 open-set clusters, a half-size holdout)
at one centre separation and one noise spec. Each cell runs the default
``TrainConfig`` at seeds 0-2, the seed drawing the data, the noise and the
training, in three selection modes:

- ``npk_automatic``: SSR's class-balanced neighbour vote;
- ``whole_dataset``: every sample, the floor;
- ``clean_subset``: the truly clean samples, the ceiling.

The loss-based modes are left out: at epoch 0 their selection is an index
tie-break, not a loss rule (ROADMAP item 15).

Run from the repository root (about two minutes on 2 vCPU):

    python3 tests/luln.py > luln.json

It prints one JSON object. Per cell: the noise spec, the measured noise
rate per seed, and per mode and seed the best and last test accuracy and the
last epoch's selection F, with the median of each over the seeds. The file
name keeps it out of pytest's collection.
"""
from __future__ import annotations

import dataclasses
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ssrlab import (NoiseSpec, SynthSpec, TrainConfig, apply_noise,  # noqa: E402
                    make_gaussian_dataset, run_experiment)

SEEDS = (0, 1, 2)
MODES = ("npk_automatic", "whole_dataset", "clean_subset")
CYCLIC = (1, 2, 3, 0)
# (separation, noise spec without its seed)
CELLS = [
    *((4.0, dict(kind="symmetric", total_ratio=r)) for r in (0.2, 0.5, 0.8, 0.9)),
    (4.0, dict(kind="asymmetric", total_ratio=0.4, pair_map=CYCLIC)),
    (4.0, dict(kind="combined", total_ratio=0.5, open_ratio=0.4)),
    (2.5, dict(kind="symmetric", total_ratio=0.8)),
    (2.5, dict(kind="asymmetric", total_ratio=0.4, pair_map=CYCLIC)),
]
METRICS = ("best_test_acc", "last_test_acc", "sel_fscore_last")


def run_cell(separation: float, noise: dict) -> dict:
    rates, runs = [], {mode: [] for mode in MODES}
    for seed in SEEDS:
        synth = make_gaussian_dataset(SynthSpec(
            separation=separation, seed=seed, holdout_fraction=0.5))
        data = apply_noise(synth.train, NoiseSpec(**noise, seed=seed),
                           synth.ood_pool)
        rates.append(float(data.is_noisy.mean()))
        for mode in MODES:
            record = run_experiment(data, TrainConfig(seed=seed),
                                    test=synth.test,
                                    selection_mode=mode).record
            runs[mode].append({"best_test_acc": record.best_test_acc,
                               "last_test_acc": record.last_test_acc,
                               "sel_fscore_last": record.epochs[-1].sel_fscore})
    return {
        "separation": separation,
        "noise": {k: list(v) if isinstance(v, tuple) else v
                  for k, v in noise.items()},
        "noise_rate": rates,
        "modes": {mode: {"seeds": seeds,
                         "median": {m: statistics.median(s[m] for s in seeds)
                                    for m in METRICS}}
                  for mode, seeds in runs.items()},
    }


def main() -> dict:
    return {"seeds": list(SEEDS),
            "synth": {k: v for k, v in dataclasses.asdict(
                SynthSpec(holdout_fraction=0.5)).items()
                if k not in ("seed", "separation")},
            "train": dataclasses.asdict(TrainConfig()),
            "cells": [run_cell(sep, noise) for sep, noise in CELLS]}


if __name__ == "__main__":
    print(json.dumps(main(), indent=1))
