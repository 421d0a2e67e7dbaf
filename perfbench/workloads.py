"""The benchmark's workloads: how each builds its inputs and what it times.

Every workload derives all of its inputs from the workload seed. The set-up
(dataset generation, noise injection and, for the CLI workload, the SSRD
files) is timed apart from the operation, and the operation is what the
timed loop repeats. Layer modules are always reached through their module
attribute (``ssrlab.noise.make_gaussian_dataset``, never a from-import) so
that the tracer's patches are seen.
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import ssrlab.cli
import ssrlab.noise
import ssrlab.pipeline
from ssrlab.data import TrainConfig

# Columns of EpochMetrics that are timings; every other column is a
# deterministic function of the inputs and must repeat byte for byte.
TIMING_PREFIX = "t_"
COMPARE_MODES = 6  # run_experiment calls in one compare-modes operation
# The holdout is drawn after the training set, so its size leaves training
# unchanged; at half the training size the accuracy metrics are not
# dominated by which test points a seed happens to draw.
HOLDOUT_FRACTION = 0.5


@dataclass(frozen=True)
class Workload:
    name: str
    synth: dict
    noise: dict
    train: dict
    via_cli: bool = False
    datasets: int = 1   # independent datasets trained on in one operation
    tiny: dict = field(default_factory=dict)  # overrides for the self-test size

    def sized(self, tiny: bool) -> "Workload":
        if not tiny:
            return self
        return dataclasses.replace(
            self,
            synth={**self.synth, **self.tiny.get("synth", {})},
            train={**self.train, **self.tiny.get("train", {})})

    def synth_spec(self, seed: int) -> ssrlab.noise.SynthSpec:
        return ssrlab.noise.SynthSpec(**self.synth, seed=seed,
                                      holdout_fraction=HOLDOUT_FRACTION)

    def noise_spec(self, seed: int) -> ssrlab.noise.NoiseSpec:
        return ssrlab.noise.NoiseSpec(**self.noise, seed=seed)

    def train_config(self, seed: int) -> TrainConfig:
        return TrainConfig(**self.train, seed=seed)

    def sub_seeds(self, seed: int) -> list:
        """Seeds of the operation's datasets; the workload seed itself when
        there is one."""
        return [seed * self.datasets + j for j in range(self.datasets)]

    @property
    def num_classes(self) -> int:
        return self.synth["num_classes"]

    @property
    def n_samples(self) -> int:
        counts = self.synth.get("class_counts")
        return sum(counts) if counts else self.synth["per_class"] * self.num_classes


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in [
    Workload(
        "sym50_n2k",
        synth=dict(num_classes=4, per_class=500, dim=16, separation=4.0),
        noise=dict(kind="symmetric", total_ratio=0.5),
        train=dict(),
        tiny=dict(synth=dict(per_class=30),
                  train=dict(k_neighbours=10, epochs=3))),
    Workload(
        "sym50_n10k",
        synth=dict(num_classes=10, per_class=1000, dim=16, separation=4.0),
        noise=dict(kind="symmetric", total_ratio=0.5),
        train=dict(epochs=2),
        tiny=dict(synth=dict(per_class=20),
                  train=dict(k_neighbours=10))),
    # At 0.4 flips, classes 2 and 3 hold as many wrong labels as right ones,
    # so which label wins flips from seed to seed (last_test_acc 0.62-0.86);
    # at 0.3 every class keeps a majority of true labels. The rows trained
    # follow the selection and vary by +-7% between seeds, so one operation
    # trains three datasets to average that out.
    Workload(
        "asym30_wide_n1k",
        synth=dict(num_classes=4, per_class=1, dim=64, separation=4.0,
                   class_counts=(400, 300, 200, 100)),
        noise=dict(kind="asymmetric", total_ratio=0.3, pair_map=(1, 2, 3, 0)),
        train=dict(hidden_dims=(512, 256), epochs=10),
        datasets=3,
        tiny=dict(synth=dict(class_counts=(40, 30, 20, 10)),
                  train=dict(hidden_dims=(32, 16), k_neighbours=10,
                             epochs=5))),
    Workload(
        "cli_compare_modes",
        synth=dict(num_classes=4, per_class=500, dim=16, separation=4.0),
        noise=dict(kind="combined", total_ratio=0.5, open_ratio=0.4),
        train=dict(epochs=10),
        via_cli=True,
        tiny=dict(synth=dict(per_class=30),
                  train=dict(k_neighbours=10, epochs=2))),
]}


@dataclass
class OpResult:
    """What one operation produced, reduced to what the checks need."""
    deterministic: bytes          # per-epoch columns except timings
    values: dict                  # quality metrics, all must be finite
    train_samples: int            # samples x epochs x runs trained over
    files: int = 0                # files under the CLI output directory
    bytes: int = 0


def _epoch_bytes(epochs) -> bytes:
    rows = []
    for e in epochs:
        row = e if isinstance(e, dict) else dataclasses.asdict(e)
        rows.append(",".join(f"{k}={row[k]!r}" for k in row
                             if not k.startswith(TIMING_PREFIX)))
    return "\n".join(rows).encode()


class Instance:
    """One workload at one seed: builds the inputs and runs the operation."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.w = workload
        self.seed = seed
        self.workdir = workdir
        self._setups = 0
        self._ops = 0
        self.inputs = None

    def setup(self):
        """Build the inputs once more; the first build is the one used."""
        self._setups += 1
        if self.w.via_cli:
            out = self._cli_setup(self.workdir / f"setup{self._setups}")
        else:
            out = []
            for seed in self.w.sub_seeds(self.seed):
                synth = ssrlab.noise.make_gaussian_dataset(self.w.synth_spec(seed))
                noisy = ssrlab.noise.apply_noise(synth.train, self.w.noise_spec(seed),
                                                 synth.ood_pool)
                out.append((noisy, synth.test))
        if self.inputs is None:
            self.inputs = out

    def _cli_setup(self, d: Path) -> dict:
        d.mkdir(parents=True)
        cfg = {**self.w.train, "seed": self.seed,
               "synth": {**self.w.synth, "seed": self.seed,
                         "holdout_fraction": HOLDOUT_FRACTION},
               "noise": {**self.w.noise, "seed": self.seed}}
        paths = {"config": d / "config.json", "data": d / "data",
                 "noisy": d / "noisy.ssrd"}
        paths["config"].write_text(json.dumps(cfg))
        _cli(["synth", "-c", str(paths["config"]), "-o", str(paths["data"])])
        _cli(["inject", "-c", str(paths["config"]),
              "-i", str(paths["data"] / "train.ssrd"),
              "--ood", str(paths["data"] / "ood.ssrd"),
              "-o", str(paths["noisy"])])
        return paths

    def run_op(self) -> OpResult:
        self._ops += 1
        if self.w.via_cli:
            return self._cli_op(self.workdir / f"op{self._ops}")
        det, values, samples = [], [], 0
        for seed, (dataset, test) in zip(self.w.sub_seeds(self.seed), self.inputs):
            cfg = self.w.train_config(seed)
            record = ssrlab.pipeline.run_experiment(dataset, cfg, test=test).record
            det.append(_epoch_bytes(record.epochs))
            values.append(_quality(record.best_test_acc, record.last_test_acc,
                                   record.epochs[-1].sel_fscore, record.epochs))
            samples += dataset.n_samples * cfg.epochs
        # quality of an operation is the mean over its datasets
        return OpResult(deterministic=b"\n\n".join(det),
                        values={k: statistics.fmean(v[k] for v in values)
                                for k in values[0]},
                        train_samples=samples)

    def _cli_op(self, out: Path) -> OpResult:
        p = self.inputs
        data = p["data"]
        _cli(["compare-modes", "-c", str(p["config"]), "-i", str(p["noisy"]),
              "--test", str(data / "test.ssrd"), "-o", str(out)])
        files = [f for f in sorted(out.rglob("*")) if f.is_file()]
        det = []
        for mode in sorted(d.name for d in out.iterdir() if d.is_dir()):
            rec = json.loads((out / mode / "record.json").read_text())
            det.append(mode.encode() + b"\n" + _epoch_bytes(rec["epochs"]))
        if len(det) != COMPARE_MODES:
            raise RuntimeError(f"compare-modes wrote {len(det)} mode dirs")
        npk = json.loads((out / "npk_automatic" / "record.json").read_text())
        result = OpResult(
            deterministic=b"\n".join(det)
            + (out / "comparison.csv").read_bytes(),
            values=_quality(npk["best_test_acc"], npk["last_test_acc"],
                            npk["epochs"][-1]["sel_fscore"], npk["epochs"]),
            train_samples=self.w.n_samples * self.w.train["epochs"] * COMPARE_MODES,
            files=len(files), bytes=sum(f.stat().st_size for f in files))
        shutil.rmtree(out)
        return result


def _quality(best, last, fscore, epochs) -> dict:
    values = {"best_test_acc": float(best), "last_test_acc": float(last),
              "sel_fscore_last": float(fscore)}
    for e in epochs:
        row = e if isinstance(e, dict) else dataclasses.asdict(e)
        for k, v in row.items():
            values[f"epoch{row['epoch']}.{k}"] = float(v)
    return values


def _cli(argv) -> None:
    code = ssrlab.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"ssrlab {argv[0]} exited with {code}")

