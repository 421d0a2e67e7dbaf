"""Experiment runner CLI.

Verbs: ``synth`` (generate dataset files), ``inject`` (apply noise to an
embedding file), ``run`` (single experiment), ``grid`` (hyperparameter
sweep), ``compare-modes`` (selector comparison). Every train value comes
from the config file, and a sweep's values from ``grid --param/--values``.
Exit codes: 0 on success, else the ``exit_code`` of the error's class in
``ssrlab.errors``; a file that cannot be read or written exits as a DataError.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import logging
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import ParsedConfig, parse_config
from .data import TRAIN_PARAMS
from .errors import ConfigError, DataError, SsrError
from .noise import apply_noise, make_gaussian_dataset
from .pipeline import (EpochMetrics, EpochTimings, ExperimentRecord,
                       check_experiment, compare_selection_modes,
                       run_experiment)
from .ssrd import (load_embeddings, load_pool, write_atomic, write_dataset,
                   write_pool)

log = logging.getLogger("ssrlab")

CSV_COLUMNS = [f.name for f in dataclasses.fields(EpochMetrics)]
TIMING_COLUMNS = [f.name for f in dataclasses.fields(EpochTimings)]


def _write_csv(path: Path, columns: list, rows) -> None:
    """A header line, then one line per sequence of values: None as an empty
    cell, ints and strings as str, anything else as repr(float)."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join("" if v is None
                              else str(v) if isinstance(v, (int, str))
                              else repr(float(v)) for v in row))
    write_atomic(path, ("\n".join(lines) + "\n").encode())


def _write_json(path: Path, obj) -> None:
    write_atomic(path, (json.dumps(obj, indent=2) + "\n").encode())


def emit_metrics(record: ExperimentRecord, out_dir) -> None:
    """Write metrics.csv and record.json, which repeat byte for byte for a
    given config and data, and the wall-clock timings.csv."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "metrics.csv", CSV_COLUMNS,
               map(dataclasses.astuple, record.epochs))
    payload = {"config": record.config,
               "epochs": [dataclasses.asdict(e) for e in record.epochs],
               "best_test_acc": record.best_test_acc,
               "last_test_acc": record.last_test_acc}
    _write_json(out / "record.json", payload)
    _write_csv(out / "timings.csv", TIMING_COLUMNS,
               map(dataclasses.astuple, record.timings))


def _emit(record: ExperimentRecord, parsed: ParsedConfig, out: Path) -> None:
    """emit_metrics with the config echo, keeping the train block the run used."""
    record.config = {**parsed.echo(), "train": record.config}
    emit_metrics(record, out)


def _run_dir(root: Path, seed: int) -> Path:
    stamp = time.strftime("%Y%m%d-%H%M%S")
    base = root / f"run_{stamp}_s{seed}"
    out = base
    suffix = 1
    while out.exists():
        out = Path(f"{base}_{suffix}")
        suffix += 1
    out.mkdir(parents=True)
    return out


def _prepare_data(parsed: ParsedConfig, data_path=None, test_path=None):
    """Dataset either from SSRD files or generated from the synth/noise spec."""
    if data_path is not None:
        dataset = load_embeddings(data_path)
        test = load_embeddings(test_path) if test_path else None
        return dataset, test
    if test_path is not None:
        raise ConfigError("RANGE_ERROR", "--test needs -i")
    if parsed.synth is None:
        raise ConfigError("RANGE_ERROR",
                          "no input file given and no synth section in config")
    synth = make_gaussian_dataset(parsed.synth)
    dataset = synth.train
    if parsed.noise is not None:
        dataset = apply_noise(dataset, parsed.noise, synth.ood_pool)
    return dataset, synth.test


def _cmd_synth(args) -> int:
    parsed = parse_config(args.config)
    if parsed.synth is None:
        raise ConfigError("RANGE_ERROR", "config has no synth section")
    synth = make_gaussian_dataset(parsed.synth)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_dataset(out / "train.ssrd", synth.train)
    write_dataset(out / "test.ssrd", synth.test)
    if synth.ood_pool.shape[0]:
        write_pool(out / "ood.ssrd", synth.ood_pool)
    _write_json(out / "synth.json", parsed.echo())
    log.info("wrote synthetic dataset to %s", out)
    return 0


def _cmd_inject(args) -> int:
    parsed = parse_config(args.config)
    if parsed.noise is None:
        raise ConfigError("RANGE_ERROR", "config has no noise section")
    dataset = load_embeddings(args.input)
    pool = load_pool(args.ood) if args.ood else None
    noisy = apply_noise(dataset, parsed.noise, pool)
    write_dataset(args.out, noisy)
    log.info("wrote noisy dataset to %s", args.out)
    return 0


def _with_data(verb, args) -> int:
    """Shared frame of run, grid and compare-modes: parse the config, load or
    generate the data, call verb(args, parsed, data, test), and write
    manifest.json into the directory it returns: the input files with the
    sha256 of their bytes, the versions and the BLAS thread settings."""
    started = time.time()
    parsed = parse_config(args.config)
    data, test = _prepare_data(parsed, args.input, args.test)
    inputs = {}
    for name, path in (("input", args.input), ("test", args.test)):
        inputs[f"{name}_path"] = path
        inputs[f"{name}_sha256"] = path and hashlib.sha256(
            Path(path).read_bytes()).hexdigest()
    if args.input is not None:   # record.json echoes only what was applied
        parsed = dataclasses.replace(parsed, synth=None, noise=None)
    out = verb(args, parsed, data, test)
    manifest = {
        "config_path": str(args.config) if args.config else None,
        **inputs,
        "output_dir": str(out),
        "seed": parsed.train.seed,
        "artifact_version": __version__,
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
        "blas_threads": {name: os.environ.get(name) for name in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "started": started,
        "finished": time.time(),
    }
    _write_json(out / "manifest.json", manifest)
    return 0


def _cmd_run(args, parsed, data, test) -> Path:
    record = run_experiment(data, parsed.train, test=test).record
    out = _run_dir(Path(args.out), parsed.train.seed)
    _emit(record, parsed, out)
    accs = ("no test set" if record.last_test_acc is None else
            f"best={record.best_test_acc:.4f} last={record.last_test_acc:.4f}")
    log.info("run finished: %s -> %s", accs, out)
    return out


def _emit_points(out, parsed, summary, column, points, prefix="") -> Path:
    """Emit each (value, record) point into out/<prefix><value> as the
    iterable yields it, so a sweep that fails keeps its finished points;
    then the summary CSV of their accuracies."""
    rows = []
    for value, record in points:
        _emit(record, parsed, out / f"{prefix}{value}")
        rows.append((value, record.best_test_acc, record.last_test_acc))
    _write_csv(out / summary, [column, "best_test_acc", "last_test_acc"], rows)
    log.info("%d runs finished -> %s", len(rows), out / summary)
    return out


def _cmd_grid(args, parsed, data, test) -> Path:
    """One independent run per sweep value, plus an aggregated summary CSV."""
    caster = TRAIN_PARAMS[args.param].kind
    try:
        # every point's config is checked before the first point runs
        trains = [dataclasses.replace(parsed.train, **{args.param: caster(v)})
                  for v in args.values.split(",")]
    except ValueError as exc:
        raise ConfigError("RANGE_ERROR",
                          f"bad sweep values {args.values!r}: {exc}") from exc
    values = [getattr(train, args.param) for train in trains]
    if len(set(values)) < len(values):   # a repeat would overwrite its directory
        raise ConfigError("RANGE_ERROR",
                          f"sweep values {args.values!r} repeat a value")
    for train in trains:   # and against the data
        check_experiment(data, train, test=test)
    points = ((value, run_experiment(data, train, test=test).record)
              for train, value in zip(trains, values))
    return _emit_points(Path(args.out), parsed, "summary.csv", args.param,
                        points, f"{args.param}_")


def _cmd_compare_modes(args, parsed, data, test) -> Path:
    runs = compare_selection_modes(data, parsed.train, test=test)
    return _emit_points(Path(args.out), parsed, "comparison.csv", "mode",
                        runs.items())


def _add_common(p):
    p.add_argument("-c", "--config", required=True, help="JSON config file")
    p.add_argument("-o", "--out", required=True, help="output directory")
    p.add_argument("-i", "--input", help="SSRD dataset file")
    p.add_argument("--test", help="SSRD holdout dataset file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ssrlab")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("inject", help="apply noise to an embedding file")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--ood", help="SSRD open-set pool file")
    p.set_defaults(func=_cmd_inject)

    p = sub.add_parser("run", help="run a single experiment")
    _add_common(p)
    p.set_defaults(func=functools.partial(_with_data, _cmd_run))

    p = sub.add_parser("grid", help="sweep one hyperparameter")
    _add_common(p)
    # the caster is the kind, so a bool key is left out: bool("false") is True
    p.add_argument("--param", required=True, choices=sorted(
        k for k, param in TRAIN_PARAMS.items() if param.kind in (int, float)))
    p.add_argument("--values", required=True,
                   help="comma-separated sweep values")
    p.set_defaults(func=functools.partial(_with_data, _cmd_grid))

    p = sub.add_parser("compare-modes", help="compare selection mechanisms")
    _add_common(p)
    p.set_defaults(func=functools.partial(_with_data, _cmd_compare_modes))
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SsrError as exc:
        log.error("%s", exc)
        return exc.exit_code
    except OSError as exc:
        log.error("IO_ERROR: %s: %s", exc.filename, exc.strerror or exc)
        return DataError.exit_code


if __name__ == "__main__":
    sys.exit(main())
