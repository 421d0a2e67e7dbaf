"""Experiment runner CLI.

Verbs: ``synth`` (generate dataset files), ``inject`` (apply noise to an
embedding file), ``run`` (single experiment), ``grid`` (hyperparameter
sweep), ``compare-modes`` (selector comparison). Flags override config keys.
Exit codes: 0 success, 2 config error, 3 data error or a file that cannot be
read or written, 4 numeric failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import logging
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import ParsedConfig, parse_config
from .errors import ConfigError, DataError, NumericError
from .noise import apply_noise, make_gaussian_dataset
from .pipeline import (EpochMetrics, EpochTimings, ExperimentRecord,
                       compare_selection_modes, run_experiment)
from .ssrd import (load_embeddings, load_pool, write_atomic, write_dataset,
                   write_pool)

log = logging.getLogger("ssrlab")

CSV_COLUMNS = [f.name for f in dataclasses.fields(EpochMetrics)]
TIMING_COLUMNS = [f.name for f in dataclasses.fields(EpochTimings)]

# flags mirroring the most common config keys; flags win over the file
_OVERRIDE_FLAGS = {
    "theta_s": float, "theta_r": float, "k_neighbours": int,
    "lambda_fc": float, "mixup_alpha": float, "learning_rate": float,
    "epochs": int, "batch_size": int, "seed": int,
}


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


def _prepare_data(parsed: ParsedConfig, data_path=None, test_path=None,
                  ood_path=None):
    """Dataset either from SSRD files or generated from the synth/noise spec."""
    if data_path is not None:
        dataset = load_embeddings(data_path)
        test = load_embeddings(test_path) if test_path else None
        return dataset, test
    if parsed.synth is None:
        raise ConfigError("RANGE_ERROR",
                          "no input file given and no synth section in config")
    synth = make_gaussian_dataset(parsed.synth)
    dataset = synth.train
    if parsed.noise is not None:
        pool = load_pool(ood_path) if ood_path else synth.ood_pool
        dataset = apply_noise(dataset, parsed.noise, pool)
    return dataset, synth.test


def _apply_overrides(parsed: ParsedConfig, args) -> ParsedConfig:
    updates = {}
    for key in _OVERRIDE_FLAGS:
        val = getattr(args, key, None)
        if val is not None:
            updates[key] = val
    if not updates:
        return parsed
    return dataclasses.replace(parsed,
                               train=dataclasses.replace(parsed.train, **updates))


def _cmd_synth(args) -> int:
    parsed = parse_config(args.config)
    if parsed.synth is None:
        raise ConfigError("RANGE_ERROR", "config has no synth section")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    synth = make_gaussian_dataset(parsed.synth)
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
    pool = load_pool(args.ood) if args.ood else np.zeros((0, dataset.dim))
    noisy = apply_noise(dataset, parsed.noise, pool)
    write_dataset(args.out, noisy)
    log.info("wrote noisy dataset to %s", args.out)
    return 0


def _with_data(verb, args) -> int:
    """Shared frame of run, grid and compare-modes: parse the config with the
    flag overrides, load or generate the data, call verb(args, parsed, data,
    test), and write manifest.json into the directory it returns."""
    started = time.time()
    parsed = _apply_overrides(parse_config(args.config), args)
    data, test = _prepare_data(parsed, args.input, args.test, args.ood)
    out = verb(args, parsed, data, test)
    manifest = {
        "config_path": str(args.config) if args.config else None,
        "output_dir": str(out),
        "seed": parsed.train.seed,
        "artifact_version": __version__,
        "started": started,
        "finished": time.time(),
    }
    _write_json(out / "manifest.json", manifest)
    return 0


def _cmd_run(args, parsed, data, test) -> Path:
    out = _run_dir(Path(args.out), parsed.train.seed)
    record = run_experiment(data, parsed.train, test=test).record
    _emit(record, parsed, out)
    log.info("run finished: best=%.4f last=%.4f -> %s",
             record.best_test_acc, record.last_test_acc, out)
    return out


_SWEEPABLE = ("theta_s", "theta_r", "k_neighbours")


def _cmd_grid(args, parsed, data, test) -> Path:
    """One independent run per sweep value, plus an aggregated summary CSV."""
    caster = _OVERRIDE_FLAGS[args.param]
    try:
        values = [caster(v) for v in args.values.split(",")]
    except ValueError as exc:
        raise ConfigError("RANGE_ERROR",
                          f"bad sweep values {args.values!r}: {exc}") from exc
    out_root = Path(args.out)
    summary = []
    for value in values:
        train = dataclasses.replace(parsed.train, **{args.param: value})
        record = run_experiment(data, train, test=test).record
        _emit(record, parsed, out_root / f"{args.param}_{value}")
        summary.append((value, record.best_test_acc, record.last_test_acc))
    _write_csv(out_root / "summary.csv",
               [args.param, "best_test_acc", "last_test_acc"], summary)
    log.info("grid finished: %d points -> %s", len(values), out_root)
    return out_root


def _cmd_compare_modes(args, parsed, data, test) -> Path:
    out = Path(args.out)
    runs = compare_selection_modes(data, parsed.train, test=test)
    summary = []
    for name, record in runs.items():
        _emit(record, parsed, out / name)
        summary.append((name, record.best_test_acc, record.last_test_acc))
    _write_csv(out / "comparison.csv",
               ["mode", "best_test_acc", "last_test_acc"], summary)
    log.info("mode comparison -> %s", out)
    return out


def _add_common(p):
    p.add_argument("-c", "--config", required=True, help="JSON config file")
    p.add_argument("-o", "--out", required=True, help="output directory")
    p.add_argument("-i", "--input", help="SSRD dataset file")
    p.add_argument("--test", help="SSRD holdout dataset file")
    p.add_argument("--ood", help="SSRD open-set pool file")
    for key, caster in _OVERRIDE_FLAGS.items():
        p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=caster,
                       default=None)


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
    p.add_argument("--param", required=True,
                   choices=sorted(_SWEEPABLE))
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
    except ConfigError as exc:
        log.error("%s", exc)
        return 2
    except DataError as exc:
        log.error("%s", exc)
        return 3
    except NumericError as exc:
        log.error("%s", exc)
        return 4
    except OSError as exc:
        log.error("IO_ERROR: %s: %s", exc.filename, exc.strerror or exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
