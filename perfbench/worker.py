"""One benchmark run of one workload, in its own process.

Started by run.py with the BLAS thread cap already in its environment. It
imports ssrlab from the checkout's ``src``, builds the inputs from the seed,
times the set-up and the operation, checks every operation's output, and
prints one JSON object as its last line. With ``--trace 1`` it also times
untraced operations, then installs the tracer and repeats set-up and
operation traced, and writes the spans when the run ends.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# Set-ups run in batches, one before the warm-up and one before every
# operation, so that set-up times are sampled across the whole run.
SETUP_MIN_REPS = 3
SETUP_MIN_S = 0.1
SETUP_MAX_REPS = 50
MIN_TIMED_REPS = 3
MIN_TRACED_REPS = 2


def _import_ssrlab(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import ssrlab
    where = Path(ssrlab.__file__).resolve()
    if src not in where.parents:
        raise SystemExit(f"ssrlab imported from {where}, not from {src}")
    return ssrlab


class Checker:
    """Runs operations and keeps the pass/fail tally.

    An operation passes when it returns without raising, every recorded
    metric is finite, the last test accuracy is above chance and the
    deterministic per-epoch columns equal those of the first passing run.
    """

    def __init__(self, instance, chance: float):
        self.instance = instance
        self.chance = chance
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def run(self):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            res = self.instance.run_op()
        except Exception as exc:  # a failing operation is counted, not fatal
            dt = time.perf_counter() - t0
            return self._fail(dt, f"raised {type(exc).__name__}: {exc}")
        dt = time.perf_counter() - t0
        if not all(math.isfinite(v) for v in res.values.values()):
            return self._fail(dt, "non-finite metric")
        if not res.values["last_test_acc"] > self.chance:
            return self._fail(dt, f"last_test_acc {res.values['last_test_acc']} "
                                  f"not above chance {self.chance}")
        if self.reference is None:
            self.reference = res
        elif res.deterministic != self.reference.deterministic:
            return self._fail(dt, "per-epoch metrics differ from the first run")
        return dt, res

    def _fail(self, dt, reason):
        self.failed += 1
        self.reasons.append(reason)
        return dt, None


def _loop(run_one, budget: float, min_reps: int) -> list:
    """Repeat ``run_one`` (which returns its duration) until the next call
    would overrun the budget; at least ``min_reps`` calls."""
    durations = []
    start = time.perf_counter()
    while True:
        durations.append(run_one())
        elapsed = time.perf_counter() - start
        if len(durations) >= min_reps and elapsed + statistics.median(durations) > budget:
            return durations


def _timed_setups(instance, tracer=None) -> list:
    """One batch: at least SETUP_MIN_REPS set-ups and SETUP_MIN_S seconds."""
    times = []
    start = time.perf_counter()
    while (len(times) < SETUP_MIN_REPS or time.perf_counter() - start < SETUP_MIN_S) \
            and len(times) < SETUP_MAX_REPS:
        span = tracer.begin("setup") if tracer else None
        t0 = time.perf_counter()
        instance.setup()
        times.append(time.perf_counter() - t0)
        if span:
            tracer.finish(span)
    return times


def _provenance(np, blas_threads: str) -> dict:
    cfg = np.show_config(mode="dicts")
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": blas_threads,
            "numpy": np.__version__, "python": sys.version.split()[0]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--root", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    root = Path(args.root)
    _import_ssrlab(root)
    import numpy as np
    import layers
    from workloads import WORKLOADS, Instance

    w = WORKLOADS[args.workload].sized(args.tiny)
    run_id = f"{w.name}-s{args.seed}-t{args.trace}-p{os.getpid()}-{time.time_ns()}"
    run_dir = Path(args.out) / run_id
    run_dir.mkdir(parents=True)
    instance = Instance(w, args.seed, run_dir / "files")
    checker = Checker(instance, 1.0 / w.num_classes)

    setup_times = _timed_setups(instance)  # the first set-up builds the inputs
    checker.run()  # warm-up: fills caches and fixes the reference output

    def timed_op():
        setup_times.extend(_timed_setups(instance))
        return checker.run()[0]

    budget = args.seconds / 2 if args.trace else args.seconds
    durations = _loop(timed_op, budget,
                      MIN_TRACED_REPS if args.trace else MIN_TIMED_REPS)
    run_s = statistics.median(durations)
    info = {"run_id": run_id,
            "provenance": _provenance(np, os.environ.get("OPENBLAS_NUM_THREADS", "")),
            "repeats": {"setup": len(setup_times), "warmup": 1,
                        "timed": len(durations)},
            "durations_s": durations,
            "setup_quartiles_s": statistics.quantiles(setup_times, n=4)}
    problems = []

    if args.trace:
        from tracer import Tracer
        tracer = Tracer(run_id)
        traced, traced_setups = [], []

        def traced_op():
            traced_setups.extend(_timed_setups(instance, tracer))
            span = tracer.begin("op")
            _, res = checker.run()
            tracer.finish(span)
            traced.append((span, res))
            return span.duration

        tracer.install()
        try:
            _loop(traced_op, budget, MIN_TRACED_REPS)
        finally:
            tracer.uninstall()
        spans_path = run_dir / "spans.jsonl"
        tracer.write(spans_path)
        metrics, problems = layers.per_layer(tracer.spans, traced, run_s)
        info["spans"] = str(spans_path)
        info["trace_problems"] = problems
        info["repeats"].update(traced_setup=len(traced_setups), traced=len(traced))
    else:
        ref = checker.reference
        quality = ref.values if ref else {}
        samples = ref.train_samples if ref else 0
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "run_s": (run_s, "s"),
            "sample_epochs_per_s": (samples / run_s, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MB"),
            "best_test_acc": (quality.get("best_test_acc", 0.0), "fraction"),
            "last_test_acc": (quality.get("last_test_acc", 0.0), "fraction"),
            "sel_fscore_last": (quality.get("sel_fscore_last", 0.0), "fraction"),
            "fail_ratio": (checker.failed / checker.attempted, "fraction"),
        }

    shutil.rmtree(run_dir / "files" if args.trace else run_dir, ignore_errors=True)
    info["failures"] = checker.reasons[:5]
    print(json.dumps({
        "correct": checker.failed == 0 and not problems,
        "attempted": checker.attempted, "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": info}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
