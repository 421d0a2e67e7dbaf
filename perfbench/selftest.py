"""Self-test of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py          # tiny sizes, about half a minute
    python3 perfbench/selftest.py --full   # also the layer-stress checks, full size

The tiny test runs every workload with ``--trace 0`` and ``--trace 1`` and
checks that each prints every metric of BENCHMARK.json, plus ``fail_ratio``,
by name with its unit; that the last line holds exactly the declared metrics;
and that no operation failed. It also checks that the benchmark exits non-zero
without printing a result when the ssrlab sources are absent.

``--full`` adds one traced run per workload at full size and checks that each
workload stresses the layer it was chosen for.
"""
from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

from run import OUT_DIR  # noqa: E402

HERE = Path(__file__).resolve().parent
LINE = re.compile(r"^(\S+)  (\S+) = (\S+) (\S+)$")


def bench(root: Path, workload: str, trace: int, seconds: float, tiny: bool):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=600)


def check_output(proc, workload: str, declared: dict, extra: dict) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"{workload}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(declared), set(result["metrics"]) ^ set(declared)
    printed = {}
    for line in lines[:-1]:
        m = LINE.match(line)
        if m and m.group(1) == workload:
            printed[m.group(2)] = (float(m.group(3)), m.group(4))
    for name, unit in {**declared, **extra}.items():
        assert name in printed, f"{workload}: {name} not printed"
        assert printed[name][1] == unit, f"{workload}: {name} unit {printed[name][1]}"
        assert result["metrics"].get(name, {"unit": unit})["unit"] == unit
    assert any(line.startswith("provenance: ") for line in lines)
    return {k: v for k, (v, _) in printed.items()}


def check_bare_directory(root: Path, workload: str) -> None:
    """Only BENCHMARK.json and the benchmark: must fail without a result."""
    bare = root / OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(root / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                               workload, "--seed", "0", "--seconds", "1",
                               "--trace", "0"], cwd=bare, capture_output=True,
                              text=True, timeout=180)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0, "benchmark succeeded without the sources"
    assert '"correct"' not in proc.stdout, "benchmark printed a result"


def check_stress(values: dict, workload: str) -> None:
    """Each workload stresses the layer it was chosen for."""
    run_s = values["trace.run_s"]
    if workload == "sym50_n10k":
        share = values["selector.knn_busy_s"] / run_s
        assert share >= 0.85, f"{workload}: KNN is {share:.0%} of run_s"
    if workload == "asym30_wide_n1k":
        share = values["model.train_step_busy_s"] / run_s
        assert share >= 0.60, f"{workload}: train step is {share:.0%} of run_s"
    gmm = values["selector.gmm_calls"]
    assert (gmm > 0) == (workload == "cli_compare_modes"), f"{workload}: {gmm} GMM calls"
    print(f"  {workload}: knn {values['selector.knn_busy_s'] / run_s:.0%}, "
          f"train step {values['model.train_step_busy_s'] / run_s:.0%}, "
          f"gmm calls {gmm:g}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--full", action="store_true")
    args = ap.parse_args(argv)
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared = {t: {m["name"]: m["unit"] for m in spec[k]}
                for t, k in ((0, "end_to_end"), (1, "per_layer"))}
    extra = {0: {"fail_ratio": "fraction"}, 1: {}}
    workloads = [w["name"] for w in spec["workloads"]]

    for workload in workloads:
        for trace in (0, 1):
            check_output(bench(root, workload, trace, 1, True), workload,
                         declared[trace], extra[trace])
        print(f"tiny {workload}: ok")
    check_bare_directory(root, workloads[0])
    print("bare directory: exits non-zero without a result")
    if args.full:
        for workload in workloads:
            values = check_output(bench(root, workload, 1, spec["run_seconds"], False),
                                  workload, declared[1], {})
            check_stress(values, workload)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
