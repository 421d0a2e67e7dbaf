"""ssrlab benchmark: one workload per call, each in a fresh child process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sym50_n2k --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (names and units are declared in BENCHMARK.json).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are the provenance header and every metric by name with its unit, including
the ones not declared in BENCHMARK.json (``fail_ratio``, repeat counts).
``--workload all`` runs every workload, one child at a time, and prints the
same lines for each. See perfbench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT_DIR = ".perfbench_runs"
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_thread_cap() -> int:
    """Usable CPUs, or a lower thread count already set in the environment."""
    cap = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        val = os.environ.get(var, "")
        if val.isdigit() and 0 < int(val) < cap:
            cap = int(val)
    return cap


def git_sha(root: Path):
    """HEAD commit of the checkout, or None when it is not a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_child(root: Path, workload: str, args, cap: int) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.update({var: str(cap) for var in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--root", str(root),
           "--out", str(root / OUT_DIR)]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload}: worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def declared(bench: dict, trace: int) -> dict:
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in bench[key]}


def report(workload: str, result: dict, header: dict) -> None:
    info = result["info"]
    print("provenance: " + json.dumps({**header, "workload": workload,
                                       **info["provenance"],
                                       "repeats": info["repeats"]}))
    print(f"{workload}  operation durations_s = {info['durations_s']}; "
          f"setup quartiles_s = {info['setup_quartiles_s']}")
    for name, m in result["metrics"].items():
        print(f"{workload}  {name} = {m['value']!r} {m['unit']}")
    print(f"{workload}  attempted = {result['attempted']} count, "
          f"failed = {result['failed']} count, correct = {result['correct']}")
    if "spans" in info:
        print(f"{workload}  spans written to {info['spans']}")
    for reason in info["failures"] + info.get("trace_problems", []):
        print(f"{workload}  FAILED: {reason}")


def main(argv=None) -> int:
    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text()) if spec_path.is_file() else {}
    workloads = [w["name"] for w in spec.get("workloads", [])]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="self-test sizes: every workload shrunk to seconds")
    args = ap.parse_args(argv)

    if not (root / "src" / "ssrlab" / "__init__.py").is_file():
        print(f"no ssrlab sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    names = declared(spec, args.trace)
    cap = blas_thread_cap()
    header = {"git_sha": git_sha(root), "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "blas_thread_cap": cap}

    ok = True
    for workload in (workloads if args.workload == "all" else [args.workload]):
        result = run_child(root, workload, args, cap)
        report(workload, result, header)
        metrics = result["metrics"]
        for name, unit in names.items():
            if name not in metrics or metrics[name]["unit"] != unit:
                raise SystemExit(f"{workload}: metric {name} [{unit}] missing")
        ok = ok and result["correct"]
    if args.workload == "all":
        return 0 if ok else 1
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {n: metrics[n] for n in names}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
