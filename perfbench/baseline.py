"""Run the benchmark over several seeds and summarise it into a baseline.

    python3 perfbench/baseline.py --out perfbench/baseline.json

Run from the repository root.  For each workload it makes RUNS untraced runs,
seeds 1..RUNS, and reports each end-to-end metric's median, quartiles and
spread (quartile distance as a share of the median, the figure the metric's
bound in BENCHMARK.json is set against), then one traced run on the default
seed for the per-layer breakdown and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

RUNS = 10


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(argv, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {out.splitlines()[-2]}")
    return result


def summarise(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2, "values": values}


def machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {
        "machine": machine(),
        "run_seconds": spec["run_seconds"],
        "seeds": list(range(1, RUNS + 1)),
        "holdout_seed": workloads.HOLDOUT_SEED,
        "workloads": {},
    }
    for w in workloads.WORKLOADS:
        runs = [bench(w, seed, spec["run_seconds"], 0) for seed in report["seeds"]]
        e2e = {k: summarise([r["metrics"][k]["value"] for r in runs]) for k in bounds}
        entry = {"why": workloads.WHY[w], "end_to_end": e2e}
        for k, s in e2e.items():
            print(f"{w:10s} {k:12s} median {s['median']:.4g}  spread {s['spread']:.3f}  bound {bounds[k]}", flush=True)
        traced = bench(w, workloads.DEFAULT_SEED, spec["run_seconds"], 1)
        entry["per_layer_default_seed"] = {k: v["value"] for k, v in traced["metrics"].items()}
        report["workloads"][w] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
