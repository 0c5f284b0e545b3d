"""Regenerate perfbench/reference.json, the pinned outputs the benchmark
checks every request against.

Run from the repository root:  python3 perfbench/make_reference.py

It counts every (a, B) the workload generator can emit with both counters
(they must agree) and pins the `predict` output of the CLI for every a in
TESTBED.  Takes about 5 minutes on one core; per-item timings go to stderr.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from delpezzo.arith import TESTBED  # noqa: E402
from delpezzo.counting import direct_count, torsor_count  # noqa: E402

from workloads import CROSSCHECK_B, b_candidates  # noqa: E402


def _timed(fn, *args):
    t = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t


def main() -> int:
    counts: dict[str, int] = {}
    for B0 in CROSSCHECK_B:
        for B in b_candidates(B0):
            for a in TESTBED:
                t, t_s = _timed(torsor_count, a, B)
                d, d_s = _timed(direct_count, a, B)
                if d.count != t.count:
                    raise SystemExit(f"direct {d.count} != torsor {t.count} at a={a} B={B}")
                counts[f"{a},{B}"] = t.count
                print(f"count a={a} B={B} N={t.count} torsor {t_s:.3f}s direct {d_s:.3f}s",
                      file=sys.stderr, flush=True)
    predict: dict[str, dict] = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as cache:
        for a in TESTBED:
            argv = [sys.executable, "-m", "delpezzo.cli", "predict", "--a", str(a), "--cache-dir", cache]
            t = time.perf_counter()
            out = subprocess.run(argv, check=True, capture_output=True, text=True,
                                 env={"PYTHONPATH": str(ROOT / "src")}).stdout
            print(f"predict a={a} {time.perf_counter() - t:.3f}s", file=sys.stderr, flush=True)
            predict[str(a)] = json.loads(out)
    ref = {"count": counts, "predict": predict}
    (ROOT / "perfbench" / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
