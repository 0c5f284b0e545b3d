"""CLI-level benchmark of delpezzo.

    python3 perfbench/run.py --workload crosscheck --seed 0 --seconds 50 --trace 0

Run from the root of a checkout (it needs src/delpezzo).  Every request is a
fresh interpreter running `python -m delpezzo.cli ...`, because that is what
a user pays for; in-process memos would make repeats meaningless.  One client
sends the requests one after another (closed loop, 2-core machine).

A run measures set-up first: the median wall time of fresh interpreters that
import delpezzo.cli plus the modules the workload's commands load.  Then it
makes whole passes over the workload's request list (workloads.py) for at
most --seconds, and at least one.  Each pass starts from a fresh cache; the
`constant` workload's cache is first filled with records for parameters it
never requests.  Every response is checked against perfbench/reference.json.

--trace 0 prints the end-to-end metrics.  --trace 1 skips the set-up probes,
makes one untraced and one traced pass (tracer.py), sent request by request
in alternating order, and prints the per-layer metrics, including the tracing
overhead and the time no span covers; the spans of the traced pass are
written to .perfbench/trace-<workload>-<seed>.json.

The last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
where failed/attempted is the error rate.  The line before it gives the
per-pass details, with the sample count behind each median.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
import workloads
from workloads import Outcome, Request

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 7
PREFILL_RECORDS = 2000

SETUP_IMPORTS = {
    "crosscheck": "delpezzo.cli, delpezzo.counting, delpezzo.theta, delpezzo.torsor",
    "constant": "delpezzo.cli, delpezzo.constant, delpezzo.local_densities, delpezzo.eta, delpezzo.theta",
}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "miss_p50_s": "s",
    "hit_p50_s": "s",
}


@dataclass
class PassResult:
    wall: float
    outcomes: list[Outcome]
    failures: list[str]
    spans: list = field(default_factory=list)  # per request, traced passes only


class Bench:
    """Runs request processes from a checkout root, inside a private work dir."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.env = dict(os.environ)
        self.env.pop("DELPEZZO_CACHE_DIR", None)
        self.env["PYTHONPATH"] = str(root / "src")
        work.mkdir(parents=True, exist_ok=True)

    def spawn(self, argv: list[str], env: dict | None = None) -> Outcome:
        """Run one process to completion; its wall time and max RSS."""
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=env or self.env, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            latency = time.perf_counter() - t
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Outcome(proc.returncode, out_path.read_bytes(), err_path.read_bytes(), latency, usage.ru_maxrss)

    def setup_time(self, workload: str) -> tuple[float, list[float]]:
        """Median fresh-interpreter import time; one untimed warm-up first so
        that bytecode compilation of a fresh checkout is not counted."""
        argv = [sys.executable, "-c", f"import {SETUP_IMPORTS[workload]}"]
        probes = [self.spawn(argv) for _ in range(SETUP_PROBES + 1)]
        if any(p.returncode for p in probes):
            raise RuntimeError(f"importing {SETUP_IMPORTS[workload]} failed")
        times = [p.latency for p in probes[1:]]
        return statistics.median(times), times

    def prefill(self, seed: int) -> Path:
        """A cache file holding PREFILL_RECORDS predict records, written through
        Cache.put, for parameters no request uses (their Monte Carlo seed is
        never the CLI default 1)."""
        sys.path.insert(0, str(self.root / "src"))
        from delpezzo.cli import Cache

        cache = Cache(self.work / "prefill")
        rng = random.Random(f"prefill/{seed}")
        factors = workloads.load_reference()["predict"]["-1"]
        for i in range(PREFILL_RECORDS):
            params = {
                "a": rng.choice(range(-60, 61)),
                "prime_cut": rng.choice((1000, 5000, 20000, 40000)),
                "mc_samples": 10**6,
                "seed": 1000 + i,
                "tolerance": 1e-6,
            }
            cache.put("predict", params, factors)
        return cache.path

    def run_pass(self, requests: list[Request], k: int, prefill: Path | None) -> PassResult:
        stream = _Stream(self, self.work / f"pass-{k}", prefill, traced=False)
        t = time.perf_counter()
        for req in requests:
            stream.send(req)
        stream.result.wall = time.perf_counter() - t
        stream.close()
        return stream.result

    def run_paired(self, requests: list[Request], k: int, prefill: Path | None) -> tuple[PassResult, PassResult]:
        """One untraced and one traced pass, each into its own cache, sent
        request by request with the order of each pair alternating, so that
        the machine's drift falls on both passes alike.  A pass's wall time
        is then the sum of its request latencies."""
        plain = _Stream(self, self.work / f"pass-{k}", prefill, traced=False)
        traced = _Stream(self, self.work / f"pass-{k}-traced", prefill, traced=True)
        for i, req in enumerate(requests):
            for stream in (plain, traced) if i % 2 == 0 else (traced, plain):
                stream.send(req)
        for stream in (plain, traced):
            stream.result.wall = sum(o.latency for o in stream.result.outcomes)
            stream.close()
        return plain.result, traced.result


class _Stream:
    """The requests of one pass, sent into one fresh cache directory."""

    def __init__(self, bench: Bench, cache_dir: Path, prefill: Path | None, traced: bool):
        shutil.rmtree(cache_dir, ignore_errors=True)
        cache_dir.mkdir(parents=True)
        self.bench, self.cache_dir, self.traced = bench, cache_dir, traced
        self.cache_file = cache_dir / "cache.jsonl"
        if prefill is not None:
            shutil.copyfile(prefill, self.cache_file)
        self.spans_file = bench.work / "spans.json"
        self.launcher = [str(HERE / "tracer.py")] if traced else ["-m", "delpezzo.cli"]
        self.env = dict(bench.env, PERFBENCH_SPANS=str(self.spans_file)) if traced else None
        self.result = PassResult(0.0, [], [])

    def send(self, req: Request) -> None:
        argv = [sys.executable, *self.launcher, *req.argv]
        if req.cached:
            argv += ["--cache-dir", str(self.cache_dir)]
        if self.traced:
            self.spans_file.unlink(missing_ok=True)
        before = _records(self.cache_file)
        out = self.bench.spawn(argv, self.env)
        out.records_before, out.records_after = before, _records(self.cache_file)
        res = self.result
        first = res.outcomes[req.repeat_of] if req.repeat_of is not None else None
        reason = workloads.check(req, out, first)
        if self.traced:
            if self.spans_file.exists():
                res.spans.append(json.loads(self.spans_file.read_text())["spans"])
            else:
                res.spans.append([])
                reason = reason or "no spans written"
        if reason:
            res.failures.append(f"{' '.join(req.argv)}: {reason}")
        res.outcomes.append(out)

    def close(self) -> None:
        shutil.rmtree(self.cache_dir)


def _records(path: Path) -> int:
    if not path.exists():
        return 0
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def end_to_end(requests: list[Request], passes: list[PassResult], setup: float) -> tuple[dict, dict]:
    miss = [o.latency for p in passes for r, o in zip(requests, p.outcomes) if r.cached and r.repeat_of is None]
    hit = [o.latency for p in passes for r, o in zip(requests, p.outcomes) if r.repeat_of is not None]
    values = {
        "wall_s": statistics.median(p.wall for p in passes),
        "setup_s": setup,
        "peak_rss_mb": max(o.maxrss_kb for p in passes for o in p.outcomes) / 1024,
        "miss_p50_s": statistics.median(miss),
        "hit_p50_s": statistics.median(hit),
    }
    samples = {"wall_s": len(passes), "miss_p50_s": len(miss), "hit_p50_s": len(hit)}
    return values, samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "delpezzo" / "cli.py").is_file():
        print("perfbench: run from a checkout root holding src/delpezzo", file=sys.stderr)
        return 2
    work = root / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    bench = Bench(root, work)
    try:
        requests = workloads.build(args.workload, args.seed, workloads.load_reference())
        if not args.trace:
            setup, setup_samples = bench.setup_time(args.workload)
        prefill = bench.prefill(args.seed) if args.workload == "constant" else None
        if args.trace:
            plain, traced = runs = list(bench.run_paired(requests, 0, prefill))
            pairs = zip(traced.outcomes, plain.outcomes, traced.spans)
            metrics = tracer.layer_metrics(
                [(t.latency, u.latency, t.records_before, spans) for t, u, spans in pairs],
                tracer.wrapper_cost(),
            )
            units = {k: u for k, (u, _) in tracer.LAYER_METRICS.items()}
            trace_file = root / ".perfbench" / f"trace-{args.workload}-{args.seed}.json"
            with open(trace_file, "w", encoding="utf-8") as fh:
                for i, (req, spans) in enumerate(zip(requests, traced.spans)):
                    fh.write(json.dumps({"request": i, "argv": req.argv, "spans": spans}) + "\n")
            detail = {"trace_file": str(trace_file.relative_to(root))}
        else:
            runs = []
            start = time.perf_counter()
            while not runs or time.perf_counter() - start + runs[-1].wall <= args.seconds:
                runs.append(bench.run_pass(requests, len(runs), prefill))
            metrics, samples = end_to_end(requests, runs, setup)
            units = END_TO_END
            detail = {"samples": dict(samples, setup_s=len(setup_samples)), "setup_probes_s": setup_samples}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [f for p in runs for f in p.failures]
    attempted = sum(len(p.outcomes) for p in runs)
    detail.update(
        workload=args.workload,
        seed=args.seed,
        requests=[" ".join(r.argv) for r in requests],
        pass_wall_s=[p.wall for p in runs],
        latencies_s=[[o.latency for o in p.outcomes] for p in runs],
        failures=failures,
    )
    print(json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
