"""Self-tests of the benchmark:  python3 -m pytest perfbench/tests -q

The traced and negative-control tests start real CLI processes (about 30 s).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import Request  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture
def bench():
    work = ROOT / ".perfbench" / "selftest"
    yield run.Bench(ROOT, work)
    shutil.rmtree(work, ignore_errors=True)


def test_self_times_of_nested_spans():
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],
        ["b", 2.0, 3.0, 1, None],
        ["a", 5.0, 9.0, 0, None],
        ["c", 12.0, 13.5, -1, None],
    ]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.5]


def test_layer_metrics_from_spans():
    spans = [
        ["constant.predict", 0.0, 4.0, -1, None],
        ["characters.L1", 0.5, 1.5, 0, {"terms": 100}],
        ["characters.L1", 2.0, 3.0, 0, {"terms": 50}],
        ["counting.torsor", 5.0, 6.0, -1, {"points": 8, "visited": 10, "weighted": 4}],
    ]
    cache_spans = [
        ["cli.cache_get", 0.0, 0.5, -1, {"hits": 0}],
        ["cli.cache_put", 1.0, 1.25, -1, None],
    ]
    m = tracer.layer_metrics([(7.0, 6.5, 0, spans), (2.0, 2.25, 40, cache_spans)], wrapper_cost=1e-6)
    assert m["constant.predict_s"] == 2.0
    assert m["characters.L1_s"] == 2.0 and m["characters.L1_calls"] == 2
    assert m["characters.L1_terms"] == 150
    assert m["counting.torsor_yield"] == 0.4 and m["counting.points"] == 8
    assert m["cli.cache_gets"] == 1 and m["cli.cache_records"] == 40 and m["cli.cache_hits"] == 0
    assert m["trace.unattributed_s"] == 3.25 and m["trace.overhead_s"] == 0.25
    assert m["trace.wrapper_est_s"] == 6e-6
    assert set(m) == set(tracer.LAYER_METRICS)


def test_metric_and_workload_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {
        "end_to_end": [m["name"] for m in spec["end_to_end"]],
        "per_layer": [m["name"] for m in spec["per_layer"]],
        "workloads": [w["name"] for w in spec["workloads"]],
    }
    assert names["end_to_end"] == list(run.END_TO_END)
    assert names["per_layer"] == list(tracer.LAYER_METRICS)
    assert names["workloads"] == list(workloads.WORKLOADS)
    for name in sum(names.values(), []):
        assert NAME.fullmatch(name), name
    assert [w["why"] for w in spec["workloads"]] == list(workloads.WHY.values())


def test_default_seed_lists_and_reference_coverage():
    ref = workloads.load_reference()
    cross = workloads.build("crosscheck", workloads.DEFAULT_SEED, ref)
    first = [r for r in cross if r.repeat_of is None]
    assert [r.argv[2] for r in first[:9]] == ["-1"] * 3 + ["2"] * 3 + ["12"] * 3
    assert [r.argv[4] for r in first[:3]] == ["100", "1000", "5000"]
    assert [r.argv for r in first[9:]] == [("verify", "--suite", "moebius"), ("verify", "--suite", "torsor")]
    constant = workloads.build("constant", workloads.DEFAULT_SEED, ref)
    first = [r for r in constant if r.repeat_of is None]
    assert [r.argv[2] for r in first[:6]] == ["-5", "-1", "2", "12", "17", "45"]
    assert [r.argv[2] for r in first[6:]] == ["eta", "densities", "theta"]
    for seed in range(100):
        for w in workloads.WORKLOADS:
            reqs = workloads.build(w, seed, ref)  # a missing reference raises
            assert reqs == workloads.build(w, seed, ref)
            repeats = sorted(r.repeat_of for r in reqs if r.repeat_of is not None)
            cached = [i for i, r in enumerate(reqs) if r.cached and r.repeat_of is None]
            assert repeats == sorted(cached * workloads.HITS)
            for i, r in enumerate(reqs):
                if r.repeat_of is not None:
                    assert r.argv == reqs[r.repeat_of].argv and r.repeat_of < i - 1


def test_exits_nonzero_without_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "crosscheck", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_negative_controls_raise_error_rate(bench):
    ref = workloads.load_reference()
    cross = workloads.build("crosscheck", workloads.DEFAULT_SEED, ref)
    good, other = cross[1], cross[4]  # B = 1000 for a = -1 and a = 2
    wrong = Request(other.argv, other.expect + 1)
    fault = Request(("verify", "--suite", "eta", "--quick", "--inject-fault"), ("eta",))
    result = bench.run_pass([good, wrong, fault], 0, None)
    assert len(result.failures) == 2
    assert "pinned" in result.failures[0] and "exit 1" in result.failures[1]
    assert len(result.failures) / len(result.outcomes) > 0


def test_count_metrics_repeat_across_traced_runs(bench):
    ref = workloads.load_reference()
    predict = ("predict", "--a", "-1")
    requests = [
        Request(("count", "--a", "-1", "--B", "1000", "--method", "both"), ref["count"]["-1,1000"]),
        Request(("count", "--a", "2", "--B", "5000", "--method", "torsor"), ref["count"]["2,5000"]),
        Request(predict, ref["predict"]["-1"]),
        Request(predict, ref["predict"]["-1"], repeat_of=2),
        Request(("verify", "--suite", "eta", "--quick"), ("eta",)),
        Request(("verify", "--suite", "densities", "--quick"), ("densities",)),
    ]
    runs = []
    for k in range(2):
        plain, traced = bench.run_paired(requests, k, None)
        assert plain.failures == traced.failures == []
        pairs = zip(traced.outcomes, plain.outcomes, traced.spans)
        runs.append(tracer.layer_metrics([(t.latency, u.latency, t.records_before, s) for t, u, s in pairs], 1e-6))
    exact = [
        "counting.points",
        "counting.torsor_visited",
        "characters.L1_terms",
        "local_densities.omega_p_calls",
        "eta.closed_calls",
        "eta.bruteforce_calls",
        "cli.cache_gets",
        "cli.cache_hits",
        "cli.cache_records",
    ]
    for name in exact:
        assert runs[0][name] == runs[1][name] > 0, name


def test_traced_request_without_spans_fails(bench):
    stream = run._Stream(bench, bench.work / "pass-0", None, traced=True)
    stream.spans_file.write_text(json.dumps({"spans": [["stale", 0.0, 1.0, -1, None]]}))
    stream.launcher = ["-c", "import os; os._exit(0)"]  # dies before writing its spans
    stream.send(Request(("verify", "--suite", "eta", "--quick"), ("eta",)))
    stream.close()
    assert stream.result.spans == [[]] and len(stream.result.failures) == 1
