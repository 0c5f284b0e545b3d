import json
import math
import random
import resource
import subprocess
import sys

import pytest

from delpezzo.archimedean import MC_SAMPLES_MAX
from delpezzo.arith import OutOfRange
from delpezzo.characters import A_MAX
from delpezzo.cli import CACHE_ENV, Cache, main
from delpezzo.constant import PRIME_CUT_MAX


def run_cli(args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "delpezzo.cli", *args],
        capture_output=True,
        text=True,
        **kw,
    )


def test_count_both_ok(tmp_path):
    r = run_cli(
        ["count", "--a", "-1", "--B", "60", "--method", "both",
         "--cache-dir", str(tmp_path)]
    )
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert out["direct"] == out["torsor"]


def test_count_square_a_usage_error(tmp_path):
    r = run_cli(["count", "--a", "4", "--B", "60", "--cache-dir", str(tmp_path)])
    assert r.returncode == 2


def test_malformed_flag_usage_error():
    r = run_cli(["count", "--a", "-1", "--B", "x"])
    assert r.returncode == 2


def test_cache_round_trip(tmp_path):
    c = Cache(tmp_path)
    params = {"a": -1, "B": "60", "method": "both", "jobs": 1}
    rec = c.put("count", params, {"direct": {"count": 5}})
    back = c.get("count", params)
    assert back["result"] == rec["result"]
    assert back["parameters"] == params
    assert back["schema_version"] == 1
    # different parameters miss
    assert c.get("count", {**params, "B": "61"}) is None


def test_count_served_from_cache(tmp_path):
    args = ["count", "--a", "-1", "--B", "80", "--method", "torsor",
            "--cache-dir", str(tmp_path)]
    r1 = run_cli(args)
    before = (tmp_path / "cache.jsonl").read_text()
    r2 = run_cli(args)
    after = (tmp_path / "cache.jsonl").read_text()
    assert r1.returncode == r2.returncode == 0
    assert json.loads(r1.stdout) == json.loads(r2.stdout)
    assert before == after  # second run appended nothing


def test_predict_alpha_and_determinism(tmp_path):
    args = ["predict", "--a", "-1", "--prime-cut", "300", "--seed", "7",
            "--format", "json", "--cache-dir", str(tmp_path)]
    r1 = run_cli(args)
    assert r1.returncode == 0, r1.stderr
    out = json.loads(r1.stdout)
    assert abs(out["alpha"] - 1 / 1728) < 1e-18
    r2 = run_cli(args)
    assert json.loads(r2.stdout) == out


def test_predict_past_old_L1_term_cap(tmp_path):
    # tolerance 1e-7 needs N > 2e9 terms of L(1, chi) here; the sum costs O(8|a|)
    r = run_cli(["predict", "--a", "10007", "--mc-samples", "0", "--format", "json",
                 "--cache-dir", str(tmp_path)])
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert math.isfinite(out["L1_bound"]) and 0 < out["L1_bound"] <= 1e-7
    assert math.isfinite(out["L1_chi"]) and out["L1_chi"] > 0


def _random_surface_a(rng, bound):
    while True:
        a = rng.choice([1, -1]) * rng.randint(2, bound)
        if a < 0 or math.isqrt(a) ** 2 != a:
            return a


@pytest.mark.parametrize("a", [_random_surface_a(random.Random(seed), 10**6) for seed in range(3)])
def test_predict_large_a_finite_within_time(tmp_path, a):
    # the character table and L(1, chi) are O(8|a|) numpy passes: seconds at
    # |a| ~ 1e6, where a kronecker call per residue class took 20 s
    r = run_cli(["predict", "--a", str(a), "--format", "json", "--cache-dir", str(tmp_path)],
                timeout=10)
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    for key in ("L1_bound", "finite_product_bound", "omega_inf_rel_gap", "omega_inf_mc_stderr", "c"):
        assert math.isfinite(out[key]), key
    assert 0 < out["L1_bound"] <= 1e-7 and out["c"] > 0


def test_compare_csv_contract(tmp_path):
    r = run_cli(
        ["compare", "--a", "-1", "--B-list", "50,100", "--prime-cut", "200",
         "--format", "csv", "--cache-dir", str(tmp_path)]
    )
    assert r.returncode == 0, r.stderr
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "B,count,prediction,ratio"
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 4
        float(fields[0]), int(fields[1]), float(fields[2]), float(fields[3])
        assert "." in fields[2] or "e" in fields[2]


def test_compare_json(tmp_path):
    r = run_cli(
        ["compare", "--a", "2", "--B-list", "50", "--prime-cut", "200",
         "--format", "json", "--cache-dir", str(tmp_path)]
    )
    out = json.loads(r.stdout)
    assert out["a"] == 2
    row = out["rows"][0]
    assert set(row) == {"B", "count", "prediction", "ratio"}


def test_compare_mismatch_exits_3_and_stores_nothing(tmp_path, monkeypatch, capsys):
    import dataclasses

    import delpezzo.counting as counting

    count = counting.torsor_count
    monkeypatch.setattr(counting, "torsor_count", lambda a, B: dataclasses.replace(count(a, B), count=-1))
    args = ["compare", "--a", "-1", "--B-list", "50", "--prime-cut", "200", "--cache-dir", str(tmp_path)]
    assert main(args) == 3
    assert "mismatch" in capsys.readouterr().err
    assert not (tmp_path / "cache.jsonl").exists()


def test_count_mismatch_exits_3_and_stores_nothing(tmp_path, monkeypatch, capsys):
    import dataclasses

    import delpezzo.counting as counting

    count = counting.torsor_count
    monkeypatch.setattr(
        counting, "torsor_count", lambda a, B, jobs: dataclasses.replace(count(a, B, jobs), count=-1)
    )
    assert main(["count", "--a", "-1", "--B", "50", "--method", "both", "--cache-dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "mismatch" in err and len(err.splitlines()) == 1
    assert not (tmp_path / "cache.jsonl").exists()


def test_internal_assertion_is_not_a_mismatch(tmp_path, monkeypatch):
    import delpezzo.constant as constant

    def broken(*args, **kwargs):
        raise AssertionError("character table does not sum to zero over a period")

    monkeypatch.setattr(constant, "predict_constant", broken)
    args = ["compare", "--a", "-1", "--B-list", "50", "--prime-cut", "200", "--cache-dir", str(tmp_path)]
    with pytest.raises(AssertionError, match="character table"):  # not exit 3
        main(args)
    assert not (tmp_path / "cache.jsonl").exists()


def test_verify_quick_all_green():
    r = run_cli(["verify", "--suite", "all", "--quick"])
    assert r.returncode == 0, r.stdout + r.stderr


def test_verify_fault_injection():
    r = run_cli(["verify", "--suite", "eta", "--quick", "--inject-fault"])
    assert r.returncode == 1
    assert "eta_closed(p=2,k=3,a=17)" in r.stdout


def test_verify_torsor_fails_when_the_sampler_runs_out(monkeypatch, capsys):
    import delpezzo.torsor as torsor

    monkeypatch.setattr(torsor, "ATTEMPTS", 1)  # most draws now give up
    assert main(["verify", "--suite", "torsor"]) == 1
    out = capsys.readouterr().out
    assert "suite torsor: FAIL" in out and "no valid torsor tuple in 1 attempts" in out


def test_main_in_process(tmp_path):
    assert main(["count", "--a", "-1", "--B", "30", "--method", "torsor",
                 "--cache-dir", str(tmp_path)]) == 0
    assert main(["count", "--a", "9", "--B", "30"]) == 2


@pytest.mark.parametrize(
    "args",
    [
        ["count", "--a", "-1", "--B", "100001", "--method", "direct"],
        ["count", "--a", "-1", "--B", "100001", "--method", "both"],
        ["count", "--a", "10000000000000000001", "--B", "100"],
        ["count", "--a", "-10000000000000000001", "--B", "100"],
        ["compare", "--a", "-1", "--B-list", "100,100001"],
        ["compare", "--a", "-1", "--B-list", "1,x"],
        ["compare", "--a", "-1", "--B-list", "1", "--format", "json"],
        ["compare", "--a", "-1", "--B-list", "0,5", "--format", "csv"],
    ],
)
def test_out_of_range_usage_error(tmp_path, capsys, args):
    assert main([*args, "--cache-dir", str(tmp_path)]) == 2
    assert "error" in capsys.readouterr().err
    assert not (tmp_path / "cache.jsonl").exists()


@pytest.mark.parametrize(
    "args, limit",
    [
        (["count", "--a", "-1", "--B", "100001", "--method", "direct"], "B"),
        (["count", "--a", "-1", "--B", "100001", "--method", "both"], "B"),
        (["compare", "--a", "-1", "--B-list", "100,100001"], "B"),
        (["predict", "--a", str(A_MAX + 1)], "a"),
        (["compare", "--a", str(A_MAX + 1), "--B-list", "100"], "a"),
        (["compare", "--a", "-1", "--B-list", "1"], "B_min"),
        (["predict", "--a", "-1", "--prime-cut", "99"], "prime_cut"),
        (["compare", "--a", "-1", "--B-list", "100", "--prime-cut", "99"], "prime_cut"),
        (["predict", "--a", "-1", "--prime-cut", str(PRIME_CUT_MAX + 1)], "prime_cut_max"),
        (["predict", "--a", "-1", "--mc-samples", "1"], "mc_samples"),
        (["predict", "--a", "-1", "--mc-samples", str(MC_SAMPLES_MAX + 1)], "mc_samples_max"),
    ],
)
def test_limit_refusal_is_the_library_message(tmp_path, capsys, monkeypatch, args, limit):
    import delpezzo.constant as constant
    import delpezzo.counting as counting
    from delpezzo.archimedean import vol_SF
    from delpezzo.characters import CharacterChi

    refuse = {
        "B": lambda: counting.direct_count(-1, 100001),
        "a": lambda: CharacterChi(A_MAX + 1),
        "B_min": lambda: constant.compare(-1, [1], breakdown=None),
        "prime_cut": lambda: constant.finite_product(-1, 99),
        "prime_cut_max": lambda: constant.finite_product(-1, PRIME_CUT_MAX + 1),
        "mc_samples": lambda: vol_SF(-1, 1, 1, 1, 1, 1.0, samples=1),
        "mc_samples_max": lambda: vol_SF(-1, 1, 1, 1, 1, 1.0, samples=MC_SAMPLES_MAX + 1),
    }[limit]
    with pytest.raises(OutOfRange) as refusal:
        refuse()
    # refused before any count or prediction, except count's B and predict's
    # |a|, which the counter and the character refuse themselves
    if args[0] == "compare" or limit not in ("B", "a"):
        for module, name in ((constant, "predict_constant"), (counting, "direct_count"),
                             (counting, "torsor_count")):
            monkeypatch.setattr(module, name, lambda *a, name=name, **k: pytest.fail(f"{name} called"))
    assert main([*args, "--cache-dir", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {refusal.value}\n" and captured.out == ""
    assert not (tmp_path / "cache.jsonl").exists()


def _cap_address_space():
    # the child's own limit: 512 MiB holds the interpreter, numpy and a
    # predict at the prime-cut and sample limits, not a character table past
    # A_MAX (80 MB of int8 plus, before the refusal, an int64 index of 640 MB)
    cap = 512 * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def _refused_in_capped_child(tmp_path, args):
    r = run_cli([*args, "--cache-dir", str(tmp_path)], preexec_fn=_cap_address_space)
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error: ") and len(r.stderr.splitlines()) == 1, r.stderr
    assert r.stdout == "" and not (tmp_path / "cache.jsonl").exists()


@pytest.mark.parametrize("a", [A_MAX + 1, -(A_MAX + 1), 1000000000039])
@pytest.mark.parametrize("command", [["predict"], ["compare", "--B-list", "50"]])
def test_a_beyond_chi_limit_refused_before_allocating(tmp_path, command, a):
    _refused_in_capped_child(tmp_path, [command[0], "--a", str(a), *command[1:]])


@pytest.mark.parametrize(
    "args",
    [
        # unrefused, a sieve to 2 prime_cut or 8 bytes a sample: MemoryError
        ["predict", "--a", "-1", "--prime-cut", "1000000000", "--mc-samples", "0"],
        ["predict", "--a", "-1", "--mc-samples", "100000000000"],
        ["compare", "--a", "-1", "--B-list", "50", "--prime-cut", "400000000"],
    ],
)
def test_prime_cut_and_samples_beyond_limit_refused_before_allocating(tmp_path, args):
    _refused_in_capped_child(tmp_path, args)


def test_prime_cut_and_samples_at_limit_served_under_the_cap(tmp_path):
    args = ["predict", "--a", "-1", "--prime-cut", str(PRIME_CUT_MAX), "--mc-samples", str(MC_SAMPLES_MAX)]
    r = run_cli([*args, "--cache-dir", str(tmp_path)], preexec_fn=_cap_address_space)
    assert r.returncode == 0, r.stderr
    assert math.isfinite(json.loads(r.stdout)["omega_inf_mc"])


def test_count_has_no_a_limit(tmp_path):
    r = run_cli(["count", "--a", "1000000000039", "--B", "100", "--cache-dir", str(tmp_path)],
                preexec_fn=_cap_address_space)
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert out["direct"] == out["torsor"] == 0


@pytest.mark.parametrize("where", ["flag", "env", "below"])
@pytest.mark.parametrize(
    "args",
    [["count", "--a", "-1", "--B", "10"], ["predict", "--a", "-1"], ["compare", "--a", "-1", "--B-list", "10"]],
)
def test_cache_dir_not_a_directory_refused_before_compute(tmp_path, capsys, monkeypatch, args, where):
    import delpezzo.constant as constant
    import delpezzo.counting as counting

    for module, name in ((constant, "predict_constant"), (counting, "direct_count"),
                         (counting, "torsor_count")):
        monkeypatch.setattr(module, name, lambda *a, name=name, **k: pytest.fail(f"{name} called"))
    afile = tmp_path / "afile"
    afile.write_text("")
    if where == "env":
        monkeypatch.setenv(CACHE_ENV, str(afile))
    else:
        args = [*args, "--cache-dir", str(afile if where == "flag" else afile / "sub")]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1, captured.err
    assert captured.out == "" and afile.read_text() == ""


def test_count_cache_key_ignores_jobs(tmp_path, capsys):
    args = ["count", "--a", "-1", "--B", "200", "--cache-dir", str(tmp_path)]
    assert main([*args, "--jobs", "1"]) == 0
    first = capsys.readouterr().out
    records = (tmp_path / "cache.jsonl").read_text()
    assert main([*args, "--jobs", "2"]) == 0
    assert capsys.readouterr().out == first
    assert (tmp_path / "cache.jsonl").read_text() == records


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "args",
    [
        ["count", "--a", "-1", "--B", "40"],
        ["predict", "--a", "-4", "--prime-cut", "300", "--mc-samples", "0"],
        ["compare", "--a", "-1", "--B-list", "50,100", "--prime-cut", "200"],
    ],
)
def test_cache_hit_prints_what_the_miss_printed(tmp_path, capsys, args, fmt):
    argv = [*args, "--format", fmt, "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    miss = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == miss
    assert len((tmp_path / "cache.jsonl").read_text().splitlines()) == 1  # it was a hit


def test_cache_misses_other_code_version(tmp_path):
    c = Cache(tmp_path)
    params = {"a": -1, "B": "60", "method": "both", "jobs": 1}
    rec = c.put("count", params, {"direct": {"count": 5}})
    rec["code_version"] = "0" * len(rec["code_version"])
    c.path.write_text(json.dumps(rec) + "\n")
    assert c.get("count", params) is None


def test_cache_hit_skips_numeric_imports(tmp_path):
    # a fresh interpreter: other test modules import the counters into this one
    cache = ["--cache-dir", str(tmp_path)]
    count = ["count", "--a", "-1", "--B", "40", *cache]
    predict = ["predict", "--a", "-1", "--prime-cut", "300", "--mc-samples", "1000", *cache]
    assert run_cli(count).returncode == run_cli(predict).returncode == 0
    probe = (
        "import sys; from delpezzo.cli import main; "
        f"rc = main({count!r}) + main({predict!r}); "
        "print(rc, sorted(m for m in ('delpezzo.counting', 'delpezzo.constant', 'numpy', "
        "'dataclasses', 'fractions') if m in sys.modules))"
    )
    r = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "0 []"


def test_verify_without_counters_skips_numpy():
    # a fresh interpreter: only the counters and `predict` need numpy
    probe = (
        "import sys; from delpezzo.cli import main; "
        "rc = sum(main(['verify', '--suite', s]) for s in ('eta', 'densities', 'theta', 'torsor')); "
        "print(rc, 'numpy' in sys.modules)"
    )
    r = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "0 False"


def test_cache_get_last_match_among_decoys(tmp_path):
    c = Cache(tmp_path)
    params = {"a": -1, "B": "60", "method": "both", "jobs": 1}
    c.put("count", params, {"n": 1})
    c.put("count", params, {"n": 2})
    c.put("predict", params, {"n": 3})  # same params, another command
    other = c.put("count", params, {"n": 4})
    other["code_version"] = "0" * len(other["code_version"])
    lines = c.path.read_text().splitlines()
    lines[-1] = json.dumps(other, sort_keys=True)  # same params, another code version
    lines.append(lines[1][:-10])  # a malformed (truncated) matching record
    c.path.write_text("\n".join(lines) + "\n")
    assert c.get("count", params)["result"] == {"n": 2}
    assert c.get("predict", params)["result"] == {"n": 3}
    assert c.get("count", {**params, "jobs": 2}) is None


def test_predict_miss_skips_scipy(tmp_path):
    # a fresh interpreter: other test modules import scipy into this one
    predict = ["predict", "--a", "-1", "--prime-cut", "300", "--mc-samples", "1000",
               "--cache-dir", str(tmp_path)]
    probe = (
        "import sys; from delpezzo.cli import main; "
        f"rc = main({predict!r}); "
        "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    r = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "0 []"
    assert (tmp_path / "cache.jsonl").exists()  # it was a miss


@pytest.mark.parametrize(
    "args",
    [
        ["predict", "--a", "-1", "--prime-cut", "99"],
        ["compare", "--a", "-1", "--B-list", "100", "--prime-cut", "50"],
        ["predict", "--a", "-1", "--mc-samples", "1"],
        ["predict", "--a", "-1", "--mc-samples", "-5"],
        ["predict", "--a", "-1", "--tolerance", "0"],
        ["predict", "--a", "-1", "--tolerance", "-1"],
        ["predict", "--a", "-1", "--tolerance", "nan"],
        ["predict", "--a", "-1", "--tolerance", "inf"],
        ["predict", "--a", "-1", "--tolerance", "x"],
        ["count", "--a", "-1", "--B", "60", "--jobs", "0"],
        ["count", "--a", "-1", "--B", "60", "--jobs", "-2"],
        ["predict", "--a", "-1", "--seed", "-1"],
    ],
)
def test_bad_predict_input_usage_error(tmp_path, capsys, args):
    assert main([*args, "--cache-dir", str(tmp_path)]) == 2
    assert "error" in capsys.readouterr().err
    assert not (tmp_path / "cache.jsonl").exists()
