import json
import math
import random
import resource
import subprocess
import sys
from types import SimpleNamespace

import pytest

from delpezzo.archimedean import MC_SAMPLES_MAX
from delpezzo.arith import COPRIME, PSI_EXPONENTS, UNIT_EXPONENTS, CounterMismatch, OutOfRange
from delpezzo.characters import A_MAX
from delpezzo.cli import CACHE_ENV, Cache, code_version, main
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
    import delpezzo.counting as counting

    count = counting.torsor_count
    monkeypatch.setattr(counting, "torsor_count", lambda a, B, jobs: count(a, B, jobs)._replace(count=-1))
    args = ["compare", "--a", "-1", "--B-list", "50", "--prime-cut", "200", "--cache-dir", str(tmp_path)]
    assert main(args) == 3
    assert "mismatch" in capsys.readouterr().err
    assert not (tmp_path / "cache.jsonl").exists()


def test_count_mismatch_exits_3_and_stores_nothing(tmp_path, monkeypatch, capsys):
    import delpezzo.counting as counting

    count = counting.torsor_count
    monkeypatch.setattr(counting, "torsor_count", lambda a, B, jobs: count(a, B, jobs)._replace(count=-1))
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


def test_verify_moebius_fails_on_a_wrong_lattice_count(monkeypatch):
    # --inject-fault perturbs eta_closed, which this suite never calls; a
    # lattice count that drops the top end of each a7 window must fail it
    from delpezzo import counting
    from delpezzo.cli import SUITES

    count_ap = counting._count_ap
    monkeypatch.setattr(counting, "_count_ap", lambda lo, hi, r, m: count_ap(lo, hi - 1, r, m))
    assert list(SUITES["moebius"](True))


def _patch_action_weights(monkeypatch, weights):
    """Make `weights` the torsor action's, and rebuild the orbit signs from them."""
    import delpezzo.torsor as torsor

    monkeypatch.setattr(torsor, "ACTION_WEIGHTS", weights)
    ones = torsor.TorsorTuple(*[1] * 8)
    signs = [torsor.act(tuple(-1 if mask >> i & 1 else 1 for i in range(5)), ones) for mask in range(32)]
    monkeypatch.setattr(torsor, "_ORBIT_SIGNS", tuple(signs))


def test_verify_torsor_fails_on_a_wrong_action_weight(monkeypatch, capsys):
    # a8's weight (2,0,0,0,-1) made (1,0,0,0,-1): the orbit leaves the torsor,
    # and psi's ValueError is a failing case, not a traceback
    from delpezzo.torsor import ACTION_WEIGHTS

    _patch_action_weights(monkeypatch, (*ACTION_WEIGHTS[:7], (1, 0, 0, 0, -1)))
    assert main(["verify", "--suite", "torsor"]) == 1
    out = capsys.readouterr().out
    assert "suite torsor: FAIL" in out and "invalid torsor tuple: torsor equation fails" in out


def test_verify_torsor_fails_on_a_weight_rank_below_5(monkeypatch, capsys):
    # a3's weight made a1's: the first six rows span F_2^4, the action on
    # a1..a6 is not free, and the rank check is a failing case
    import delpezzo.torsor as torsor

    w = torsor.ACTION_WEIGHTS
    _patch_action_weights(monkeypatch, (w[0], w[1], w[0], *w[3:]))
    assert torsor.weight_rank_mod2() == 4
    assert main(["verify", "--suite", "torsor"]) == 1
    assert '"case": "weight rank mod 2"' in capsys.readouterr().out


# every single-entry +-1 change of the torsor's exponent table that keeps the
# entries nonnegative, as (table, row, column, step); the unit's one row is 0
TABLE_MUTANTS = [
    pytest.param(name, i, j, d, id=f"{label[i]}-a{j + 1}{d:+d}")
    for name, rows, label in (
        ("PSI_EXPONENTS", PSI_EXPONENTS, ("x0", "x1", "x2", "x3", "x4")),
        ("UNIT_EXPONENTS", (UNIT_EXPONENTS,), ("u",)),
    )
    for i, row in enumerate(rows)
    for j, e in enumerate(row)
    for d in (1, -1)
    if e + d >= 0
]


def _patch_exponent(monkeypatch, name, i, j, d):
    """Move entry (i, j) of the exponent table `name` by d where torsor reads it."""
    import delpezzo.torsor as torsor

    rows = [list(r) for r in (PSI_EXPONENTS if name == "PSI_EXPONENTS" else (UNIT_EXPONENTS,))]
    rows[i][j] += d
    table = tuple(map(tuple, rows))
    monkeypatch.setattr(torsor, name, table if name == "PSI_EXPONENTS" else table[0])


def test_exponent_mutants_are_all_listed():
    assert len(TABLE_MUTANTS) == 73


@pytest.mark.parametrize("name, i, j, d", TABLE_MUTANTS)
def test_quick_torsor_suite_fails_on_every_exponent_mutant(monkeypatch, name, i, j, d):
    # psi's on-surface check reads the surface's equations, not the table, so
    # a wrong exponent in any row (x3's and x4's included, which never decide
    # the height) must fail the quick suite
    from delpezzo.cli import SUITES

    _patch_exponent(monkeypatch, name, i, j, d)
    assert next(SUITES["torsor"](True), None) is not None


def test_verify_torsor_fails_without_a6_in_x4(monkeypatch, capsys):
    # x4's a6 exponent 1 -> 0: the height never reads x4, and psi's image
    # leaves the surface
    _patch_exponent(monkeypatch, "PSI_EXPONENTS", 4, 5, -1)
    assert main(["verify", "--suite", "torsor"]) == 1
    out = capsys.readouterr().out
    assert "suite torsor: FAIL" in out and "psi image left the surface" in out


def _loop_entries(table):
    """The entries (i, j) of a coprimality table with j >= 5: those the torsor
    counter tests in its own loops, where arith.slice_coprime, which evaluates
    the a1..a4 columns, does not see them."""
    return {(i, j) for i, js in table for j in js if j >= 5}


def test_coprime_table_shape():
    # rows 2..8 in order (the counter and theta read them by position), each
    # j below i, and among a5..a8 only the two a5 entries the counter's loops
    # write: gcd(a6, g6 a5) and gcd(a8, g8 a5)
    assert [i for i, _ in COPRIME] == list(range(2, 9))
    assert all(0 < j < i for i, js in COPRIME for j in js)
    assert _loop_entries(COPRIME) == {(6, 5), (8, 5)}


# every single-entry change of the coprimality table, as (row, column): drop
# a_j from row i's product, or add an a_j with j < i; 28 in all
EQUIVALENT = (
    "a prime dividing a8 and a{j} divides u = a2^2 a3 a4^3 a6, so by the torsor "
    "equation a1 a8 + a7^2 = a u^2 it divides a7, which row 7 already forbids"
)
COPRIME_MUTANTS = [
    pytest.param(
        i, j, id=f"a{i}{'-' if j in js else '+'}a{j}",
        marks=(pytest.mark.xfail(strict=True, raises=AssertionError, reason=EQUIVALENT.format(j=j))
               if i == 8 and j in (2, 3, 4) else ()),
    )
    for i, js in COPRIME
    for j in range(1, i)
]


def _coprime_checks():
    """The checks a coprimality mutant meets, in turn, each True if it passes:
    the two counters agree at B = 300, the quick torsor, Moebius and theta
    suites, and the table's entries among a5..a8."""
    from delpezzo import arith, counting
    from delpezzo.cli import SUITES

    def counters_agree():
        try:
            for a in (-1, 2):
                counting.count(a, 300)
        except CounterMismatch:
            return False
        return True

    yield counters_agree
    for name in ("torsor", "moebius", "theta"):
        yield lambda name=name: next(SUITES[name](True), None) is None
    yield lambda: _loop_entries(arith.COPRIME) == {(6, 5), (8, 5)}


def test_coprime_mutants_are_all_listed_and_the_checks_pass_on_the_table():
    assert len(COPRIME_MUTANTS) == 28
    assert all(passes() for passes in _coprime_checks())


@pytest.mark.parametrize("i, j", COPRIME_MUTANTS)
def test_every_coprime_mutant_fails_a_check(monkeypatch, i, j):
    # the table is patched in every module that binds it, each consumer
    # reading it at call time: arith's slice_coprime and theta0 (which the
    # walk, the counter, the Moebius side and theta call) and torsor.validate
    import delpezzo.counting, delpezzo.theta, delpezzo.torsor  # noqa: F401

    table = tuple((r, tuple(sorted(set(js) ^ {j})) if r == i else js) for r, js in COPRIME)
    for name, module in list(sys.modules.items()):
        if name.startswith("delpezzo.") and hasattr(module, "COPRIME"):
            monkeypatch.setattr(module, "COPRIME", table)
    assert not all(passes() for passes in _coprime_checks())


def test_main_in_process(tmp_path):
    assert main(["count", "--a", "-1", "--B", "30", "--method", "torsor",
                 "--cache-dir", str(tmp_path)]) == 0
    assert main(["count", "--a", "9", "--B", "30"]) == 2


@pytest.mark.parametrize(
    "args",
    [
        ["count", "--a", "-1", "--B", "100001", "--method", "direct"],
        ["count", "--a", "-1", "--B", "100001", "--method", "both"],
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


def _fail_compute_layers(monkeypatch):
    """Make every layer that builds or counts anything fail the test if called."""
    import delpezzo.constant as constant
    import delpezzo.counting as counting

    layers = [(constant, name) for name in
              ("CharacterChi", "omega_inf_chart", "omega_inf_region", "omega_inf_montecarlo")]
    for module, name in [*layers, (counting, "direct_count"), (counting, "torsor_count")]:
        monkeypatch.setattr(module, name, lambda *a, name=name, **k: pytest.fail(f"{name} called"))


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
        "B_min": lambda: constant.compare(-1, [1], prime_cut=200),
        "prime_cut": lambda: constant.check_prime_cut(99),
        "prime_cut_max": lambda: constant.check_prime_cut(PRIME_CUT_MAX + 1),
        "mc_samples": lambda: vol_SF(-1, 1, 1, 1, 1, 1.0, samples=1),
        "mc_samples_max": lambda: vol_SF(-1, 1, 1, 1, 1, 1.0, samples=MC_SAMPLES_MAX + 1),
    }[limit]
    with pytest.raises(OutOfRange) as refusal:
        refuse()
    # refused before any count or prediction, except count's B and predict's
    # |a|, which the counter and the character refuse themselves
    if args[0] == "compare" or limit not in ("B", "a"):
        _fail_compute_layers(monkeypatch)
    assert main([*args, "--cache-dir", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {refusal.value}\n" and captured.out == ""
    assert not (tmp_path / "cache.jsonl").exists()


@pytest.mark.parametrize(
    "call",
    [
        lambda c: c.predict_constant(-1, prime_cut=99),
        lambda c: c.predict_constant(-1, mc_samples=1),
        lambda c: c.compare(-1, [1]),
        lambda c: c.compare(-1, [100001]),
        lambda c: c.compare(-1, [100], prime_cut=99),
        lambda c: c.compare(A_MAX + 1, [100]),
    ],
    ids=["predict-prime_cut", "predict-mc_samples", "compare-B_min", "compare-B_max",
         "compare-prime_cut", "compare-a"],
)
def test_library_refuses_bad_input_before_computing(monkeypatch, call):
    import delpezzo.constant as constant

    _fail_compute_layers(monkeypatch)
    with pytest.raises(OutOfRange):
        call(constant)


def _cap_address_space():
    # the child's own limit: 512 MiB holds the interpreter, numpy and a
    # predict at the prime-cut and sample limits (which stream in blocks, at
    # about 37 MB of RSS), not a character table past A_MAX (80 MB of int8
    # plus, before the refusal, an int64 index of 640 MB)
    cap = 512 * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def _refused_in_capped_child(tmp_path, args):
    # a refusal takes well under a second; the timeout stops an unrefused
    # request that would stream for hours rather than die of MemoryError
    r = run_cli([*args, "--cache-dir", str(tmp_path)], preexec_fn=_cap_address_space, timeout=60)
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
        # unrefused, the sieve to 2 prime_cut or the Monte Carlo would run for
        # hours in O(BLOCK) memory: the timeout fails them fast
        ["predict", "--a", "-1", "--prime-cut", "1000000000", "--mc-samples", "0"],
        ["predict", "--a", "-1", "--mc-samples", "100000000000"],
        ["compare", "--a", "-1", "--B-list", "50", "--prime-cut", "400000000"],
    ],
)
def test_prime_cut_and_samples_beyond_limit_refused_before_allocating(tmp_path, args):
    _refused_in_capped_child(tmp_path, args)


@pytest.mark.parametrize("B", [2**126, 10**400])
def test_torsor_B_beyond_outer_loop_range_refused(tmp_path, B):
    _refused_in_capped_child(tmp_path, ["count", "--a", "-1", "--B", str(B), "--method", "torsor"])


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


@pytest.mark.parametrize("where", ["flag", "env", "below", "cache_file"])
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
    elif where == "cache_file":  # the directory exists, its record file is a directory
        (tmp_path / "d" / "cache.jsonl").mkdir(parents=True)
        args = [*args, "--cache-dir", str(tmp_path / "d")]
    else:
        args = [*args, "--cache-dir", str(afile if where == "flag" else afile / "sub")]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1, captured.err
    assert captured.out == "" and afile.read_text() == ""


@pytest.mark.parametrize("state", ["absent", "other", "hit"])
@pytest.mark.parametrize("call", ["open", "append", "mkdir"])
def test_cache_that_cannot_be_read_or_written_is_a_usage_error(tmp_path, capsys, monkeypatch, state, call):
    # the process runs as root on some machines, where chmod cannot deny
    # access, so open (in every mode, or only to append) and mkdir are made
    # to raise
    import builtins

    import delpezzo.cli as cli
    import delpezzo.counting as counting

    def argv(B):
        return ["count", "--a", "-1", "--B", str(B), "--cache-dir", str(tmp_path)]

    if state != "absent":  # a record file that holds this request's record or another's
        assert main(argv(10 if state == "hit" else 11)) == 0
        capsys.readouterr()

    def refuse(*args, **kwargs):
        raise PermissionError(13, "Permission denied")

    def read_only(file, mode="r", *args, **kwargs):
        return refuse() if "a" in mode else builtins.open(file, mode, *args, **kwargs)

    if call == "mkdir":
        monkeypatch.setattr(cli.Path, "mkdir", refuse)
    else:
        monkeypatch.setattr(cli, "open", refuse if call == "open" else read_only, raising=False)
    if state != "absent":  # a miss is refused before the work; an absent file is made only after it
        for name in ("direct_count", "torsor_count"):
            monkeypatch.setattr(counting, name, lambda *a, name=name, **k: pytest.fail(f"{name} called"))
    rc = main(argv(10))
    captured = capsys.readouterr()
    if state == "hit" and call != "open":  # a hit writes nothing
        assert rc == 0 and json.loads(captured.out)["direct"] > 0
        return
    assert rc == 2 and captured.out == ""
    verb = "read" if call == "open" and state != "absent" else "written"
    want = f"error: cache file {tmp_path / 'cache.jsonl'} cannot be {verb}: Permission denied\n"
    assert captured.err == want


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


def test_code_version_follows_numpy(tmp_path, monkeypatch):
    # an upgrade of numpy in place changes its version.py, and so the key
    fake = tmp_path / "numpy"
    fake.mkdir()
    monkeypatch.setattr("delpezzo.cli.find_spec", lambda name: SimpleNamespace(origin=str(fake / "__init__.py")))
    versions = []
    try:
        for text in ('version = "2.4.6"\n', 'version = "2.4.7"\n'):
            (fake / "version.py").write_text(text)
            code_version.cache_clear()
            versions.append(code_version())
    finally:
        code_version.cache_clear()
    assert versions[0] != versions[1]


def test_cache_hit_skips_numeric_imports(tmp_path):
    # a fresh interpreter: other test modules import the counters into this one
    cache = ["--cache-dir", str(tmp_path)]
    count = ["count", "--a", "-1", "--B", "40", *cache]
    predict = ["predict", "--a", "-1", "--prime-cut", "300", "--mc-samples", "1000", *cache]
    assert run_cli(count).returncode == run_cli(predict).returncode == 0
    probe = (
        "import sys; from delpezzo.cli import main; "
        f"rc = main({count!r}) + main({predict!r}); "
        "print(rc, sorted(m for m in ('delpezzo.counting', 'delpezzo.constant', 'delpezzo.eta', 'numpy', "
        "'dataclasses', 'fractions') if m in sys.modules))"
    )
    r = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "0 []"


def test_verify_without_counters_skips_numpy():
    # a fresh interpreter: only the counters and `predict` need numpy, and the
    # package's records are NamedTuples, so no suite loads dataclasses (nor the
    # inspect module it imports)
    probe = (
        "import sys; from delpezzo.cli import main; "
        "rc = sum(main(['verify', '--suite', s]) for s in ('eta', 'densities', 'theta', 'torsor')); "
        "print(rc, sorted(m for m in ('numpy', 'dataclasses', 'inspect') if m in sys.modules))"
    )
    r = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "0 []"


def test_counts_and_verify_skip_numpy(tmp_path):
    # a fresh interpreter: both counters and the Moebius slices run on Python
    # integers; numpy is bound only inside the direct counter's box oracle
    probe = (
        "import json, sys; from delpezzo.cli import main; "
        "rc = main(['verify', '--suite', 'moebius']); "
        f"rc += main(['count', '--a', '-1', '--B', '1000', '--method', 'torsor', '--cache-dir', {str(tmp_path)!r}]); "
        "print(rc, 'numpy' in sys.modules); "
        f"rc = main(['count', '--a', '-1', '--B', '1000', '--method', 'direct', '--cache-dir', {str(tmp_path)!r}]); "
        f"rc += main(['count', '--a', '2', '--B', '1000', '--method', 'both', '--cache-dir', {str(tmp_path)!r}]); "
        "print(rc, 'numpy' in sys.modules)"
    )
    r = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert json.loads(lines[1]) == {"a": -1, "B": "1000", "torsor": 18598}
    assert lines[2] == "0 False"
    assert json.loads(lines[3]) == {"a": -1, "B": "1000", "direct": 18598}
    assert json.loads(lines[4]) == {"a": 2, "B": "1000", "direct": 22020, "torsor": 22020}
    assert lines[5] == "0 False"


def test_count_serves_any_a(tmp_path, capsys):
    # both counters run on Python integers, so no |a| is refused; at B = 100
    # no point has |a| ~ 10^19, and the two counters agree on 0
    for a in ("10000000000000000001", "-10000000000000000001"):
        assert main(["count", "--a", a, "--B", "100", "--cache-dir", str(tmp_path)]) == 0
        assert json.loads(capsys.readouterr().out) == {"a": int(a), "B": "100", "direct": 0, "torsor": 0}


def test_verify_torsor_skips_fractions():
    # a fresh interpreter: the torsor's heights are integers
    probe = (
        "import sys; from delpezzo.cli import main; "
        "rc = main(['verify', '--suite', 'torsor']); print(rc, 'fractions' in sys.modules)"
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


def test_cache_skips_a_line_that_is_not_utf8(tmp_path, capsys):
    args = ["count", "--a", "-1", "--B", "40", "--cache-dir", str(tmp_path)]
    assert main(args) == 0
    miss = capsys.readouterr().out
    path = tmp_path / "cache.jsonl"
    record = path.read_bytes()
    # a later copy of the record, with a byte that is not UTF-8 in one key
    path.write_bytes(record + record.replace(b'"result"', b'"result\xff"'))
    assert main(args) == 0
    assert capsys.readouterr().out == miss
    assert len(path.read_bytes().splitlines()) == 2  # served from the record: nothing added


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
