"""Request lists of the two workloads, generated from a seed, and the checks
that gate every response against perfbench/reference.json.

A request is one fresh `python -m delpezzo.cli ...` process.  Each workload
sends its count or predict requests, each of them twice more as a cache hit,
and `verify --suite X` for the identity suites of its side of the paper:
the Moebius slice and torsor orbits with the counts, eta, the p-adic oracle
and the theta1 identity with the constant.

The default seed (0) gives the lists the workloads were designed with.  Any
other seed draws each a from a stratum of TESTBED values of similar cost, one
a per stratum, and each B from the listed value +-1% in 1% steps, so that
seeds change the inputs but hardly the amount of work.  The verify suites
ignore the seed: they carry fixed internal seeds.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0
HOLDOUT_SEED = 1907  # kept out of all tuning; confirm performance claims on it

CROSSCHECK_B = (100, 1000, 5000)
JITTER = (-1, 0, 1)  # percent
HITS = 2  # cache-hit repeats of each count or predict request

# Strata of TESTBED with similar cost, measured when the reference was made:
# the direct count at B = 5000 (crosscheck) and the number of L(1, chi) terms
# (constant).  The first member of each stratum is the default-seed value.
STRATA = {
    "crosscheck": ((-1, 5, 6), (2, 3), (12, -2, 8, 17, 18)),
    "constant": ((-5,), (-1, -4), (2, 3, 5), (12, 8), (17, -2, 6), (45, 18)),
}
SUITES = {"crosscheck": ("moebius", "torsor"), "constant": ("eta", "densities", "theta")}

WHY = {
    "crosscheck": "count --method both, a x B in {100,1000,5000}, each twice more as a cache hit, verify moebius+torsor: "
    "time is in the direct counter (box and pruned paths)",
    "constant": "predict for six a, each twice more as a cache hit, on 2000 other records, verify eta+densities+theta "
    "(full, fixed seeds): L(1,chi), Euler product, omega_inf, hit path",
}
WORKLOADS = tuple(WHY)


@dataclass(frozen=True)
class Request:
    """CLI arguments (without --cache-dir), the pinned expectation, and for a
    repeat the index of the request it repeats."""

    argv: tuple[str, ...]
    expect: object = None
    repeat_of: int | None = None

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def cached(self) -> bool:
        return self.command in ("count", "predict")


@dataclass
class Outcome:
    """What one request process did."""

    returncode: int
    stdout: bytes
    stderr: bytes
    latency: float
    maxrss_kb: int
    records_before: int = 0
    records_after: int = 0


def b_candidates(B0: int) -> list[int]:
    """The B values a seed may draw around the listed B0."""
    return [B0 + j * B0 // 100 for j in JITTER]


def load_reference(path: Path | None = None) -> dict:
    path = path or Path(__file__).with_name("reference.json")
    return json.loads(path.read_text())


def draw_a(workload: str, seed: int) -> list[int]:
    strata = STRATA[workload]
    if seed == DEFAULT_SEED:
        return [s[0] for s in strata]
    rng = random.Random(f"{workload}/{seed}")
    return [rng.choice(s) for s in strata]


def with_repeats(first: list[Request]) -> list[Request]:
    """The requests, each cached one sent HITS times more: its k-th repeat
    right after the k-th request that follows it.  A repeat never follows its
    own request, and the repeats spread over the whole pass, so that a slow
    spell of the machine does not fall on all of them at once."""
    slots = [(i, i) for i in range(len(first))]
    slots += [(i + k + 0.5, i) for i, r in enumerate(first) if r.cached for k in range(1, HITS + 1)]
    out: list[Request] = []
    sent: dict[int, int] = {}  # index in `first` -> index in `out` of its first send
    for _, i in sorted(slots):
        if i in sent:
            out.append(Request(first[i].argv, first[i].expect, sent[i]))
        else:
            sent[i] = len(out)
            out.append(first[i])
    return out


def build(workload: str, seed: int, reference: dict) -> list[Request]:
    """The request list of one pass."""
    a_values = draw_a(workload, seed)
    if workload == "constant":
        first = [Request(("predict", "--a", str(a)), reference["predict"][str(a)]) for a in a_values]
    else:
        rng = None if seed == DEFAULT_SEED else random.Random(f"{workload}/{seed}/B")
        first = []
        for a in a_values:
            for B0 in CROSSCHECK_B:
                B = B0 if rng is None else rng.choice(b_candidates(B0))
                first.append(
                    Request(
                        ("count", "--a", str(a), "--B", str(B), "--method", "both"),
                        reference["count"][f"{a},{B}"],
                    )
                )
    first += [Request(("verify", "--suite", suite), (suite,)) for suite in SUITES[workload]]
    return with_repeats(first)


# ---------------------------------------------------------------------------
# checks: each returns None when the response is correct, else the reason


def check(req: Request, out: Outcome, first: Outcome | None) -> str | None:
    if req.repeat_of is not None:
        if out.returncode != 0 or out.stdout != first.stdout:
            return "cache hit differs from its miss"
        if out.records_after != out.records_before:
            return "cache hit wrote a record"
        return None
    if out.returncode not in (0, 3):
        last = out.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return f"exit {out.returncode} {last}"
    if req.cached and out.records_after != out.records_before + 1:
        return f"cache gained {out.records_after - out.records_before} records on a miss"
    return {"count": check_count, "predict": check_predict, "verify": check_verify}[req.command](
        req, out
    )


def check_count(req: Request, out: Outcome) -> str | None:
    if out.returncode == 3:
        return "direct != torsor (exit 3)"
    got = json.loads(out.stdout)
    counts = {got[k] for k in ("direct", "torsor") if k in got}
    if counts != {req.expect}:
        return f"counts {sorted(counts)} != pinned {req.expect}"
    return None


def check_predict(req: Request, out: Outcome) -> str | None:
    """Every factor within the bound the output itself reports; chart and
    region integrals within 1e-3 of each other."""
    got, ref = json.loads(out.stdout), req.expect
    if set(got) != set(ref):
        return f"factor keys {sorted(got)} != {sorted(ref)}"
    quad_err = 10 * 1e-6  # RegionIntegral error floor at the CLI tolerance 1e-6
    bounds = {
        "a": 0,
        "alpha": 0,
        "rho_field": 0,
        "omega_inf": quad_err,
        "omega_inf_alt": quad_err,
        "finite_product": got["finite_product_bound"],
        "L1_chi": got["L1_bound"],
        "omega_inf_mc": 3 * got["omega_inf_mc_stderr"],
        "c": got["c"] * (got["finite_product_bound"] / got["finite_product"] + quad_err / got["omega_inf"]),
    }
    for key, bound in bounds.items():
        if abs(got[key] - ref[key]) > bound:
            return f"{key} = {got[key]!r}, pinned {ref[key]!r}, bound {bound:.3g}"
    if got["omega_inf_rel_gap"] > 1e-3:
        return f"chart vs region gap {got['omega_inf_rel_gap']:.3g} > 1e-3"
    return None


_SUITE_LINE = re.compile(r"suite (\w+): (ok|FAIL) ")


def check_verify(req: Request, out: Outcome) -> str | None:
    status = dict(_SUITE_LINE.findall(out.stdout.decode()))
    if status != {suite: "ok" for suite in req.expect}:
        return f"suite status {status}"
    return None
