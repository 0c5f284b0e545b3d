"""Command-line surface: point counts, constant prediction, verification
suites, and count-vs-prediction reports, with a JSON-lines result cache.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 cross-method
count mismatch.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
import zlib
from functools import lru_cache
from importlib.util import find_spec
from pathlib import Path

from . import __version__
from .arith import CounterMismatch, OutOfRange, check_nonsquare

SCHEMA_VERSION = 1
CACHE_ENV = "DELPEZZO_CACHE_DIR"


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def default_cache_dir() -> Path:
    return Path(os.environ.get(CACHE_ENV, ".delpezzo_cache"))


@lru_cache(maxsize=None)
def code_version() -> str:
    """Checksum of the package's sources and of numpy's version.py, so that a
    cached result never outlives the code that produced it, numpy's included.
    find_spec locates numpy without importing it.  CRC-32, because importing
    hashlib loads OpenSSL and adds about 3.5 MB to every command's memory."""
    crc = 0
    for path in sorted(Path(__file__).parent.glob("*.py")):
        crc = zlib.crc32(path.name.encode() + b"\0" + path.read_bytes(), crc)
    numpy_version = Path(find_spec("numpy").origin).with_name("version.py")
    crc = zlib.crc32(numpy_version.read_bytes(), crc)
    return f"{crc:08x}"


class Cache:
    """Append-only JSON-lines store keyed by (command, parameters, code version)."""

    def __init__(self, directory: Path):
        directory = Path(directory)
        # `put` makes the directory after the work: refuse one it cannot make
        for path in (directory, *directory.parents):
            if path.exists():
                if not path.is_dir():
                    raise NotADirectoryError(
                        f"cache directory {directory} cannot be made: {path} is not a directory"
                    )
                break
        self.path = directory / "cache.jsonl"
        if self.path.is_dir():  # and a record file that `get` and `put` cannot open
            raise IsADirectoryError(f"cache file {self.path} is a directory")

    def get(self, command: str, params: dict):
        """The last record of (command, params) at this code version, or None.

        `put` writes sorted keys, so only the lines that start with the key's
        `{"code_version": ..., "command": ..., "parameters": ..., ` are parsed;
        one that is not UTF-8 JSON is skipped."""
        if not self.path.exists():
            return None
        key = {"code_version": code_version(), "command": command, "parameters": params}
        prefix = (json.dumps(key, sort_keys=True)[:-1] + ", ").encode()
        hit = None
        with open(self.path, "rb") as fh:
            for line in fh:
                if not line.startswith(prefix):
                    continue
                try:
                    rec = json.loads(line)
                except ValueError:  # JSONDecodeError or UnicodeDecodeError
                    continue
                if rec.get("schema_version") == SCHEMA_VERSION:
                    hit = rec
        return hit

    def put(self, command: str, params: dict, result: dict) -> dict:
        """Append the record of (command, params) and return it as `get`
        reads it back, so that a miss prints what a hit would."""
        rec = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "parameters": params,
            "result": result,
            "timestamp": time.time(),
            "code_version": code_version(),
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(rec, sort_keys=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        return json.loads(line)


def _cached(args, command: str, params: dict, compute):
    """The result of (command, params): the cached record's, or else
    compute()'s, stored and returned as a hit would read it."""
    cache = Cache(args.cache_dir)
    rec = cache.get(command, params)
    if rec is None:
        rec = cache.put(command, params, compute())
    return rec["result"]


def cmd_count(args) -> int:
    def compute():
        from .counting import count

        results = count(args.a, args.B, args.method, args.jobs)
        return {k: {"count": r.count, "elapsed": r.elapsed} for k, r in results.items()}

    results = _cached(args, "count", {"a": args.a, "B": str(args.B), "method": args.method}, compute)
    counts = {k: v["count"] for k, v in results.items()}
    if args.format == "json":
        print(json.dumps({"a": args.a, "B": str(args.B), **counts}, sort_keys=True))
    else:
        print("method,count")
        for k, v in counts.items():
            print(f"{k},{v}")
    return 0


def cmd_predict(args) -> int:
    params = {
        "a": args.a,
        "prime_cut": args.prime_cut,
        "mc_samples": args.mc_samples,
        "seed": args.seed,
        "tolerance": args.tolerance,
    }

    def compute():
        from .constant import predict_constant

        return predict_constant(args.a, args.prime_cut, args.tolerance, args.mc_samples, args.seed)

    factors = _cached(args, "predict", params, compute)
    if args.format == "json":
        print(json.dumps({"a": args.a, **factors}, sort_keys=True))
    else:
        print("factor,value")
        for k, v in factors.items():
            print(f"{k},{_fmt(v)}")
    return 0


def cmd_compare(args) -> int:
    def compute():
        from .constant import compare

        return compare(args.a, args.B_list, args.prime_cut)

    params = {"a": args.a, "B_list": args.B_list, "prime_cut": args.prime_cut}
    rows = _cached(args, "compare", params, compute)
    if args.format == "json":
        print(json.dumps({"a": args.a, "rows": rows}, sort_keys=True))
    else:
        print("B,count,prediction,ratio")
        for r in rows:
            print(f"{_fmt(r['B'])},{r['count']},{_fmt(r['prediction'])},{_fmt(r['ratio'])}")
    return 0


# ---------------------------------------------------------------------------
# verification suites

# the a that the quick eta and Moebius suites walk
QUICK_TESTBED = (-4, -1, 2, 12, 17)


def _suite_eta(quick: bool):
    from .arith import TESTBED, primes_upto
    from .eta import eta, eta_bruteforce, eta_closed

    ps = primes_upto(19 if quick else 53)
    kmax = 6 if quick else 10
    for a in QUICK_TESTBED if quick else TESTBED:
        for p in ps:
            for k in range(1, kmax + 1):
                c, b = eta_closed(p, k, a), eta_bruteforce(p**k, a)
                if c != b:
                    yield {"case": f"eta_closed(p={p},k={k},a={a})", "got": c, "want": b}
    for q1, q2, a in ((8, 3, 17), (9, 8, 5), (25, 12, -1), (27, 40, 18)):
        lhs, rhs = eta(q1 * q2, a), eta_bruteforce(q1, a) * eta_bruteforce(q2, a)
        if lhs != rhs:
            yield {"case": f"eta multiplicativity q1={q1} q2={q2} a={a}", "got": lhs, "want": rhs}


def _suite_density_table(quick: bool):
    """omega_p against the squarefree table (criterion 02)."""
    from .arith import TESTBED, factorize, primes_upto
    from .local_densities import omega_p, remark_omega

    squarefree = [a for a in TESTBED if all(e == 1 for _, e in factorize(a))]
    for a in squarefree:
        for p in primes_upto(47 if quick else 100):
            if omega_p(p, a) != remark_omega(p, a):
                yield {"case": f"omega_p table p={p} a={a}"}


def _suite_density_oracle(quick: bool):
    """omega_p against the p-adic integral oracle (criterion 03)."""
    from .arith import valuation
    from .local_densities import omega_p, omega_p_bruteforce

    grid = [(2, 3), (3, 12)] if quick else [(p, a) for p in (2, 3, 5) for a in (-4, 3, 8, 12, 18)]
    for p, a in grid:
        V = valuation(p, 4 * a) + (6 if quick else 8)
        bf = omega_p_bruteforce(p, a, V)
        if abs(omega_p(p, a) - bf.value) > bf.bound:
            yield {"case": f"omega_p oracle p={p} a={a}", "diff": float(abs(omega_p(p, a) - bf.value))}


def _suite_densities(quick: bool):
    yield from _suite_density_table(quick)
    yield from _suite_density_oracle(quick)


def _suite_theta(quick: bool):
    import itertools

    from .arith import TESTBED, primes_upto, theta0
    from .theta import theta1_factor_identity

    ps = primes_upto(13 if quick else 50)
    vmax = 2 if quick else 3
    testbed = (-1, 12) if quick else TESTBED
    for p in ps:
        for v in itertools.product(range(vmax + 1), repeat=4):
            # where theta0 fails at the slice (p^v1, ..., p^v4), both sides
            # are 0 by construction, at every a (31 of the full suite's 256
            # patterns pass)
            if not theta0(*(p**x for x in v)):
                continue
            for a in testbed:
                tab, tot, ok = theta1_factor_identity(p, a, v)
                if not ok:
                    yield {"case": f"theta1 identity p={p} a={a} v={v}",
                           "table": str(tab), "sum": str(tot)}


def _suite_moebius(quick: bool):
    """The Moebius slice identity on every slice the torsor counter walks at
    B = 300 (criterion 05)."""
    from .arith import TESTBED
    from .counting import moebius_slice_check, slices

    B = 300
    for a in QUICK_TESTBED if quick else TESTBED:
        for a1 in range(1, math.isqrt(B) + 1):
            for s in slices(B, a1):
                lhs, rhs = moebius_slice_check(a, *s, B)
                if lhs != rhs:
                    yield {"case": f"moebius a={a} slice={s} B={B}", "lhs": lhs, "rhs": rhs}


def _suite_torsor(quick: bool):
    """One tuple of every sign orbit in orbit_representatives' box: each orbit
    has 32 members, all mapping by psi to one point of the tuple's height."""
    from .torsor import TorsorTuple, height_tilde, orbit, orbit_representatives, psi, weight_rank_mod2

    if weight_rank_mod2() != 5:
        yield {"case": "weight rank mod 2"}
    for a in (-1, 2) if quick else (-1, 2, 5, 12, -2):
        for t in orbit_representatives(a):
            orb = orbit(t)
            if len(orb) != 32:
                yield {"case": f"orbit size {t}", "size": len(orb)}
            try:
                imgs = {psi(TorsorTuple(*c), a).x for c in orb}
            except (ValueError, AssertionError) as e:
                yield {"case": f"psi on the orbit of {t} a={a}", "error": str(e)}
                continue
            if len(imgs) != 1:
                yield {"case": f"orbit image {t} a={a}"}
            if psi(t, a).height != height_tilde(t):
                yield {"case": f"height match {t} a={a}"}


SUITES = {
    "eta": _suite_eta,
    "densities": _suite_densities,
    "theta": _suite_theta,
    "moebius": _suite_moebius,
    "torsor": _suite_torsor,
}


def cmd_verify(args) -> int:
    if not args.inject_fault:
        return _run_suites(args)
    # report one square root too many at (2, 3, 17), to prove the suites can fail
    from . import eta

    eta_closed = eta.eta_closed
    eta.eta_closed = lambda p, k, a: eta_closed(p, k, a) + ((p, k, a) == (2, 3, 17))
    try:
        return _run_suites(args)
    finally:
        eta.eta_closed = eta_closed


def _run_suites(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    failures = []
    for name in names:
        t0 = time.time()
        fails = list(SUITES[name](args.quick))
        status = "ok" if not fails else "FAIL"
        print(f"suite {name}: {status} ({time.time() - t0:.1f}s)")
        for f in fails:
            failures.append({"suite": name, **f})
    if failures:
        for f in failures:
            print(json.dumps(f, sort_keys=True, default=str))
        return 1
    return 0


def _arg(parse, want: str, ok=lambda value: True):
    """An argparse type: parse(text) if that succeeds and ok holds of the
    value, else a usage error saying the value must be `want`."""

    def convert(text: str):
        try:
            value = parse(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {want}")

    return convert


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="delpezzo",
        description="Count rational points and verify the predicted constant "
        "for the quartic surfaces x0*x4 + x1^2 - a*x3^2 = x2*x3 - x4^2 = 0.",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    c = sub.add_parser("count", help="count points of height <= B")
    p = sub.add_parser("predict", help="predicted leading constant, factored")
    v = sub.add_parser("verify", help="run identity suites")
    m = sub.add_parser("compare", help="count vs prediction table")
    surfaces = ((c, cmd_count, "json"), (p, cmd_predict, "json"), (m, cmd_compare, "csv"))
    for sp, func, _ in surfaces:
        # check_nonsquare returns a, which is nonzero, or raises ValueError
        sp.add_argument("--a", type=_arg(int, "a nonzero nonsquare integer", check_nonsquare), required=True)
        sp.set_defaults(func=func)

    c.add_argument("--B", type=int, required=True)
    c.add_argument("--method", choices=("direct", "torsor", "both"), default="both")
    c.add_argument("--jobs", type=_arg(int, "an integer >= 1", lambda n: n >= 1), default=1)

    p.add_argument("--prime-cut", type=int, default=20000)
    p.add_argument("--mc-samples", type=int, default=10**6)
    p.add_argument("--seed", type=_arg(int, "an integer >= 0", lambda n: n >= 0), default=1)
    p.add_argument(
        "--tolerance", type=_arg(float, "a positive finite number", lambda x: 0 < x < math.inf), default=1e-6
    )

    v.add_argument("--suite", choices=(*SUITES, "all"), default="all")
    v.add_argument("--quick", action="store_true")
    v.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    v.set_defaults(func=cmd_verify)

    B_list = _arg(lambda text: [int(x) for x in text.split(",")], "a comma-separated list of integers")
    m.add_argument("--B-list", type=B_list, required=True)
    m.add_argument("--prime-cut", type=int, default=20000)

    for sp, _, fmt in surfaces:
        sp.add_argument("--format", choices=("json", "csv"), default=fmt)
        sp.add_argument("--cache-dir", type=Path, default=default_cache_dir())
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (OutOfRange, NotADirectoryError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CounterMismatch as exc:  # raised inside compute(): nothing is stored
        print(str(exc), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
