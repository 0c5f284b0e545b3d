"""The two independent point counters and the Moebius-slice identity.

direct_count  enumerates coordinate triples (x1, x3, x4) of the projection
              away from the x4-line, maps them back to the surface, reduces,
              and deduplicates.  Any point of height <= B is reproduced by its
              own triple, so the count is complete.  The count is a pruned
              scan over primitive triples (derivation in _direct_pruned_count).
              Its test oracle, the plain O(B^3) box scan _direct_box, is the
              one oracle in the package: perfbench/tracer.py wraps it by name.

torsor_count  enumerates torsor tuples (a1, ..., a7) with a8 forced by the
              torsor equation and divides the orbit total by 32.  Signs are
              factored out: every height monomial and coprimality condition
              depends only on absolute values, so the full total is
              64 * (positive-orthant total with a7 >= 0, weight 2 when
              a7 > 0), and 64/32 = 2.  The count walks the admissible slices
              (a1..a4) that `slices` yields, one at a time (_slice_count),
              over the slice's (a5, a6) box and a7 window (_Slice), where a7
              runs over the classes of eta.rho_classes(a1, a) times a unit.
              The coprimality conditions are arith.COPRIME's rows, each
              tested at the loop level that fixes its a_i.  The table's
              a1..a4 columns come from arith.slice_coprime; its two entries
              among a5..a8, a5 in rows 6 and 8, are written in the loops.
              The literal enumeration over all sign patterns is its test
              oracle, in tests/test_counting.py.

count         runs the counters a request names and, when both run, is the
              one place where their counts are compared (CounterMismatch).

moebius_slice_check  verifies, on one given slice (a1..a4), that the number
              of completions (a5, a6, a7, a8), which is 4 * _slice_count,
              equals the Moebius-inverted sum over (d56, d58, d5, d6, d7) and
              square-root classes rho, with gamma7 solved by non-coprime CRT
              and lattice points counted by floor arithmetic on the same box
              and a7 window.  Both sides take their roots from rho_classes:
              it checks the Moebius step, not the roots.  `verify --suite
              moebius` runs it on every slice of the torsor counter's walk
              at B = 100.

Both counters are sums over one outer loop, whose items _fan_out maps one
at a time: the reduced height m for the direct counter, a1 for the torsor.
With jobs > 1 the items go to worker processes, one task each, so a free
worker takes the next item and no part is fixed in advance.
"""

from __future__ import annotations

import math
import os
import time
from functools import partial, reduce
from typing import NamedTuple

import numpy as np

from .arith import (BLOCK, CounterMismatch, OutOfRange, ceil_sqrt, check_nonsquare, crt, moebius,
                    slice_coprime, slice_monomials, squarefree_divisors, theta0)
from .eta import rho_classes


class CountResult(NamedTuple):
    count: int
    elapsed: float
    stats: dict


def _fan_out(worker, args: tuple, items, jobs: int) -> list:
    """[worker(*args, item) for item in items], each item one task of a pool
    of n worker processes when n > 1; n = jobs, but no more than there are
    items or cores (the pool starts all its workers at once)."""
    jobs = min(jobs, len(items), os.cpu_count() or 1)
    work = partial(worker, *args)
    if jobs <= 1:
        return list(map(work, items))
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(work, items))


def count(a: int, B, method: str = "both", jobs: int = 1) -> dict[str, CountResult]:
    """{name: result} of the counters `method` names ("direct", "torsor" or
    "both"); with both, raises CounterMismatch unless they agree.  The names
    are looked up at each call, so a wrapped or patched counter is the one run."""
    counters = {"direct": direct_count, "torsor": torsor_count}
    names = counters if method == "both" else (method,)
    results = {name: counters[name](a, B, jobs=jobs) for name in names}
    counts = {name: r.count for name, r in results.items()}
    if len(set(counts.values())) > 1:
        raise CounterMismatch(f"counter mismatch at B={B}: {counts}")
    return results


# ---------------------------------------------------------------------------
# direct counter


def _normalize_rows(arr: np.ndarray) -> np.ndarray:
    """gcd-reduce rows of an (n, 5) int64 array and fix the sign convention."""
    g = np.gcd.reduce(np.abs(arr), axis=1)
    arr = arr // g[:, None]
    sgn = np.where(arr[:, 0] != 0, np.sign(arr[:, 0]), np.sign(arr[:, 1]))
    sgn = np.where(sgn != 0, sgn, 1)  # x2 = x4^3/g > 0 when the first two vanish
    return arr * sgn[:, None]


def _direct_box(a: int, B1: int) -> set[tuple[int, ...]]:
    """All points of height <= B1 via the full triple box, deduplicated."""
    pts: set[tuple[int, ...]] = set()
    x1 = np.arange(-B1, B1 + 1, dtype=np.int64)[None, :]
    x3_all = np.concatenate(
        [np.arange(-B1, 0, dtype=np.int64), np.arange(1, B1 + 1, dtype=np.int64)]
    )
    width = 2 * B1 + 1
    chunk = max(1, 4_000_000 // width)
    for x4 in range(1, B1 + 1):
        for s in range(0, len(x3_all), chunk):
            x3 = x3_all[s : s + chunk][:, None]
            shape = (x3.shape[0], width)
            x3sq = x3 * x3
            cols = [
                (a * x3sq - x1 * x1) * x3,
                x1 * x3 * x4,
                np.int64(x4**3),
                x3sq * x4,
                x3 * x4 * x4,
            ]
            # rows with max|X_i| <= B1 g are points, and only they are built;
            # the (x3, x4)-only columns go first, while the arrays are small
            g = reduce(np.gcd, cols[::-1])
            keep = reduce(np.maximum, [np.abs(c) for c in cols[::-1]]) <= B1 * g
            if keep.any():
                arr = np.stack([np.broadcast_to(c, shape)[keep] for c in cols], axis=1)
                pts.update(map(tuple, _normalize_rows(arr).tolist()))
    return pts


def _ragged_ranges(starts: np.ndarray, stops: np.ndarray):
    """Flatten inclusive integer ranges [starts[i], stops[i]], at least one
    and each non-empty, into one array, returning (values, owner_index)."""
    lens = stops - starts + 1
    total = int(lens.sum())
    owner = np.repeat(np.arange(len(starts), dtype=np.int64), lens)
    offsets = np.concatenate(([0], np.cumsum(lens)[:-1]))
    flat = np.arange(total, dtype=np.int64) - np.repeat(offsets, lens) + np.repeat(starts, lens)
    return flat, owner


def _floor_sqrt_arr(n: np.ndarray) -> np.ndarray:
    """Exact floor square roots of 0 <= n < 2^62.  There the float square
    root truncates to within 1 of the floor, so one step down and one step
    up make it exact."""
    r = np.sqrt(n.astype(np.float64)).astype(np.int64)
    r = np.where(r * r > n, r - 1, r)
    r = np.where((r + 1) * (r + 1) <= n, r + 1, r)
    return np.maximum(r, 0)


def _ceil_sqrt_arr(n: np.ndarray) -> np.ndarray:
    r = _floor_sqrt_arr(n)
    return np.where(r * r == n, r, r + 1)


# The largest height the direct counter serves, at any a.
DIRECT_B_MAX = 100_000
# A bound on the int64 values of the pruned scan.  Its ranges keep x3, x4 <=
# B^(3/4) and D <= B^(5/4) (derivation in _direct_pruned_count), so B D, x4^3,
# x3^2 x4 and x3 x4^2 stay below B^(9/4), and the t window's ends
# a x3^2 +- B D / x3 below |a| B^(3/2) + B^(9/4).  X0 and X1 are then at most
# B D, and the floor square root of an n < 2^62 checks (r + 1)^2 < 2^63.
DIRECT_INT_MAX = 2**62


def check_direct_B(a: int, B1: int) -> None:
    """Raise OutOfRange if the direct counter cannot take a at the integer
    height B1: beyond DIRECT_B_MAX, or where |a| B1^(3/2) + B1^(9/4) reaches
    DIRECT_INT_MAX and the scan's int64 values could overflow (the first
    test keeps a huge |a| out of the float product)."""
    if B1 > DIRECT_B_MAX:
        raise OutOfRange(f"B = {B1} exceeds the direct counter's limit {DIRECT_B_MAX}")
    if abs(a) >= DIRECT_INT_MAX or abs(a) * B1**1.5 + B1**2.25 >= DIRECT_INT_MAX:
        raise OutOfRange(f"|a| = {abs(a)} at B = {B1} exceeds the direct counter's int64 range")


def _direct_pruned_count(a: int, B1: int, m: int) -> int:
    """Count points of height <= B1 by primitive-triple enumeration, those
    with reduced height m = x4 / gcd(x3, x4), one of m <= sqrt(B1).

    Soundness of the pruning, for a primitive triple t = (x1, x3, x4) with
    x3 = c n, x4 = c m, c = gcd(x3, x4), mapping to the primitive point y with
    image gcd g.  The image components are X_0 = (a x3^2 - x1^2) x3,
    X_1 = x1 x3 x4 and the x1-independent x4^3, x3^2 x4 and x3 x4^2, whose gcd
    is x4 c^2.
      * g | D := gcd(x3 m, x4 c^2) = x4 gcd(n, c^2).  For a prime q not
        dividing x3, v_q(g) <= v_q(x3^2 x4) = v_q(m); for q | x3 not dividing
        x4, v_q(g) <= v_q(x4^3) = 0; for q | c primitivity makes q coprime to
        x1, so v_q(g) <= v_q(X_0) = v_q(x3).  So g | x3 m, and g | x4 c^2;
      * hence g = gcd(D, X_0, X_1): D divides x4 c^2, the gcd of the three
        x1-independent components, so two gcds per x1 replace the
        five-column reduction;
      * H(y) >= |X_i| / D for every component.  The x1-independent ones give
        the pair test max(x4^3, x3^2 x4, x3 x4^2) <= B D, which, as
        gcd(n, c^2) <= min(n, c^2), implies the enumeration ranges
        m <= sqrt(B), n <= sqrt(B), c^2 m <= B, c^2 n <= B and
        (c m)^2 <= B n; X_0 and X_1 give the x1 windows
        |a x3^2 - x1^2| <= B D / x3 and |x1| <= B D / (x3 x4);
      * distinct primitive triples with x4 >= 1 give distinct points, and the
        primitive part of any point's own triple lies in the search domain,
        so counting passing triples counts each point exactly once;
      * x3 -> -x3 flips the signs of three image components, preserving the
        gcd, the height, and primitivity, and pairs distinct points, so only
        x3 > 0 is enumerated and the total is doubled (likewise x1 = +-t
        are distinct points counted by weight 2 for t > 0).
    """
    n = np.arange(1, math.isqrt(B1) + 1, dtype=np.int64)
    if m > 1:
        n = n[np.gcd(n, m) == 1]
    # c^2 n <= B, c^2 m <= B and (c m)^2 <= B n; n = 1 always passes
    cmax = np.minimum(
        np.minimum(_floor_sqrt_arr(B1 // n), math.isqrt(B1 // m)), _floor_sqrt_arr(B1 * n) // m
    )
    keep = cmax >= 1
    n, cmax = n[keep], cmax[keep]
    c, owner = _ragged_ranges(np.ones(len(n), dtype=np.int64), cmax)
    return 2 * _pruned_pairs(a, B1, m, c, c * n[owner])


def _pruned_pairs(a: int, B1: int, m: int, c: np.ndarray, x3: np.ndarray) -> int:
    """Weighted passing-triple count over the (x3, x4 = c*m) pairs, x1 = t >= 0.
    The t-candidates are taken in whole pairs' windows, BLOCK candidates and
    one window more at a time, so beside the pairs' own arrays a step holds
    about ten int64 arrays of that length."""
    x4 = c * m
    D = np.gcd(x3 * m, x4 * c * c)
    M234 = np.maximum(x4 * x4 * x4, x3 * x4 * np.maximum(x3, x4))
    BD = B1 * D
    ax3sq = a * x3 * x3
    lim0 = BD // x3  # |a x3^2 - t^2| <= B g / |x3| <= lim0
    hi2, lo2 = ax3sq + lim0, ax3sq - lim0
    x34 = x3 * x4
    # the t window [L, U]; no t when hi2 < 0
    U = np.where(hi2 >= 0, np.minimum(_floor_sqrt_arr(np.maximum(hi2, 0)), BD // x34), -1)
    L = _ceil_sqrt_arr(np.maximum(lo2, 0))
    keep = (M234 <= BD) & (U >= L)
    c, x3, x34, D, M234, ax3sq, L, U = (v[keep] for v in (c, x3, x34, D, M234, ax3sq, L, U))

    total = 0
    cum = np.cumsum(U - L + 1)
    start = 0
    while start < len(c):
        base = int(cum[start - 1]) if start else 0
        stop = min(int(np.searchsorted(cum, base + BLOCK, side="left")) + 1, len(c))
        t, owner = _ragged_ranges(L[start:stop], U[start:stop])
        prim = np.gcd(t, c[start:stop][owner]) == 1
        t, owner = t[prim], owner[prim] + start
        X0 = (ax3sq[owner] - t * t) * x3[owner]
        X1 = t * x34[owner]
        Bg = B1 * np.gcd(np.gcd(D[owner], X1), X0)
        passing = (np.abs(X0) <= Bg) & (X1 <= Bg) & (M234[owner] <= Bg)
        total += int(np.count_nonzero(passing) + np.count_nonzero(passing & (t > 0)))
        start = stop
    return total


def direct_count(a: int, B, jobs: int = 1) -> CountResult:
    """Count U(Q)-points of height <= B through the projection chart.  Heights
    are integers, so this is the count at floor(B)."""
    check_nonsquare(a)
    t0 = time.time()
    B1 = math.floor(B)
    if B1 < 1:
        return CountResult(0, time.time() - t0, {})
    check_direct_B(a, B1)
    ms = range(1, math.isqrt(B1) + 1)
    n = sum(_fan_out(_direct_pruned_count, (a, B1), ms, jobs))
    return CountResult(n, time.time() - t0, {})


# ---------------------------------------------------------------------------
# torsor counter


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)), 0 for n < 1."""
    if n < 1:
        return 0
    r = round(n ** (1 / k))
    while r > 0 and r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def check_torsor_B(B1: int) -> None:
    """Raise OutOfRange if the integer height B1 >= 2^126, where isqrt(B1) >=
    2^63: the length of the outer loop range(1, isqrt(B1) + 1) no longer fits
    a C ssize_t, and from about 10^308 on _iroot's float root overflows.  This
    is the loop's arithmetic range, not a limit on run time."""
    if B1 >= 2**126:
        raise OutOfRange("B >= 2^126 is beyond the torsor counter's range: isqrt(B) must be below 2^63")


def torsor_count(a: int, B, jobs: int = 1) -> CountResult:
    """Count U(Q)-points of height <= B through the torsor parameterization.
    Heights are integers, so this is the count at floor(B).

    jobs > 1 hands each a1 to a worker process as one task and sums the
    weighted counts, which are exact integers.
    """
    check_nonsquare(a)
    t0 = time.time()
    B1 = math.floor(B)
    check_torsor_B(B1)
    if B1 < 1:
        return CountResult(0, time.time() - t0, {})
    parts = _fan_out(_torsor_positive, (a, B1), range(1, math.isqrt(B1) + 1), jobs)
    weighted, visited = (sum(col) for col in zip(*parts))
    return CountResult(2 * weighted, time.time() - t0, {"weighted_positive": weighted, "visited": visited})


def _torsor_positive(a: int, B1: int, a1: int) -> tuple[int, int]:
    """Sum of _slice_count, and of its visited pairs, over slices(B1, a1)."""
    classes = rho_classes(a1, a)[:2]  # an a1 with none is walked too: visited counts its pairs
    parts = [_slice_count(_Slice(a, B1, *s), classes) for s in slices(B1, a1)]
    return sum(w for w, _ in parts), sum(v for _, v in parts)


def slices(B1: int, a1: int):
    """The admissible slices (a1, a2, a3, a4) with this a1 at integer height
    B1, those with theta0 = 1.  a2, a3 and a4 run up to m3 <= B and m4 <= B;
    beyond, the slice's box is empty.  Each of COPRIME's rows 2-4 is tested
    at its own loop level: row i reads a_j with j < i only, so its product
    g_i is slice_coprime's at (a1, ..., a_(i-1), 1, ...)."""
    g2 = slice_coprime(a1, 1, 1, 1)[0]
    for a2 in range(1, min(_iroot(B1, 3), B1 // (a1 * a1)) + 1):
        if math.gcd(a2, g2) != 1:
            continue
        g3 = slice_coprime(a1, a2, 1, 1)[1]
        for a3 in range(1, min(math.isqrt(B1 // a2**3), math.isqrt(B1 // (a1 * a1 * a2))) + 1):
            if math.gcd(a3, g3) != 1:
                continue
            g4 = slice_coprime(a1, a2, a3, 1)[2]
            for a4 in range(1, _iroot(B1 // (a2**3 * a3 * a3), 4) + 1):
                if math.gcd(a4, g4) == 1:
                    yield a1, a2, a3, a4


class _Slice:
    """One slice (a1..a4) of the torsor at integer height B1.

    A completion (a5, a6, a7) with a5, a6 >= 1, and a8 forced by the torsor
    equation a1 a8 = c - a7^2, c = a (w a6)^2, has height <= B iff
      M3 = m3 a5^3 <= B1 (x2: a5's range),  M1 = a6 |c - a7^2| / a1 <= B1 and
      M2 = d7 a5 a6 |a7| <= B1 (x0, x1: the a7 window); the height implies
      M4 = m4 a5 a6^2 <= B1 (x3: a6's range).
    x4 needs no bound of its own: x4^2 = x2 x3 makes its monomial M5 satisfy
    M5^2 = M3 M4, so M3, M4 <= B1 imply M5 <= B1.  d7, m3, m4 and w are
    arith.slice_monomials; a5_hi, a6_hi and window invert the a5..a7 columns
    of psi's rows x1..x3.  Signs of a5, a6, a7 change no condition.
    g5..g8 are the slice parts of COPRIME's rows 5-8 (arith.slice_coprime).
    They are not the box's: _slice_count tests the rows on it, the two that
    read a5 (rows 6 and 8) as gcd(a6, g6 a5) and gcd(a8, g8 a5), with g6 a5
    and g8 a5 formed once per a5 row.
    """

    __slots__ = ("a1", "B1", "m3", "m4", "w", "c_base", "d7", "g5", "g6", "g7", "g8")

    def __init__(self, a: int, B1: int, a1: int, a2: int, a3: int, a4: int):
        self.a1, self.B1 = a1, B1
        self.d7, self.m3, self.m4, self.w = slice_monomials(a1, a2, a3, a4)
        self.g5, self.g6, self.g7, self.g8 = slice_coprime(a1, a2, a3, a4)[3:]
        self.c_base = a * self.w * self.w

    def a5_hi(self) -> int:
        return _iroot(self.B1 // self.m3, 3)

    def a6_hi(self, a5: int) -> int:
        return math.isqrt(self.B1 // (self.m4 * a5))

    def box(self, b5: int = 1, b6: int = 1):
        """The box by rows: (a5, range of a6) with b5 | a5 and b6 | a6."""
        for a5 in range(b5, self.a5_hi() + 1, b5):
            yield a5, range(b6, self.a6_hi(a5) + 1, b6)

    def window(self, a5: int, a6: int) -> tuple[int, int, int]:
        """(c, L, U): a7 is in the window iff L <= |a7| <= U."""
        c = self.c_base * a6 * a6
        T = self.B1 * self.a1 // a6
        if c + T < 0:
            return c, 1, 0
        U = min(math.isqrt(c + T), self.B1 // (self.d7 * a5 * a6))
        L = ceil_sqrt(c - T) if c > T else 0
        return c, L, U


def _slice_count(s: _Slice, classes: tuple) -> tuple[int, int]:
    """Completions of one slice with a5, a6 >= 1 and a7 >= 0 (weight 2 if
    a7 > 0) under COPRIME's rows 5-8, and the number of coprime (a5, a6)
    visited.  classes is rho_classes(a1, a)[:2], (rhos, m):
    u = w a6 is a unit mod a1, and the lifts of the rhos are the roots of a
    mod a1, so a1 | a u^2 - a7^2 iff a7 = u rho (mod m) for one rho."""
    rhos, m = classes
    a1, g5, g6, g7, g8 = s.a1, s.g5, s.g6, s.g7, s.g8
    total = visited = 0
    for a5, a6s in s.box():
        if math.gcd(a5, g5) != 1:
            continue
        g6a5, g8a5 = g6 * a5, g8 * a5
        for a6 in a6s:
            if math.gcd(a6, g6a5) != 1:
                continue
            visited += 1
            c, L, U = s.window(a5, a6)
            if U < L:
                continue
            u = s.w * a6
            for rho in rhos:
                for a7 in range(L + (u * rho - L) % m, U + 1, m):
                    if math.gcd(a7, g7) == 1 and math.gcd((c - a7 * a7) // a1, g8a5) == 1:
                        total += 2 if a7 > 0 else 1
    return total, visited


# ---------------------------------------------------------------------------
# Moebius slice identity


def _count_ap(lo: int, hi: int, r: int, m: int) -> int:
    """#{x in [lo, hi] : x = r (mod m)}."""
    first = lo + (r - lo) % m
    if first > hi:
        return 0
    return (hi - first) // m + 1


def moebius_slice_check(a: int, a1: int, a2: int, a3: int, a4: int, B) -> tuple[int, int]:
    """Both sides of the Moebius-inversion identity on one (a1..a4) slice."""
    check_nonsquare(a)
    if theta0(a1, a2, a3, a4) != 1:
        raise ValueError("slice requires theta0(a1..a4) = 1")
    s = _Slice(a, math.floor(B), a1, a2, a3, a4)
    return _slice_lhs(a, s), _slice_rhs(a, s)


def _slice_lhs(a: int, s: _Slice) -> int:
    """Completions (a5, a6, a7, a8) with the torsor equation, the remaining
    coprimality conditions, and height <= B;  a5, a6 range over both signs."""
    return 4 * _slice_count(s, rho_classes(s.a1, a)[:2])[0]


def _slice_rhs(a: int, s: _Slice) -> int:
    """The Moebius-inverted side: sum over inversion data and the rho classes
    that eta(d58 a1; a) counts.  d5, d6 and d7 invert COPRIME's rows 5-7 at
    their slice parts g5, g6, g7, d56 the a5 entry of row 6 and d58 that of
    row 8, whose slice part g8 is 1."""
    A5, A6 = s.a5_hi(), s.a6_hi(1)
    if A5 < 1 or A6 < 1:
        return 0

    a1, g5, g6, g7 = s.a1, s.g5, s.g6, s.g7
    g56 = g5 * g6
    d56s = [(d, mu) for d in range(1, A6 + 1) if (mu := moebius(d)) and math.gcd(d, g56) == 1]
    d5s, d6s, d7s = ([(d, moebius(d)) for d in squarefree_divisors(g)] for g in (g5, g6, g7))
    total = 0
    for d58 in range(1, A5 + 1):
        mu58 = moebius(d58)
        if mu58 == 0 or math.gcd(d58, g7) != 1:
            continue
        rhos, mod_rho, gp = rho_classes(d58 * a1, a)
        if not rhos:
            continue
        for d56, mu56 in d56s:
            lcm_5658 = math.lcm(d56, d58)
            for d5, mu5 in d5s:
                b5 = d5 * lcm_5658
                if b5 > A5:
                    continue
                for d6, mu6 in d6s:
                    b6 = d6 * d56
                    if b6 > A6:
                        continue
                    mu56856 = mu56 * mu58 * mu5 * mu6
                    for d7, mu7 in d7s:
                        mu = mu56856 * mu7
                        b7 = d7 * mod_rho
                        for rho in rhos:
                            # gp | rho and gcd(d7, d58 a1) = 1 (theta0), so the
                            # congruences are compatible and the modulus is b7
                            gamma7, _ = crt([(0, gp * d7), (rho * s.w % mod_rho, mod_rho)])
                            total += mu * _lattice_count(s, b5, b6, b7, gamma7)
    return total


def _lattice_count(s: _Slice, b5: int, b6: int, b7: int, gamma7: int) -> int:
    """#{(a5, a6, a7) : b5 | a5 != 0, b6 | a6 != 0, a7 = gamma7 a6 (mod b7),
    height <= B}."""
    count = 0
    for a5, a6s in s.box(b5, b6):
        for a6 in a6s:
            _, L, U = s.window(a5, a6)
            if U < L:
                continue
            windows = [(-U, U)] if L == 0 else [(-U, -L), (L, U)]
            # a6 and -a6 give residues +-gamma7 a6; a5 signs are free
            for r in (gamma7 * a6 % b7, -gamma7 * a6 % b7):
                count += 2 * sum(_count_ap(lo, hi, r, b7) for lo, hi in windows)
    return count
