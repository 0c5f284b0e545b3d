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
              a7 > 0), and 64/32 = 2.  The count walks one slice (a1..a4) at
              a time (_slice_count), over the slice's (a5, a6) box and a7
              window (_Slice).  The literal enumeration over all sign
              patterns is its test oracle, in tests/test_counting.py.

moebius_slice_check  verifies, on one fixed slice (a1..a4), that the number
              of completions (a5, a6, a7, a8), which is 4 * _slice_count,
              equals the Moebius-inverted sum over (d56, d58, d5, d6, d7) and
              square-root classes rho, with gamma7 solved by non-coprime CRT
              and lattice points counted by floor arithmetic on the same box
              and a7 window.

With jobs > 1 both counters split their outer loop over worker processes
(_fan_out) and sum the parts.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np

from .arith import OutOfRange, ceil_sqrt, check_nonsquare, crt, moebius, squarefree_divisors
from .eta import rho_classes


@dataclass
class CountResult:
    a: int
    B: int
    method: str
    count: int
    elapsed: float
    stats: dict = field(default_factory=dict)


def _fan_out(worker, args: tuple, items, jobs: int) -> list:
    """[worker(*args, part)] for the parts items[w::n], w < n, each part in
    its own worker process when n > 1; n = jobs, but no more than there are
    items or cores (the pool starts all its workers at once)."""
    jobs = min(jobs, len(items), os.cpu_count() or 1)
    if jobs <= 1:
        return [worker(*args, items)]
    from concurrent.futures import ProcessPoolExecutor

    parts = [items[w::jobs] for w in range(jobs)]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, *([arg] * jobs for arg in args), parts))


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
    """Flatten inclusive integer ranges [starts[i], stops[i]] into one array,
    returning (values, owner_index)."""
    lens = np.maximum(stops - starts + 1, 0).astype(np.int64)
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    owner = np.repeat(np.arange(len(starts), dtype=np.int64), lens)
    offsets = np.concatenate(([0], np.cumsum(lens)[:-1]))
    flat = np.arange(total, dtype=np.int64) - np.repeat(offsets, lens) + np.repeat(starts, lens)
    return flat, owner


def _isqrt_exact(n: np.ndarray, guess: np.ndarray) -> np.ndarray:
    """Fix up float-sqrt guesses to exact floor square roots."""
    r = guess
    r = np.where(r * r > n, r - 1, r)
    r = np.where((r + 1) * (r + 1) <= n, r + 1, r)
    r = np.where(r * r > n, r - 1, r)
    return np.maximum(r, 0)


def _floor_sqrt_arr(n: np.ndarray) -> np.ndarray:
    return _isqrt_exact(n, np.sqrt(n.astype(np.float64)).astype(np.int64))


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


def _direct_pruned_count(a: int, B1: int, ms) -> int:
    """Count points of height <= B1 by primitive-triple enumeration, over the
    reduced heights m = x4 / gcd(x3, x4) in `ms`, a share of m <= sqrt(B1).

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
    total = 0
    for m in ms:
        n = np.arange(1, math.isqrt(B1) + 1, dtype=np.int64)
        if m > 1:
            n = n[np.gcd(n, m) == 1]
        # c^2 n <= B, c^2 m <= B and (c m)^2 <= B n
        cmax = np.minimum(
            np.minimum(_floor_sqrt_arr(B1 // n), math.isqrt(B1 // m)), _floor_sqrt_arr(B1 * n) // m
        )
        keep = cmax >= 1
        n, cmax = n[keep], cmax[keep]
        if not len(n):
            continue
        c, owner = _ragged_ranges(np.ones(len(n), dtype=np.int64), cmax)
        total += 2 * _pruned_pairs(a, B1, m, c, c * n[owner])
    return total


def _pruned_pairs(a: int, B1: int, m: int, c: np.ndarray, x3: np.ndarray) -> int:
    """Weighted passing-triple count over the (x3, x4 = c*m) pairs, x1 = t >= 0."""
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
        stop = min(int(np.searchsorted(cum, base + 4_000_000, side="left")) + 1, len(c))
        t, owner = _ragged_ranges(L[start:stop], U[start:stop])
        if len(t):
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
        return CountResult(a, B1, "direct", 0, time.time() - t0)
    check_direct_B(a, B1)
    ms = range(1, math.isqrt(B1) + 1)
    n = sum(_fan_out(_direct_pruned_count, (a, B1), ms, jobs))
    method = f"direct/pruned x{jobs}" if jobs > 1 else "direct/pruned"
    return CountResult(a, B1, method, n, time.time() - t0)


# ---------------------------------------------------------------------------
# torsor counter


@lru_cache(maxsize=None)
def _sqrt_table(m: int) -> dict[int, list[int]]:
    """{c: the residues r mod m with r^2 = c (mod m)} over the squares c mod
    m, built in one pass.  One table per a1 <= sqrt(B) is kept, about B/2
    residues in all."""
    roots: dict[int, list[int]] = {}
    for r in range(m):
        roots.setdefault(r * r % m, []).append(r)
    return roots


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


def torsor_count(a: int, B, jobs: int = 1) -> CountResult:
    """Count U(Q)-points of height <= B through the torsor parameterization.
    Heights are integers, so this is the count at floor(B).

    jobs > 1 partitions the (a2, a3) outer pairs over worker processes and
    sums the partial weighted counts (deterministic merge).
    """
    check_nonsquare(a)
    t0 = time.time()
    B1 = math.floor(B)
    if B1 < 1:
        return CountResult(a, B1, "torsor", 0, time.time() - t0)
    parts = _fan_out(_torsor_positive, (a, B1), _a23_pairs(B1), jobs)
    weighted, visited = (sum(col) for col in zip(*parts))
    return CountResult(
        a, B1, f"torsor x{jobs}" if jobs > 1 else "torsor", 2 * weighted, time.time() - t0,
        {"weighted_positive": weighted, "visited": visited},
    )


def _a23_pairs(B1: int) -> list[tuple[int, int]]:
    return [
        (a2, a3)
        for a2 in range(1, _iroot(B1, 3) + 1)
        for a3 in range(1, math.isqrt(B1 // a2**3) + 1)
    ]


def _torsor_positive(a: int, B1: int, pairs) -> tuple[int, int]:
    """Sum of _slice_count over the admissible slices (a1..a4), those with
    gcd(a4, a3) = gcd(a1, a2 a3 a4) = 1, whose outer pair (a2, a3) is in
    `pairs`.  a1 and a4 run up to m3 <= B and m4 <= B; beyond, the slice's
    box is empty."""
    total = visited = 0
    for a2, a3 in pairs:
        for a4 in range(1, _iroot(B1 // (a2**3 * a3 * a3), 4) + 1):
            if math.gcd(a4, a3) != 1:
                continue
            for a1 in range(1, math.isqrt(B1 // (a2 * a3 * a3)) + 1):
                if math.gcd(a1, a2 * a3 * a4) == 1:
                    w, v = _slice_count(a, B1, a1, a2, a3, a4)
                    total += w
                    visited += v
    return total, visited


class _Slice:
    """One slice (a1..a4) of the torsor at integer height B1.

    A completion (a5, a6, a7) with a5, a6 >= 1, and a8 forced by the torsor
    equation a1 a8 = c - a7^2 with c = c_base a6^2, has height <= B iff
      M3 = m3 a5^3 <= B1,  M4 = m4 a5 a6^2 <= B1,  M5 = m5 a5^2 a6 <= B1
    (the (a5, a6) box), and
      M1 = a6 |c - a7^2| / a1 <= B1,  M2 = d7 a5 a6 |a7| <= B1
    (the a7 window).  Signs of a5, a6, a7 change no condition.
    """

    __slots__ = ("a1", "B1", "m3", "m4", "m5", "c_base", "d7")

    def __init__(self, a: int, B1: int, a1: int, a2: int, a3: int, a4: int):
        self.a1, self.B1 = a1, B1
        self.m3 = a1 * a1 * a2 * a3 * a3
        self.m4 = a2**3 * a3 * a3 * a4**4
        self.m5 = a1 * a2 * a2 * a3 * a3 * a4 * a4
        self.c_base = a * a2**4 * a3 * a3 * a4**6
        self.d7 = a2 * a3 * a4

    def a5_hi(self) -> int:
        return _iroot(self.B1 // self.m3, 3)

    def a6_hi(self, a5: int) -> int:
        return min(math.isqrt(self.B1 // (self.m4 * a5)), self.B1 // (self.m5 * a5 * a5))

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


def _slice_count(a: int, B1: int, a1: int, a2: int, a3: int, a4: int) -> tuple[int, int]:
    """Completions of one slice with a5, a6 >= 1 and a7 >= 0 (weight 2 if
    a7 > 0) under the remaining coprimality conditions, and the number of
    coprime (a5, a6) visited."""
    s = _Slice(a, B1, a1, a2, a3, a4)
    g5, g6, d7 = a2 * a4, a1 * a2 * a3, s.d7
    roots = _sqrt_table(a1)
    total = visited = 0
    for a5, a6s in s.box():
        if math.gcd(a5, g5) != 1:
            continue
        for a6 in a6s:
            if math.gcd(a6, g6 * a5) != 1:
                continue
            visited += 1
            c, L, U = s.window(a5, a6)
            if U < L:
                continue
            for r in roots.get(c % a1, ()):
                for a7 in range(L + (r - L) % a1, U + 1, a1):
                    if math.gcd(a7, d7) == 1 and math.gcd((c - a7 * a7) // a1, a5) == 1:
                        total += 2 if a7 > 0 else 1
    return total, visited


# ---------------------------------------------------------------------------
# Moebius slice identity


def _count_ap(lo: int, hi: int, r: int, m: int) -> int:
    """#{x in [lo, hi] : x = r (mod m)}."""
    if hi < lo:
        return 0
    first = lo + (r - lo) % m
    if first > hi:
        return 0
    return (hi - first) // m + 1


def moebius_slice_check(a: int, a1: int, a2: int, a3: int, a4: int, B) -> tuple[int, int]:
    """Both sides of the Moebius-inversion identity on one (a1..a4) slice."""
    check_nonsquare(a)
    from .theta import theta0

    if theta0(a1, a2, a3, a4) != 1:
        raise ValueError("slice requires theta0(a1..a4) = 1")
    B1 = math.floor(B)
    return _slice_lhs(a, a1, a2, a3, a4, B1), _slice_rhs(a, a1, a2, a3, a4, B1)


def _slice_lhs(a: int, a1: int, a2: int, a3: int, a4: int, B1: int) -> int:
    """Completions (a5, a6, a7, a8) with the torsor equation, the remaining
    coprimality conditions, and height <= B;  a5, a6 range over both signs."""
    return 4 * _slice_count(a, B1, a1, a2, a3, a4)[0]


def _slice_rhs(a: int, a1: int, a2: int, a3: int, a4: int, B1: int) -> int:
    """The Moebius-inverted side: sum over inversion data and the rho classes
    that eta(d58 a1; a) counts."""
    s = _Slice(a, B1, a1, a2, a3, a4)
    A5, A6 = s.a5_hi(), s.a6_hi(1)
    if A5 < 1 or A6 < 1:
        return 0

    total = 0
    for d56 in range(1, A6 + 1):
        mu56 = moebius(d56)
        if mu56 == 0 or math.gcd(d56, a1 * a2 * a3 * a4) != 1:
            continue
        for d58 in range(1, A5 + 1):
            mu58 = moebius(d58)
            if mu58 == 0 or math.gcd(d58, a2 * a3 * a4) != 1:
                continue
            rhos, mod_rho, gp = rho_classes(d58 * a1, a)
            if not rhos:
                continue
            lcm_5658 = math.lcm(d56, d58)
            rr = a2 * a2 * a3 * a4**3
            for d5 in squarefree_divisors(a2 * a4):
                b5 = d5 * lcm_5658
                if b5 > A5:
                    continue
                mu5 = moebius(d5)
                for d6 in squarefree_divisors(a1 * a2 * a3):
                    b6 = d6 * d56
                    if b6 > A6:
                        continue
                    mu56856 = mu56 * mu58 * mu5 * moebius(d6)
                    for d7 in squarefree_divisors(a2 * a3 * a4):
                        mu = mu56856 * moebius(d7)
                        b7 = d7 * mod_rho
                        for rho in rhos:
                            # gp | rho and gcd(d7, d58 a1) = 1 (theta0), so the
                            # congruences are compatible and the modulus is b7
                            gamma7, _ = crt([(0, gp * d7), (rho * rr % mod_rho, mod_rho)])
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
