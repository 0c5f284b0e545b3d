"""Exact integer arithmetic: factorization, multiplicative functions, the
Legendre symbol, CRT; `Estimate`, a bounded number; the torsor's exponents and
coprimality conditions, their evaluation at a slice (`slice_monomials`,
`slice_coprime`) and the slice test `theta0`.

Everything here works with plain Python integers, so the counts and the
density bookkeeping built on it stay exact.  Factorizations are cached
process-wide, since the same small moduli are factored over and over by the
counting loops.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate, chain, compress, cycle
from typing import NamedTuple

# Elements per step of every large numpy pass: the O(samples) Monte Carlo
# (archimedean.vol_SF, leaves of at most BLOCK samples), the O(8|a|)
# character passes (characters), the Euler product's sieve (constant,
# segments of 8 BLOCK integers, so fewer than BLOCK primes each) and the
# direct counter's t-candidates (counting._pruned_pairs).  A float64
# temporary is then at most 128 KiB, so the dozen or so of them a step holds
# fit in a core's L2 cache, and the passes hold whole only the arrays they
# return or reduce.
BLOCK = 1 << 14


class Estimate(NamedTuple):
    """A value with a bound on its error: a series' or product's tail bound, a
    quadrature or Monte Carlo error estimate, or the p-adic oracle's exact tail
    bound.  cut is the truncation point of a series, the N terms of
    CharacterChi.L1; every other producer leaves it 0."""

    value: float
    bound: float
    cut: int = 0


class OutOfRange(ValueError):
    """A request beyond a limit the package serves, raised by that limit's one
    check (the `check_*` function beside it).  The CLI exits 2."""


class CounterMismatch(AssertionError):
    """The direct and the torsor count differ (`compare`, `count --method both`):
    the CLI exits 3 and stores nothing."""


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Exact factorization of |n| as (prime, exponent) pairs, primes
    increasing, by trial division with 2, 3, 5 and then 6k +- 1 up to
    sqrt(n): `predict` passes 2a, |a| <= characters.A_MAX, and every other
    caller small moduli.  Raises for n = 0."""
    if n == 0:
        raise ValueError("cannot factorize 0")
    n = abs(n)
    out = []
    for d in chain((2, 3, 5), accumulate(cycle((4, 2)), initial=7)):
        if d * d > n:
            break
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def valuation(p: int, n: int) -> int:
    """Largest e with p^e | n, for n != 0."""
    if n == 0:
        raise ValueError("valuation of 0 undefined")
    n = abs(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def moebius(n: int) -> int:
    """Moebius function: 0 on non-squarefree n, else (-1)^(number of primes)."""
    if n < 1:
        raise ValueError("moebius needs n >= 1")
    f = factorize(n)
    if any(e > 1 for _, e in f):
        return 0
    return -1 if len(f) % 2 else 1


def squarefree_divisors(n: int) -> list[int]:
    """All squarefree positive divisors of |n|, ascending."""
    divs = [1]
    for p, _ in factorize(n):
        divs += [d * p for d in divs]
    return sorted(divs)


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) for an odd prime p, by Euler's criterion."""
    r = pow(a, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def crt(residues: list[tuple[int, int]]) -> tuple[int, int] | None:
    """Simultaneous congruences x = r (mod m), with non-coprime moduli allowed.

    Returns (r*, m*) with m* = lcm of the moduli and 0 <= r* < m*, or None if
    the congruences are incompatible.
    """
    r0, m0 = 0, 1
    for r, m in residues:
        if m < 1:
            raise ValueError("moduli must be >= 1")
        g = math.gcd(m0, m)
        if (r - r0) % g != 0:
            return None
        lcm = m0 // g * m
        # x = r0 + m0*t with m0*t = r - r0 (mod m): solve t mod m/g
        t = ((r - r0) // g * pow(m0 // g, -1, m // g)) % (m // g) if m != g else 0
        r0 = (r0 + m0 * t) % lcm
        m0 = lcm
    return r0, m0


def primes_upto(n: int) -> tuple[int, ...]:
    """All primes <= n by sieve, for small n: the verify suites' ranges and
    the Euler product's base primes up to sqrt(2 prime_cut)."""
    if n < 2:
        return ()
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return tuple(compress(range(n + 1), sieve))


def ceil_sqrt(n: int) -> int:
    """Smallest integer s with s^2 >= n (n >= 0)."""
    s = math.isqrt(n)
    return s if s * s == n else s + 1


def check_nonsquare(a: int) -> int:
    """Return the surface parameter a; raise ValueError unless it is a nonzero
    nonsquare integer."""
    if a == 0 or (a > 0 and math.isqrt(a) ** 2 == a):
        raise ValueError(f"a = {a} must be a nonzero nonsquare integer")
    return a


# a-values exercising every branch: odd/even valuations at odd primes and at 2
TESTBED = (-5, -4, -2, -1, 2, 3, 5, 6, 8, 12, 17, 18, 45)

# The exponents of (a1, ..., a8) in psi's monomials x0..x4, one row each, and
# of the unit u = a2^2 a3 a4^3 a6 in the torsor equation a1 a8 + a7^2 = a u^2.
PSI_EXPONENTS = (
    (0, 0, 0, 0, 0, 1, 0, 1),
    (0, 1, 1, 1, 1, 1, 1, 0),
    (2, 1, 2, 0, 3, 0, 0, 0),
    (0, 3, 2, 4, 1, 2, 0, 0),
    (1, 2, 2, 2, 2, 1, 0, 0),
)
UNIT_EXPONENTS = (0, 2, 1, 3, 0, 1)


def slice_monomials(a1: int, a2: int, a3: int, a4: int) -> list[int]:
    """(d7, m3, m4, w): the a1..a4 columns of psi's rows x1, x2, x3 and of the
    unit, evaluated at the slice (a1..a4).  On the slice those rows are
    d7 a5 a6 a7, m3 a5^3 and m4 a5 a6^2, and u = w a6.  x4's row is left out:
    x4^2 = x2 x3, so its bound follows from those of x2 and x3."""
    # map stops after a4, so only a1..a4's columns are read.  A list, not
    # tuple() of a generator: over a torsor count that leaves freed 4-tuples
    # on CPython's free list, 140 kB that its tracemalloc test sees.
    return [math.prod(map(pow, (a1, a2, a3, a4), e)) for e in (*PSI_EXPONENTS[1:4], UNIT_EXPONENTS)]


# The torsor's coprimality conditions gcd(a_i, prod_{j in js} a_j) = 1, one row
# (i, js) each.  Every j is below i, so a row can be tested as soon as a_i is
# fixed: rows 2-4 decide whether a slice (a1..a4) is admissible (theta0), and
# rows 5-8 restrict its completions.
COPRIME = (
    (2, (1,)),
    (3, (1,)),
    (4, (1, 3)),
    (5, (2, 4)),
    (6, (1, 2, 3, 5)),
    (7, (2, 3, 4)),
    (8, (5,)),
)


def slice_coprime(a1: int, a2: int, a3: int, a4: int) -> list[int]:
    """[g2, ..., g8]: COPRIME's rows at the slice (a1..a4), g_i the product of
    the a_j with j in row i's js and j <= 4.  Rows 2-4 read only a_j with
    j < i, so g2..g4 are whole, and g_i is already the value at (a1, ...,
    a_(i-1), 1, ...).  For rows 5-8, g_i is the slice's part: the counter
    tests the a5..a8 entries in its own loops."""
    # plain loops: a comprehension per row took three times as long, and this
    # runs once per slice of a torsor count
    s = (0, a1, a2, a3, a4, 1, 1, 1, 1)
    out = []
    for _, js in COPRIME:
        g = 1
        for j in js:
            g *= s[j]
        out.append(g)
    return out


def theta0(a1: int, a2: int, a3: int, a4: int) -> int:
    """1 iff the slice (a1..a4) is admissible, COPRIME's rows 2-4 holding on
    it; else 0."""
    if min(a1, a2, a3, a4) < 1:
        raise ValueError("arguments must be positive")
    g2, g3, g4 = slice_coprime(a1, a2, a3, a4)[:3]
    return int(math.gcd(a2, g2) == 1 and math.gcd(a3, g3) == 1 and math.gcd(a4, g4) == 1)
