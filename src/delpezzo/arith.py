"""Exact integer arithmetic: factorization, multiplicative functions, symbols, CRT.

Everything here works with plain Python integers and fractions.Fraction, so all
density bookkeeping downstream stays exact.  Factorizations are cached
process-wide, since the same small moduli are factored over and over by the
counting loops.
"""

from __future__ import annotations

import math
from functools import lru_cache

# Deterministic Miller-Rabin witness set, valid for n < 3.3 * 10^24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

_TRIAL_LIMIT = 10**6

# Elements per step of the O(samples) and O(8|a|) numpy passes of `predict`
# (archimedean.vol_SF, characters): a float64 temporary is then 512 KiB, and
# the passes hold whole only the arrays they return or reduce.
BLOCK = 1 << 16


def is_prime(n: int) -> bool:
    """Deterministic primality test (Miller-Rabin with fixed witnesses)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int) -> int:
    """One nontrivial factor of composite odd n (Brent's cycle variant)."""
    if n % 2 == 0:
        return 2
    seed = 1
    while True:
        y, c, m = seed, seed + 1, 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        seed += 2


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Exact factorization of |n| as (prime, exponent) pairs, primes
    increasing.  Raises for n = 0."""
    if n == 0:
        raise ValueError("cannot factorize 0")
    n = abs(n)
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    # trial division by 6k+-1 below the trial limit
    d = 7
    incr = (4, 2)  # 7, 11, 13, 17, ... alternating steps 4,2
    i = 0
    while d * d <= n and d < _TRIAL_LIMIT:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += incr[i]
        i ^= 1
    if n > 1:
        if d * d > n:
            out[n] = out.get(n, 0) + 1
        else:
            # large cofactor: split recursively, certify every reported prime
            stack = [n]
            while stack:
                m = stack.pop()
                if is_prime(m):
                    out[m] = out.get(m, 0) + 1
                    continue
                g = _pollard_brent(m)
                stack.append(g)
                stack.append(m // g)
    return tuple(sorted(out.items()))


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
    if n == 1:
        return 1
    f = factorize(n)
    if any(e > 1 for _, e in f):
        return 0
    return -1 if len(f) % 2 else 1


def omega(n: int) -> int:
    """Number of distinct prime divisors of |n| (0 for n = +-1)."""
    if abs(n) == 1:
        return 0
    return len(factorize(n))


def squarefree_divisors(n: int) -> list[int]:
    """All squarefree positive divisors of |n|, ascending."""
    divs = [1]
    if abs(n) != 1:
        for p, _ in factorize(n):
            divs += [d * p for d in divs]
    return sorted(divs)


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), the multiplicative extension of Legendre's symbol."""
    if a == 0 and n == 0:
        raise ValueError("kronecker(0, 0) undefined")
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -sign
    # factor out 2's of n: (a|2) = 0, 1, -1 for a even, a = +-1 (8), a = +-3 (8)
    if n % 2 == 0:
        if a % 2 == 0:
            return 0
        e = 0
        while n % 2 == 0:
            n //= 2
            e += 1
        if e % 2 == 1 and a % 8 in (3, 5):
            sign = -sign
    # now n odd positive: Jacobi symbol via reciprocity
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


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


@lru_cache(maxsize=None)
def primes_upto(n: int) -> tuple[int, ...]:
    """All primes <= n by sieve."""
    if n < 2:
        return ()
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return tuple(i for i in range(2, n + 1) if sieve[i])


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
