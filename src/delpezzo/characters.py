"""The quadratic character chi(n) = (a|n), the Kronecker symbol, on integers
coprime to 2a, as a periodic function mod 8|a|, and the conditionally
convergent value L(1, chi).

L(1, chi) is estimated by the partial sum S_N over N = K*m terms, m = 8|a|,
a whole number of periods: the partial sums A(x) of chi are periodic with
mean zero, so Abel summation bounds the tail after N terms by 2*max|A|/(N+1).
S_N is evaluated in O(m) operations, one digamma pair per residue class,

    S_N = (1/m) sum_{r=1..m} chi(r) [psi(K + r/m) - psi(r/m)],

since sum_{j<K} 1/(r + j*m) = (psi(K + r/m) - psi(r/m))/m.  The digamma
function psi is evaluated in numpy: the recurrence psi(x) = psi(x + 1) - 1/x
shifts a whole array by one count, to x >= 10, where the asymptotic series
psi(x) ~ log x - 1/(2x) - sum_k B_2k / (2k x^2k) is summed to k = 7.  The
term-by-term chunked sum of the same S_N is its test oracle (`sum_upto` in
tests/test_characters.py).  The table, its partial sums and S_N are built and summed
BLOCK residues at a time, so only the int8 table is O(|a|) in memory.
"""

from __future__ import annotations

import math

import numpy as np

from .arith import BLOCK, Estimate, OutOfRange, check_nonsquare, factorize


# The largest |a| served.  The int8 table holds 8|a| bytes and a Legendre
# table up to |a| more, and every other array is BLOCK entries long, so a
# `predict` at a = -9999991 peaks at 121 MB of RSS, 80 MB of it the table,
# and takes about 7 s (2-core Xeon VM).
A_MAX = 10**7


def check_a_limit(a: int) -> None:
    """Raise OutOfRange if |a| > A_MAX: the character table is not built there."""
    if abs(a) > A_MAX:
        raise OutOfRange(f"|a| = {abs(a)} exceeds the character table's limit {A_MAX}")


# B_2k / (2k) for k = 1..7, the coefficients of psi's asymptotic series in 1/x^2
_PSI_SERIES = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12)


def digamma(x) -> np.ndarray:
    """psi(x) for an array of x > 0: the whole array shifted up by one count
    n, so that x + n >= 10, by the recurrence, then the asymptotic series,
    whose first omitted term is below 1e-16 there."""
    x = np.asarray(x, dtype=np.float64)
    n = max(0, math.ceil(10 - x.min()))
    shift = np.zeros_like(x)
    for k in range(n - 1, -1, -1):  # sum_{k < n} 1/(x + k), smallest terms first
        shift += 1 / (x + k)
    x = x + n
    inv2 = 1 / (x * x)
    series = np.zeros_like(x)
    for coeff in reversed(_PSI_SERIES):
        series = (series + coeff) * inv2
    return np.log(x) - 0.5 / x - series - shift


def _legendre(p: int) -> np.ndarray:
    """(n|p) for n = 0..p-1 as int8, p an odd prime: the squares mod p."""
    legendre = np.full(p, -1, dtype=np.int8)
    for start in range(0, p, BLOCK):
        k = np.arange(start, min(start + BLOCK, p), dtype=np.int64)
        legendre[k * k % p] = 1
    legendre[0] = 0
    return legendre


def _chi_table(a: int) -> np.ndarray:
    """chi(n) for n = 0..8|a|-1, as int8, built BLOCK entries at a time.

    For odd n > 0 coprime to a, the Kronecker symbol is the Jacobi symbol, so
    (a|n) = (sign a|n) (2|n)^v_2(a) prod_p (p|n)^v_p(a) over the odd p | a,
    with (-1|n) = -1 iff n = 3 (mod 4), (2|n) = -1 iff n = 3, 5 (mod 8) and,
    by reciprocity, (p|n) = (n mod p|p), negated iff p = n = 3 (mod 4).
    The Legendre symbol (.|p) is a table of the squares mod p; at an even
    exponent only p | n matters.
    """
    m = 8 * abs(a)
    factors = [(p, e % 2, _legendre(p) if p > 2 and e % 2 else None) for p, e in factorize(abs(a))]
    table = np.empty(m, dtype=np.int8)
    for start in range(0, m, BLOCK):
        n = np.arange(start, min(start + BLOCK, m), dtype=np.int64)
        block = table[start : start + len(n)]
        block[:] = n % 2  # gcd(n, 2) = 1
        n3mod4 = n % 4 == 3
        if a < 0:
            block[n3mod4] *= -1
        for p, odd, legendre in factors:
            if p == 2:
                if odd:
                    block[(n % 8 == 3) | (n % 8 == 5)] *= -1
            elif odd:
                block *= legendre[n % p]
                if p % 4 == 3:
                    block[n3mod4] *= -1
            else:
                block[n % p == 0] = 0
    return table


class CharacterChi:
    """chi(n) = (a|n) gated by gcd(n, 2a) = 1, periodic mod 8|a|, for
    0 < |a| <= A_MAX."""

    def __init__(self, a: int):
        self.a = check_nonsquare(a)
        check_a_limit(a)
        self.modulus = m = 8 * abs(a)
        self.table = table = _chi_table(a)  # indexed by n mod modulus
        # max |A(x)| over a period, from a running sum carried over blocks
        # (chi(0) = 0, so the sums over n = 0..x are the A(x))
        total = amax = 0
        for start in range(0, m, BLOCK):
            run = np.cumsum(table[start : start + BLOCK], dtype=np.int64) + total
            amax = max(amax, int(np.abs(run).max()))
            total = int(run[-1])
        if total != 0:
            raise AssertionError("character table does not sum to zero over a period")
        self.partial_max = amax

    def L1(self, tolerance: float) -> Estimate:
        """L(1, chi) = sum chi(n)/n with tail bound 2*max|A|/(N+1) <= tolerance.
        _sum_periods costs O(modulus) for any N, so N is not capped."""
        if tolerance <= 0:
            raise ValueError("tolerance must be positive")
        m = self.modulus
        amax = self.partial_max
        need = int(2 * amax / tolerance) + 1
        N = ((need + m - 1) // m) * m  # whole periods
        value = self._sum_periods(N)
        return Estimate(value, 2 * amax / (N + 1), N)

    def _sum_periods(self, N: int) -> float:
        """S_N = sum_{n <= N} chi(n)/n for N a multiple of the modulus, by digamma."""
        m = self.modulus
        total = 0.0
        for start in range(1, m + 1, BLOCK):
            r = np.arange(start, min(start + BLOCK, m + 1))
            chis = self.table[r % m].astype(np.float64)
            x = r / m
            total += float(np.dot(chis, digamma(N // m + x) - digamma(x)))
        return total / m
