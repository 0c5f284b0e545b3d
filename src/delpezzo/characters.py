"""The quadratic character chi(n) = (a|n) on integers coprime to 2a, as a
periodic function mod 8|a|, and the conditionally convergent value L(1, chi).

L(1, chi) is estimated by the partial sum S_N over N = K*m terms, m = 8|a|,
a whole number of periods: the partial sums A(x) of chi are periodic with
mean zero, so Abel summation bounds the tail after N terms by 2*max|A|/(N+1).
S_N is evaluated in O(m) operations, one digamma pair per residue class,

    S_N = (1/m) sum_{r=1..m} chi(r) [psi(K + r/m) - psi(r/m)],

since sum_{j<K} 1/(r + j*m) = (psi(K + r/m) - psi(r/m))/m.  The digamma
function psi is evaluated in numpy: the recurrence psi(x) = psi(x + 1) - 1/x
shifts each argument to x >= 10, where the asymptotic series
psi(x) ~ log x - 1/(2x) - sum_k B_2k / (2k x^2k) is summed to k = 7.  The
term-by-term chunked sum of the same S_N is kept as the test oracle
(`_sum_upto`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arith import check_nonsquare, factorize


@dataclass
class EulerEstimate:
    """A numerical value for a conditionally convergent product/series,
    together with a rigorous-or-empirical truncation bound and the cut."""

    value: float
    bound: float
    cut: int


# B_2k / (2k) for k = 1..7, the coefficients of psi's asymptotic series in 1/x^2
_PSI_SERIES = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12)


def digamma(x) -> np.ndarray:
    """psi(x) for an array of x > 0: shifted up to x + n >= 10 by the
    recurrence, then the asymptotic series, whose first omitted term is below
    1e-16 there."""
    x = np.asarray(x, dtype=np.float64)
    n = np.maximum(np.ceil(10 - x), 0)
    shift = np.zeros_like(x)
    for k in range(9, -1, -1):  # sum_{k < n} 1/(x + k), smallest terms first
        shift += np.where(k < n, 1 / (x + k), 0.0)
    x = x + n
    inv2 = 1 / (x * x)
    series = np.zeros_like(x)
    for coeff in reversed(_PSI_SERIES):
        series = (series + coeff) * inv2
    return np.log(x) - 0.5 / x - series - shift


def _chi_table(a: int) -> np.ndarray:
    """chi(n) for n = 0..8|a|-1, as int8.

    For odd n > 0 coprime to a, kronecker(a, n) is the Jacobi symbol, so
    (a|n) = (sign a|n) (2|n)^v_2(a) prod_p (p|n)^v_p(a) over the odd p | a,
    with (-1|n) = -1 iff n = 3 (mod 4), (2|n) = -1 iff n = 3, 5 (mod 8) and,
    by reciprocity, (p|n) = (n mod p|p), negated iff p = n = 3 (mod 4).
    The Legendre symbol (.|p) is a table of the squares mod p.
    """
    n = np.arange(8 * abs(a), dtype=np.int64)
    table = (n % 2).astype(np.int8)  # gcd(n, 2) = 1
    n3mod4 = n % 4 == 3
    if a < 0:
        table[n3mod4] *= -1
    for p, e in factorize(abs(a)):
        if p == 2:
            if e % 2:
                table[(n % 8 == 3) | (n % 8 == 5)] *= -1
            continue
        r = n % p
        if e % 2:
            legendre = np.full(p, -1, dtype=np.int8)
            legendre[np.arange(p, dtype=np.int64) ** 2 % p] = 1
            legendre[0] = 0
            table *= legendre[r]
            if p % 4 == 3:
                table[n3mod4] *= -1
        else:
            table[r == 0] = 0
    return table


class CharacterChi:
    """chi(n) = kronecker(a, n) gated by gcd(n, 2a) = 1, periodic mod 8|a|."""

    def __init__(self, a: int):
        self.a = check_nonsquare(a)
        self.modulus = 8 * abs(a)
        self.table = table = _chi_table(a)  # indexed by n mod modulus
        if int(table.sum()) != 0:
            raise AssertionError("character table does not sum to zero over a period")
        self._running = np.cumsum(table[np.r_[1 : self.modulus, 0]])  # A(1..m)
        self.partial_max = int(np.max(np.abs(self._running)))

    def chi(self, n: int) -> int:
        if n < 1:
            raise ValueError("chi defined on positive integers")
        return int(self.table[n % self.modulus])

    def partial_sum(self, x: int) -> int:
        """A(x) = sum_{n <= x} chi(n).  Periodic in x since period sums vanish."""
        if x <= 0:
            return 0
        r = x % self.modulus
        return int(self._running[r - 1]) if r else 0

    def L1(self, tolerance: float) -> EulerEstimate:
        """L(1, chi) = sum chi(n)/n with tail bound 2*max|A|/(N+1) <= tolerance.
        _sum_periods costs O(modulus) for any N, so N is not capped."""
        if tolerance <= 0:
            raise ValueError("tolerance must be positive")
        m = self.modulus
        amax = self.partial_max
        need = int(2 * amax / tolerance) + 1
        N = ((need + m - 1) // m) * m  # whole periods
        value = self._sum_periods(N)
        return EulerEstimate(value, 2 * amax / (N + 1), N)

    def _sum_periods(self, N: int) -> float:
        """S_N = sum_{n <= N} chi(n)/n for N a multiple of the modulus, by digamma."""
        m = self.modulus
        r = np.arange(1, m + 1)
        chis = self.table[r % m].astype(np.float64)
        x = r / m
        return float(np.dot(chis, digamma(N // m + x) - digamma(x)) / m)

    def _sum_upto(self, N: int) -> float:
        """S_N term by term in numpy chunks (test oracle of _sum_periods)."""
        table = self.table.astype(np.float64)
        total = 0.0
        chunk = 8_000_000
        for start in range(1, N + 1, chunk):
            stop = min(start + chunk, N + 1)
            n = np.arange(start, stop, dtype=np.int64)
            total += float(np.sum(table[n % self.modulus] / n))
        return total
