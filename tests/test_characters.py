import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from delpezzo.arith import BLOCK, TESTBED, OutOfRange
from delpezzo.characters import A_MAX, CharacterChi, digamma
from oracles import chi_at, kronecker


def partial_sum(self: CharacterChi, x: int) -> int:
    """A(x) = sum_{n <= x} chi(n).  Periodic in x since period sums vanish."""
    if x <= 0:
        return 0
    return int(self.table[: x % self.modulus + 1].sum(dtype=np.int64))


def sum_upto(self: CharacterChi, N: int) -> float:
    """S_N term by term in numpy chunks (test oracle of _sum_periods)."""
    table = self.table.astype(np.float64)
    total = 0.0
    chunk = 8_000_000
    for start in range(1, N + 1, chunk):
        stop = min(start + chunk, N + 1)
        n = np.arange(start, stop, dtype=np.int64)
        total += float(np.sum(table[n % self.modulus] / n))
    return total


def test_chi_minus_one_is_mod4_character():
    c = CharacterChi(-1)
    for n in range(1, 50):
        if n % 2 == 0:
            assert chi_at(c, n) == 0
        elif n % 4 == 1:
            assert chi_at(c, n) == 1
        else:
            assert chi_at(c, n) == -1


def test_chi_basics():
    for a in TESTBED:
        c = CharacterChi(a)
        assert chi_at(c, 1) == 1
        assert c.modulus == 8 * abs(a)
        # at primes not dividing 2a it's the quadratic symbol
        for p in (3, 5, 7, 11, 13):
            if (2 * a) % p != 0:
                assert chi_at(c, p) == kronecker(a, p)
        # period sum vanishes and the table is genuinely periodic
        assert sum(chi_at(c, n) for n in range(1, c.modulus + 1)) == 0
        for n in range(1, 2 * c.modulus + 1):
            assert chi_at(c, n) == chi_at(c, n + c.modulus)


def literal_chi_table(a: int) -> np.ndarray:
    """CharacterChi's table by one kronecker call per n (the oracle of the
    reciprocity-built numpy table)."""
    m = 8 * abs(a)
    table = np.zeros(m, dtype=np.int8)
    for n in range(1, m + 1):
        if math.gcd(n, 2 * abs(a)) == 1:
            table[n % m] = kronecker(a, n)
    return table


def test_chi_table_equals_kronecker_loop_testbed():
    for a in TESTBED:
        assert np.array_equal(CharacterChi(a).table, literal_chi_table(a)), a


@settings(max_examples=8, deadline=None)
@given(a=st.integers(-10**5, 10**5).filter(lambda a: a < 0 or (a > 1 and math.isqrt(a) ** 2 != a)))
@example(a=-(3**3) * 7**2 * 11)  # odd and even exponents, p = 3 (mod 4)
@example(a=2**5 * 3 * 5**2)
@example(a=-(10**5))
def test_chi_table_equals_kronecker_loop_random(a):
    assert np.array_equal(CharacterChi(a).table, literal_chi_table(a))


def test_chi_completely_multiplicative():
    for a in (-1, 2, 12):
        c = CharacterChi(a)
        for n in range(1, 40):
            for m in range(1, 40):
                assert chi_at(c, n * m) == chi_at(c, n) * chi_at(c, m)


def test_partial_sums():
    c = CharacterChi(-1)
    assert partial_sum(c, c.modulus) == 0
    assert partial_sum(c, 0) == 0
    assert partial_sum(c, 3) == 0  # 1 + 0 - 1
    # against one cumulative sum over the period; 10007's period 80056 spans
    # two blocks
    for a in (-1, 12, 10007):
        c = CharacterChi(a)
        sums = np.cumsum(c.table[np.r_[1 : c.modulus, 0]])  # A(1..m)
        assert c.partial_max == int(np.max(np.abs(sums))), a
        for x in (1, 2, 17, BLOCK - 1, BLOCK, BLOCK + 1, c.modulus - 1, c.modulus):
            if x <= c.modulus:
                assert partial_sum(c, x) == partial_sum(c, x + 5 * c.modulus) == sums[x - 1], (a, x)


def test_partial_sum_bound_to_1e6():
    for a in TESTBED:
        c = CharacterChi(a)
        n = np.arange(1, 10**6 + 1, dtype=np.int64)
        sums = np.cumsum(c.table[n % c.modulus])
        assert int(np.max(np.abs(sums))) <= 8 * abs(a), a


def test_L1_leibniz():
    c = CharacterChi(-1)
    est = c.L1(1e-8)
    assert est.bound <= 1e-8
    assert abs(est.value - math.pi / 4) <= 1e-8


def test_L1_self_consistency_and_positivity():
    c = CharacterChi(2)
    e1 = c.L1(1e-5)
    e2 = c.L1(5e-6)
    assert abs(e1.value - e2.value) <= e1.bound + e2.bound
    for a in TESTBED:
        est = CharacterChi(a).L1(1e-4)
        assert est.value > 0, a


def test_L1_digamma_equals_term_sum():
    for a in TESTBED:
        c = CharacterChi(a)
        for tol in (1e-4, 1e-6):
            est = c.L1(tol)
            assert abs(est.value - sum_upto(c, est.cut)) <= 1e-12, (a, tol)


def test_digamma_matches_scipy():
    from scipy.special import digamma as scipy_digamma

    # every argument of _sum_periods, r/m and K + r/m, lies in this range
    x = np.geomspace(1 / (8 * 45), 1e8, 200_001)
    got, want = digamma(x), scipy_digamma(x)
    # psi has its zero at x0 = 1.46163...; near it the shifted sum, a
    # difference of two numbers near 2.4, is accurate only absolutely
    near_zero = np.abs(x - 1.4616321449683622) < 0.3
    rel = np.abs(got - want)[~near_zero] / np.abs(want[~near_zero])
    assert rel.max() <= 4e-15
    assert np.abs(got - want)[near_zero].max() <= 2e-15


def test_digamma_bits_equal_ten_shift_passes():
    from delpezzo.characters import _PSI_SERIES

    def ten_passes(x):  # digamma with the shift loop always run k = 9..0
        n = np.maximum(np.ceil(10 - x), 0)
        shift = np.zeros_like(x)
        for k in range(9, -1, -1):
            shift += np.where(k < n, 1 / (x + k), 0.0)
        x = x + n
        inv2 = 1 / (x * x)
        series = np.zeros_like(x)
        for coeff in reversed(_PSI_SERIES):
            series = (series + coeff) * inv2
        return np.log(x) - 0.5 / x - series - shift

    rng = np.random.default_rng(4)
    for x in (
        1 - rng.random(100_000),  # (0, 1]
        np.array([1e-300, 0.5, 1.0]),
        np.geomspace(10, 1e7, 100_001),
        10 + rng.random(1000),
    ):
        assert np.array_equal(digamma(x), ten_passes(x))


@pytest.mark.parametrize(
    "a, exact",
    [
        (-1, math.pi / 4),
        (2, math.log(1 + math.sqrt(2)) / math.sqrt(2)),
        (-2, math.pi / (2 * math.sqrt(2))),
        # L(1, chi_5) = 2 log(golden ratio)/sqrt(5), times the removed factor at 2
        (5, 1.5 * 2 * math.log((1 + math.sqrt(5)) / 2) / math.sqrt(5)),
    ],
)
def test_L1_closed_forms(a, exact):
    est = CharacterChi(a).L1(1e-7)
    assert abs(est.value - exact) <= est.bound, (est.value - exact, est.bound)


def _sum_periods_whole(c: CharacterChi, N: int) -> float:
    """S_N by the digamma formula summed as one dot product over the whole
    period: the reference of the blocked sum.  digamma works elementwise, so
    its terms are formed in slices to hold memory down."""
    m = c.modulus
    r = np.arange(1, m + 1)
    chis = c.table[r % m].astype(np.float64)
    terms = np.empty(m)
    for s in range(0, m, 10**6):
        x = r[s : s + 10**6] / m
        terms[s : s + 10**6] = digamma(N // m + x) - digamma(x)
    return float(np.dot(chis, terms) / m)


@pytest.mark.parametrize("a", [-1000003, 10007])
def test_blocked_L1_equals_whole_array_sum(a):
    c = CharacterChi(a)
    est = c.L1(1e-7)
    assert abs(est.value - _sum_periods_whole(c, est.cut)) <= 1e-13


def test_L1_memory_is_the_table_and_blocks():
    # CharacterChi holds the int8 table, 8|a| bytes, and while it is built
    # a Legendre table of p <= |a| bytes for the prime p = |a|.  Every other
    # array is BLOCK entries long, and at most 16 int64/float64 ones are
    # alive at once (the residues, chi, r/m, K + r/m and one digamma result
    # beside the other digamma's arguments, shift, series and temporaries).
    # Passes over the whole period take about 780 MB.
    a = -1000003
    CharacterChi(-3).L1(1e-7)  # imports and first-call set-up outside the trace
    tracemalloc.start()
    try:
        CharacterChi(a).L1(1e-7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9 * abs(a) + 16 * 8 * BLOCK, peak


def test_a_beyond_the_limit_rejected():
    for a in (A_MAX + 1, -(A_MAX + 1), 1000000000039):
        with pytest.raises(OutOfRange, match="limit"):
            CharacterChi(a)
