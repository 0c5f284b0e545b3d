import math
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delpezzo.arith import BLOCK, TESTBED, CounterMismatch, Estimate, factorize, legendre, primes_upto
from delpezzo.characters import CharacterChi
from delpezzo.constant import L1_TOLERANCE, _prime_segments, compare, finite_product, predict_constant
from delpezzo.local_densities import omega_p, omega_poly
from oracles import chi_at

# the oracles below sieve the same ranges for every a
_primes = lru_cache(maxsize=None)(primes_upto)


def _prime_table(chi: CharacterChi, cut: int):
    """(primes p <= cut, chi(p) from the character table as float64, the
    primes dividing 2a)."""
    bad = [p for p, _ in factorize(2 * chi.a)]
    ps = np.array(_primes(cut), dtype=np.int64)
    return ps, chi.table[ps % chi.modulus].astype(np.float64), bad


def default_finite_product(a: int, prime_cut: int):
    """finite_product with chi and L(1, chi) built as predict_constant builds them."""
    chi = CharacterChi(a)
    return finite_product(chi, prime_cut, chi.L1(L1_TOLERANCE))


def naive_partial_product(a: int, cut: int) -> float:
    """The raw conditionally convergent prod_{p <= cut} omega_p (slow route)."""
    prod = 1.0
    for p in primes_upto(cut):
        prod *= float(omega_p(p, a))
    return prod


def naive_product_curve(a: int, cut: int):
    """(primes, running products of omega_p) in float64, vectorized away from
    p | 2a, for studying the conditional oscillation at large cuts."""
    ps, chis, bad = _prime_table(CharacterChi(a), cut)
    factors = omega_poly(ps, chis)
    for p in bad:
        factors[ps == p] = float(omega_p(p, a))
    return ps, np.cumprod(factors)


def naive_product_smoothed(a: int, cut: int) -> float:
    """Cesaro-style average of the conditional partial products over the last
    stretch of primes (one chi-period worth of residues)."""
    ps, curve = naive_product_curve(a, cut)
    window = max(1000, len(ps) // 10)
    return float(np.mean(curve[-window:]))


def test_alpha_exact_in_breakdown():
    f = predict_constant(-1, prime_cut=500)
    assert f["alpha"] == float(Fraction(1, 1728))
    assert f["c"] > 0
    assert f["omega_inf"] > 0 and f["finite_product"] > 0


def test_predict_builds_one_character(monkeypatch):
    # the chi table costs O(|a|) kronecker symbols; L(1, chi) and the Euler
    # product read the one table that predict_constant builds
    built, passed = [], []
    init = CharacterChi.__init__

    def counted(self, a):
        built.append(self)
        init(self, a)

    def spied(chi, prime_cut, L1):
        passed.append(chi)
        return finite_product(chi, prime_cut, L1)

    monkeypatch.setattr(CharacterChi, "__init__", counted)
    monkeypatch.setattr("delpezzo.constant.finite_product", spied)
    predict_constant(-7, prime_cut=500)
    assert len(built) == len(passed) == 1 and passed[0] is built[0] and built[0].a == -7


def test_finite_product_positive_factors():
    fp = default_finite_product(17, 300)
    assert fp.value > 0 and fp.bound >= 0


def test_finite_product_cut_floor():
    with pytest.raises(ValueError):
        default_finite_product(-1, 50)


def _finite_product_whole(a: int, prime_cut: int, L1: Estimate, chi: CharacterChi):
    """finite_product's (value, bound) with one pass over whole arrays of the
    primes up to 2 prime_cut and chi(p) read from the character table: the
    reference the segmented pass matches bit for bit."""
    ps, chis, bad = _prime_table(chi, 2 * prime_cut)
    factors = omega_poly(ps, chis) * (1 - chis / ps)
    factors[np.isin(ps, bad)] = 1.0
    curve = np.cumprod(factors)
    prod = float(curve[-1])
    at_cut = float(curve[np.searchsorted(ps, prime_cut, side="right") - 1])
    head = 1.0
    for p in bad:
        head *= float(omega_p(p, a))
    doubling = abs(prod - at_cut) * head * abs(L1.value)
    return head * L1.value * prod, doubling + head * prod * L1.bound


def test_finite_product_blocks_give_the_whole_array_bits():
    # the cut's prime last in the first segment, first in the second, a
    # doubled range whose last segment is one integer and holds no prime,
    # and doubled ranges that span 2 and 16 segments
    segment = 8 * BLOCK
    below = _primes(segment - 1)
    last, first = below[-1], _primes(2 * segment)[len(below)]
    for a in TESTBED:
        chi = CharacterChi(a)
        L1 = chi.L1(1e-6)
        for cut in (100, last, first, segment // 2, 10**5, 10**6):
            fp = finite_product(chi, cut, L1)
            assert (fp.value, fp.bound) == _finite_product_whole(a, cut, L1, chi), (a, cut)


def test_finite_product_memory_is_of_order_block():
    # A segment holds the sieve's 8 BLOCK bools and the base primes up to
    # sqrt(2 cut), then about a dozen arrays of its fewer than BLOCK primes:
    # the primes, their residues mod 8|a|, chi(p) as int8 and as float64,
    # omega_poly's temporaries, the factors and the running product.
    # Whole-array passes over the 148933 primes below 2 * 10^6 took 12 MB,
    # and the tuple of primes below 2 * 10^7 takes 46 MB.
    a, cut = 12, 10**7
    chi = CharacterChi(a)
    L1 = chi.L1(1e-6)
    finite_product(chi, 100, L1)
    tracemalloc.start()
    try:
        finite_product(chi, cut, L1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 8 * BLOCK, peak


@pytest.mark.parametrize("n", sorted({
    *(k * 8 * BLOCK + d for k in (1, 2, 3) for d in (-1, 0, 1)),  # at the segments' edges
    *(q * q for q in (2, 3, 11, 359, 509, 1021)),  # squares of base primes
    2, 3, 100,
}))
def test_prime_segments_are_the_primes(n):
    segments = list(_prime_segments(n))
    assert all(len(ps) and ps.dtype == np.int64 for ps in segments)
    assert np.concatenate(segments).tolist() == list(primes_upto(n))


ODD_PRIMES = np.array(_primes(2 * 10**5)[1:], dtype=np.int64)


def _assert_table_is_legendre(a):
    # finite_product reads chi(p) at the primes from the table
    chi = CharacterChi(a)
    got = chi.table[ODD_PRIMES % chi.modulus]
    assert got.tolist() == [legendre(a, p) for p in ODD_PRIMES.tolist()], a


@pytest.mark.parametrize("a", [*TESTBED, 1000003, -1000003, 999983])
def test_chi_table_is_legendre_at_odd_primes(a):
    _assert_table_is_legendre(a)


def _nonsquare(a: int) -> bool:
    return a < 0 or (a > 1 and math.isqrt(a) ** 2 != a)


@settings(max_examples=10, deadline=None)
@given(st.integers(-10**5, 10**5).filter(_nonsquare), st.sampled_from(_primes(10**5)[1:]))
def test_chi_table_is_legendre_on_a_and_its_multiples(a, p):
    # a itself, and the multiple of p nearest a toward 0 (or p), where (a|p) = 0
    _assert_table_is_legendre(a)
    multiple = abs(a) // p * p * (-1 if a < 0 else 1) or p
    if _nonsquare(multiple):
        _assert_table_is_legendre(multiple)


def test_finite_product_stability_under_doubling():
    for a in (-1, 5):
        f1 = default_finite_product(a, 1000)
        f2 = default_finite_product(a, 2000)
        assert abs(f1.value / f2.value - 1) < 0.01, a
        assert abs(f1.value - f2.value) <= f1.bound + f2.bound


def test_splitting_vs_naive_partial_product():
    # the raw conditional product oscillates toward the same value
    a = -1
    fp = default_finite_product(a, 4000)
    naive = naive_partial_product(a, 100_000)
    assert abs(naive / fp.value - 1) < 0.01


def test_splitting_vs_smoothed_naive_at_1e7():
    fp = default_finite_product(-1, 10_000)
    nv = naive_product_smoothed(-1, 10**7)
    assert abs(nv / fp.value - 1) < 1e-3


def test_predict_constant_assembly():
    f = predict_constant(2, prime_cut=800)
    assert f["rho_field"] == 1.0
    assert abs(f["c"] - f["alpha"] * f["omega_inf"] * f["finite_product"]) < 1e-15
    assert f["omega_inf_rel_gap"] < 1e-3


def test_compare_rows():
    rows = compare(-1, [50, 100, 200], prime_cut=500)
    assert [r["B"] for r in rows] == [50.0, 100.0, 200.0]
    for r in rows:
        assert r["count"] >= 0 and r["prediction"] > 0
        assert math.isfinite(r["ratio"]) and r["ratio"] > 0
    # ratio varies slowly under doubling
    assert abs(rows[2]["ratio"] / rows[1]["ratio"] - 1) < 0.5


def test_compare_detects_mismatch(monkeypatch):
    import delpezzo.counting as counting
    import delpezzo.constant as constant

    real = counting.torsor_count

    def broken(a, B, **kw):
        r = real(a, B, **kw)
        return r._replace(count=r.count + 1)

    monkeypatch.setattr(constant, "torsor_count", None, raising=False)
    monkeypatch.setattr(counting, "torsor_count", broken)
    with pytest.raises(CounterMismatch):
        compare(-1, [20], prime_cut=500)


def test_omega_good_is_exact_omega_p():
    # omega_p is omega_poly at r_a(p), so at the good primes, where the Euler
    # product evaluates omega_poly at chi(p), this checks chi(p) = r_a(p)
    for a in TESTBED:
        chi = CharacterChi(a)
        for p in primes_upto(2000):
            if (2 * a) % p:
                x = chi_at(chi, p)
                pair = 1 - Fraction(x, p)
                assert omega_poly(Fraction(p), x) * pair == omega_p(p, a) * pair, (a, p)


def test_finite_product_matches_exact_loop():
    for a in TESTBED:
        chi = CharacterChi(a)
        L1 = chi.L1(1e-6)
        bad = {p for p, _ in factorize(2 * a)}
        prod = 1.0
        for p in primes_upto(2000):
            if p in bad:
                prod *= float(omega_p(p, a))
            else:
                prod *= float(omega_p(p, a)) * (1 - chi_at(chi, p) / p)
        fp = finite_product(chi, 1000, L1)
        assert abs(fp.value / (prod * L1.value) - 1) <= 1e-13, a
