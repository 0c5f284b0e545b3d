import math
from fractions import Fraction

import numpy as np
import pytest

from delpezzo.arith import CounterMismatch, primes_upto
from delpezzo.characters import CharacterChi
from delpezzo.constant import (
    _prime_table,
    compare,
    finite_product,
    omega_good,
    predict_constant,
)
from delpezzo.local_densities import omega_p
from oracles import chi_at


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
    factors = omega_good(ps, chis)
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
    bd = predict_constant(-1, prime_cut=500)
    assert bd.alpha == Fraction(1, 1728)
    assert bd.c > 0
    assert bd.omega_inf.value > 0 and bd.finite_product.value > 0


def test_predict_builds_one_character(monkeypatch):
    # the chi table costs O(|a|) kronecker symbols; L(1, chi) and the Euler
    # product share one build
    builds = []
    init = CharacterChi.__init__

    def counted(self, a):
        builds.append(a)
        init(self, a)

    monkeypatch.setattr(CharacterChi, "__init__", counted)
    predict_constant(-7, prime_cut=500)
    assert builds == [-7]


def test_finite_product_positive_factors():
    fp = finite_product(17, 300)
    assert fp.value > 0 and fp.bound >= 0


def test_finite_product_cut_floor():
    with pytest.raises(ValueError):
        finite_product(-1, 50)


def test_finite_product_stability_under_doubling():
    for a in (-1, 5):
        f1 = finite_product(a, 1000)
        f2 = finite_product(a, 2000)
        assert abs(f1.value / f2.value - 1) < 0.01, a
        assert abs(f1.value - f2.value) <= f1.bound + f2.bound


def test_splitting_vs_naive_partial_product():
    # the raw conditional product oscillates toward the same value
    a = -1
    fp = finite_product(a, 4000)
    naive = naive_partial_product(a, 100_000)
    assert abs(naive / fp.value - 1) < 0.01


def test_splitting_vs_smoothed_naive_at_1e7():
    fp = finite_product(-1, 10_000)
    nv = naive_product_smoothed(-1, 10**7)
    assert abs(nv / fp.value - 1) < 1e-3


def test_predict_constant_assembly():
    bd = predict_constant(2, prime_cut=800)
    f = bd.factors()
    assert f["rho_field"] == 1.0
    assert abs(bd.c - float(bd.alpha) * bd.omega_inf.value * bd.finite_product.value) < 1e-15
    assert f["omega_inf_rel_gap"] < 1e-3


def test_compare_rows():
    bd = predict_constant(-1, prime_cut=500)
    rows = compare(-1, [50, 100, 200], breakdown=bd)
    assert [r.B for r in rows] == [50.0, 100.0, 200.0]
    for r in rows:
        assert r.count >= 0 and r.prediction > 0
        assert math.isfinite(r.ratio) and r.ratio > 0
    # ratio varies slowly under doubling
    assert abs(rows[2].ratio / rows[1].ratio - 1) < 0.5


def test_compare_detects_mismatch(monkeypatch):
    import delpezzo.counting as counting
    import delpezzo.constant as constant

    bd = predict_constant(-1, prime_cut=500)
    real = counting.torsor_count

    def broken(a, B, **kw):
        r = real(a, B, **kw)
        r.count += 1
        return r

    monkeypatch.setattr(constant, "torsor_count", None, raising=False)
    monkeypatch.setattr(counting, "torsor_count", broken)
    with pytest.raises(CounterMismatch):
        compare(-1, [20], breakdown=bd)


def test_omega_good_is_exact_omega_p():
    from delpezzo.arith import TESTBED

    for a in TESTBED:
        chi = CharacterChi(a)
        for p in primes_upto(2000):
            if (2 * a) % p:
                x = chi_at(chi, p)
                pair = 1 - Fraction(x, p)
                assert omega_good(Fraction(p), x) * pair == omega_p(p, a) * pair, (a, p)


def test_finite_product_matches_exact_loop():
    from delpezzo.arith import TESTBED, factorize

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
        fp = finite_product(a, 1000, L1)
        assert abs(fp.value / (prod * L1.value) - 1) <= 1e-13, a
