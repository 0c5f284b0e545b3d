import importlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from delpezzo.arith import TESTBED, kronecker, primes_upto, valuation
from delpezzo.local_densities import (
    _kappa_histogram,
    omega_p,
    omega_p_bruteforce,
    r_a,
    s_a,
    sum_kpk,
)


def test_r_a_cases():
    assert r_a(7, 5) == kronecker(5, 7)
    assert r_a(3, 3) == Fraction(-1, 3)
    # p = 2, even valuation goes through s_a
    assert r_a(2, 17) == 1 - (2 - s_a(17))


def test_s_a_values():
    assert s_a(17) == 2  # eta(2)=1, eta(4)=2, eta(8)=4
    assert s_a(5) == 1  # eta(8;5) = 0
    assert s_a(3) == Fraction(1, 2)  # eta(4;3) = 0
    with pytest.raises(ValueError):
        s_a(8)  # odd 2-adic valuation


def test_omega_p_examples():
    assert omega_p(2, 17) == Fraction(1, 2) ** 5 * Fraction(17, 4)
    assert omega_p(3, 6) == (1 - Fraction(1, 3)) ** 5 * (1 + Fraction(5, 3))
    assert omega_p(7, 3) == (1 - Fraction(1, 7)) ** 5 * (
        1 + Fraction(4, 7) + Fraction(1, 49)
    )


def test_r_a_lower_bound_and_omega_positivity():
    for a in TESTBED:
        for p in primes_upto(60):
            assert r_a(p, a) >= -1, (p, a)
            w = omega_p(p, a)
            assert w > 0
            if (2 * a) % p != 0:
                assert abs(w - 1) <= Fraction(7, p)


def test_bruteforce_oracle_small():
    for p, a in ((2, 3), (3, 12), (5, -4), (2, 12)):
        V = valuation(p, 4 * a) + 6
        bf = omega_p_bruteforce(p, a, V)
        assert bf.tail_bound is not None and bf.tail_bound > 0
        assert abs(omega_p(p, a) - bf.value) <= bf.tail_bound, (p, a)


def test_bruteforce_oracle_generic_prime():
    # p away from 2a: the chart integral must reproduce the table factor
    for p, a in ((7, 3), (11, -1), (13, 5)):
        bf = omega_p_bruteforce(p, a, valuation(p, 4 * a) + 6)
        assert abs(omega_p(p, a) - bf.value) <= bf.tail_bound, (p, a)


@settings(max_examples=40, deadline=None)
@given(
    p=st.sampled_from(primes_upto(13)),
    j=st.integers(0, 4),
    m=st.integers(1, 60),
    sign=st.sampled_from((-1, 1)),
)
def test_omega_p_within_oracle_tail_random(p, j, m, sign):
    # a = +-p^j m, at the oracle's smallest depth v_p(4a) + 4
    a = sign * p**j * m
    assume(a < 0 or math.isqrt(a) ** 2 != a)
    bf = omega_p_bruteforce(p, a, valuation(p, 4 * a) + 4)
    assert abs(omega_p(p, a) - bf.value) <= bf.tail_bound, (p, a)


def test_bruteforce_vmax_floor():
    with pytest.raises(ValueError):
        omega_p_bruteforce(2, 12, 3)


def test_bruteforce_reaches_depth_past_residue_tables():
    # depth v_p(4a) + 8 resolves kappa mod 13^8: a residue table would hold
    # 8.2e8 entries, the square-root tower a few roots per level
    a = 13**4 * 5
    bf = omega_p_bruteforce(13, a, valuation(13, 4 * a) + 8)
    assert abs(omega_p(13, a) - bf.value) <= bf.tail_bound


def test_oracles_use_no_case_table(monkeypatch):
    # the exhaustive oracles must not lean on the closed forms they check
    eta_module = importlib.import_module("delpezzo.eta")  # the package's `eta` is the function
    ld = importlib.import_module("delpezzo.local_densities")

    def case_table(*args):
        raise AssertionError("an oracle called a closed form")

    for module, name in ((eta_module, "eta_closed"), (ld, "eta_closed"), (ld, "omega_p"),
                         (ld, "r_a"), (ld, "s_a")):
        monkeypatch.setattr(module, name, case_table)
    for p, a in ((2, 17), (3, -18), (13, 13**4 * 5)):
        ld.omega_p_bruteforce(p, a, valuation(p, 4 * a) + 6)
        for k in range(1, 8):
            eta_module.eta_bruteforce(p**k, a)


def literal_kappa(p: int, a_unit: int, nmax: int) -> tuple[list[int], int]:
    """_kappa_histogram by a numpy scan of every unit mod p^nmax, dividing
    a_unit - u^2 by p until it is a unit (the oracle of the root tower)."""
    mod = p**nmax
    u = np.arange(mod, dtype=np.int64)
    u = u[u % p != 0]
    x = (a_unit - u * u) % mod
    v = np.zeros(len(x), dtype=np.int64)
    nz = x != 0
    v[~nz] = nmax  # exact multiples of p^nmax: kappa >= nmax
    while True:
        m = nz & (x % p == 0)
        if not m.any():
            break
        x[m] //= p
        v[m] += 1
    hist = [int(np.count_nonzero(v == j)) for j in range(nmax)]
    ge = int(np.count_nonzero(v == nmax))
    return hist, ge


# square and nonsquare units at every p, shallow, and each p at the deepest
# n with p^n <= 5e6
KAPPA_GRID = [
    (p, u, n) for p in (2, 3, 5, 7, 13) for u in (-1, 2, 17) if u % p for n in range(1, 6)
] + [(2, 17, 22), (3, -1, 14), (5, 2, 9), (7, -1, 7), (13, 2, 6), (13, 17, 6)]


@pytest.mark.parametrize("p, u, n", KAPPA_GRID)
def test_kappa_histogram_matches_residue_scan(p, u, n):
    assert _kappa_histogram(p, u, n) == literal_kappa(p, u, n)


def test_sum_kpk():
    assert sum_kpk(2, 0) == 2
    s = sum(Fraction(k, 3**k) for k in range(2, 120))
    assert abs(float(sum_kpk(3, 1) - s)) < 1e-12
    prev = None
    for n in range(0, 12):
        val = sum_kpk(3, n)
        assert val > 0
        if prev is not None:
            assert val < prev
        prev = val
