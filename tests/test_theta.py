import itertools
from fractions import Fraction

import pytest

from delpezzo.arith import primes_upto
from delpezzo.eta import eta_bruteforce
from delpezzo.local_densities import r_a
from delpezzo.theta import (
    FiniteEulerProduct,
    theta0,
    theta1,
    theta1_average,
    theta1_factor_identity,
    theta1_local,
    theta2,
    theta2_local,
)


def test_theta0():
    assert theta0(1, 1, 1, 1) == 1
    assert theta0(2, 1, 1, 2) == 0
    assert theta0(3, 5, 7, 11) == 1
    with pytest.raises(ValueError):
        theta0(0, 1, 1, 1)


def test_theta1_local_table():
    # generic factor at p = 3, a = -1 (eta(3;-1) = 0)
    assert theta1_local(3, -1, (0, 0, 0, 0)) == Fraction(8, 9)
    one_minus = lambda p: 1 - Fraction(1, p)
    for p in (3, 7, 11):
        assert theta1_local(p, -1, (0, 1, 0, 0)) == one_minus(p) ** 3
        assert theta1_local(p, -1, (0, 2, 3, 0)) == one_minus(p) ** 3
        assert theta1_local(p, -1, (0, 0, 2, 0)) == one_minus(p) ** 2
        assert theta1_local(p, -1, (0, 0, 0, 1)) == one_minus(p) ** 2
        assert theta1_local(p, -1, (1, 1, 0, 0)) == 0
        assert theta1_local(p, -1, (0, 0, 1, 1)) == 0


def test_theta2_local_table():
    one_minus = lambda p: 1 - Fraction(1, p)
    for p in (3, 5, 13):
        for a in (-1, 12):
            assert theta2_local(p, a, (0, 0, 0)) == one_minus(p) ** 2 * (
                1 + (2 + r_a(p, a)) / p
            )
            assert theta2_local(p, a, (1, 0, 0)) == one_minus(p) ** 4
            assert theta2_local(p, a, (0, 2, 0)) == one_minus(p) ** 3
            assert theta2_local(p, a, (0, 1, 1)) == 0


def test_theta2_vanishes_on_common_factor():
    t = theta2(-1, 1, 2, 2)  # gcd(a3, a4) = 2
    assert 0 in t.exceptional.values()
    assert t.value_over_cut(50) == 0


def test_factor_identity_spot_values():
    # p not dividing 2a, v = 0: both sides (1-1/p)(1+1/p-(1+chi(p))/p^2)
    for p, a in ((7, -1), (5, 3)):
        table, total, ok = theta1_factor_identity(p, a, (0, 0, 0, 0))
        assert ok
        chi = eta_bruteforce(p, a) - 1
        assert table == (1 - Fraction(1, p)) * (
            1 + Fraction(1, p) - Fraction(1 + chi, p * p)
        )
    # the hard branch: p = 2, a = 12, v = (2, 0, 0, 0)
    table, total, ok = theta1_factor_identity(2, 12, (2, 0, 0, 0))
    assert ok, (table, total)


def test_factor_identity_grid():
    for a in (-1, 2, 12, 18):
        for p in primes_upto(13):
            for v in itertools.product(range(3), repeat=4):
                table, total, ok = theta1_factor_identity(p, a, v)
                assert ok, (p, a, v, table, total)
                assert table >= 0


def test_theta1_finite_representation():
    t = theta1(-1, 6, 1, 1, 1)
    # exceptional primes are exactly those dividing 2a * a1..a4
    assert set(t.exceptional) == {2, 3}
    # generic rule matches the supp-empty factor
    assert t.factor(5) == theta1_local(5, -1, (0, 0, 0, 0))
    assert isinstance(t, FiniteEulerProduct)
    assert t.value_over_cut(7) == t.factor(2) * t.factor(3) * t.factor(5) * t.factor(7)


def test_theta1_average_trivial():
    s, pred = theta1_average(-1, 1, 1, 1, 0)
    assert s == 0 and pred == 0
    s1, pred1 = theta1_average(-1, 1, 1, 1, 1)
    # one term: theta1(1,...) over the cut; prediction theta2 over the cut
    t1 = theta1(-1, 1, 1, 1, 1)
    assert s1 == t1.value_over_cut(2)


def test_theta1_average_trend():
    s, pred = theta1_average(-1, 1, 1, 1, 2000)
    assert pred > 0
    assert abs(float(s / pred) - 1) < 0.05
    s2, pred2 = theta1_average(5, 2, 1, 1, 1500)
    assert abs(float(s2 / pred2) - 1) < 0.05
