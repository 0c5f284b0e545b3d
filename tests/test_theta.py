import itertools
import math
from fractions import Fraction

import pytest

from delpezzo.arith import factorize, primes_upto, theta0, valuation
from delpezzo.eta import eta_bruteforce
from delpezzo.local_densities import r_a
from delpezzo.theta import theta1_factor_identity, theta1_local


def theta2_local(p: int, a: int, v: tuple[int, int, int]) -> Fraction:
    """The theta2 Euler factor at p for valuation pattern (v2, v3, v4)."""
    supp = frozenset(i + 2 for i, x in enumerate(v) if x != 0)
    one_minus = 1 - Fraction(1, p)
    if not supp:
        return one_minus**2 * (1 + (2 + r_a(p, a)) / p)
    if supp in ({3}, {4}):
        return one_minus**3
    if supp in ({2}, {2, 3}, {2, 4}):
        return one_minus**4
    return Fraction(0)


class FiniteEulerProduct:
    """An Euler product with finitely many exceptional factors and a generic
    rule elsewhere.  Exact over any finite prime cut; the full product over
    all primes converges only conditionally and is never materialized."""

    def __init__(self, exceptional: dict[int, Fraction], generic):
        self.exceptional = dict(exceptional)
        self.generic = generic

    def factor(self, p: int) -> Fraction:
        if p in self.exceptional:
            return self.exceptional[p]
        return self.generic(p)

    def value_over_cut(self, prime_cut: int) -> Fraction:
        out = Fraction(1)
        for p in primes_upto(prime_cut):
            out *= self.factor(p)
            if out == 0:
                break
        return out


def theta1(a: int, a1: int, a2: int, a3: int, a4: int) -> FiniteEulerProduct:
    """theta1(a1..a4) as a finite-exceptional Euler product."""
    if min(a1, a2, a3, a4) < 1:
        raise ValueError("arguments must be positive")
    exceptional = {}
    for p, _ in factorize(2 * a * a1 * a2 * a3 * a4):
        v = (valuation(p, a1), valuation(p, a2), valuation(p, a3), valuation(p, a4))
        exceptional[p] = theta1_local(p, a, v)
    return FiniteEulerProduct(exceptional, lambda p: theta1_local(p, a, (0, 0, 0, 0)))


def theta2(a: int, a2: int, a3: int, a4: int) -> FiniteEulerProduct:
    """theta2(a2, a3, a4) as a finite-exceptional Euler product."""
    if min(a2, a3, a4) < 1:
        raise ValueError("arguments must be positive")
    exceptional = {}
    for p, _ in factorize(2 * a * a2 * a3 * a4):
        v = (valuation(p, a2), valuation(p, a3), valuation(p, a4))
        exceptional[p] = theta2_local(p, a, v)
    return FiniteEulerProduct(exceptional, lambda p: theta2_local(p, a, (0, 0, 0)))


def theta1_average(a: int, a2: int, a3: int, a4: int, x: int):
    """(sum_{a1 <= x} theta1, theta2 * x), both exact over the cut of all
    primes <= max(x, primes of 2a*a2*a3*a4).

    The cut cancels in the ratio: primes beyond it contribute identical
    generic factors to both sides.
    """
    t2 = theta2(a, a2, a3, a4)
    cut = sorted(set(primes_upto(max(x, 2))).union(t2.exceptional))
    # the generic factors over the cut are common to every a1; per a1 its
    # exceptional factors (at the primes of 2a a1 a2 a3 a4, all in the cut)
    # replace the generic ones there
    generic = dict(zip(cut, map(theta1(a, 1, a2, a3, a4).generic, cut)))
    total = Fraction(0)
    for a1 in range(1, x + 1):
        t1 = theta1(a, a1, a2, a3, a4)
        total += math.prod((f / generic[p] for p, f in t1.exceptional.items()), start=Fraction(1))
    total *= math.prod(generic.values(), start=Fraction(1))
    return total, x * t2.value_over_cut(cut[-1])


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
