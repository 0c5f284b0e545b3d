import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delpezzo.arith import (
    ceil_sqrt,
    check_nonsquare,
    crt,
    factorize,
    legendre,
    moebius,
    primes_upto,
    squarefree_divisors,
    valuation,
)
from delpezzo.characters import A_MAX
from oracles import kronecker


def test_factorize_examples():
    assert tuple(factorize(12)) == ((2, 2), (3, 1))
    assert tuple(factorize(1)) == ()
    assert tuple(factorize(2147483647)) == ((2147483647, 1),)
    assert tuple(factorize(-45)) == ((3, 2), (5, 1))
    with pytest.raises(ValueError):
        factorize(0)


def _is_prime(p: int) -> bool:
    return p > 1 and all(p % d for d in range(2, math.isqrt(p) + 1))


def test_factorize_reconstructs():
    # up to the largest value a caller passes: 2a at |a| = A_MAX
    for n in list(range(1, 2000)) + [10**12 + 39, 2**31 - 1, 600851475143, 2 * 9999991, 2 * A_MAX]:
        f = factorize(n)
        assert math.prod(p**e for p, e in f) == n
        assert [p for p, _ in f] == sorted({p for p, _ in f})
        for p, e in f:
            assert e >= 1 and _is_prime(p), (n, p)
            assert (n // p**e) % p != 0, (n, p, e)


def test_moebius_examples():
    assert moebius(1) == 1
    assert moebius(6) == 1
    assert moebius(12) == 0


def test_moebius_convolution_identity():
    # sum_{d | n} mu(d) = [n == 1], checked by sieve up to 10^4
    N = 10**4
    acc = [0] * (N + 1)
    for d in range(1, N + 1):
        md = moebius(d)
        if md:
            for n in range(d, N + 1, d):
                acc[n] += md
    assert acc[1] == 1
    assert all(acc[n] == 0 for n in range(2, N + 1))


def test_legendre_is_kronecker_at_odd_primes():
    for p in primes_upto(200)[1:]:
        for a in range(-300, 301):
            assert legendre(a, p) == kronecker(a, p), (a, p)


def test_kronecker_examples():
    assert kronecker(5, 11) == 1
    assert kronecker(3, 9) == 0
    assert kronecker(-1, 3) == -1


def test_kronecker_vs_quadratic_residues():
    for a in (-5, -1, 2, 3, 12, 17):
        for p in primes_upto(200):
            if p == 2 or a % p == 0:
                continue
            squares = {x * x % p for x in range(1, p)}
            expected = 1 if a % p in squares else -1
            assert kronecker(a, p) == expected, (a, p)


def test_kronecker_vs_quadratic_residues_to_1e4():
    import numpy as np

    for a in (-5, 17):
        for p in primes_upto(10**4):
            if p == 2 or a % p == 0:
                continue
            x = np.arange(1, p, dtype=np.int64)
            expected = 1 if (a % p) in set((x * x % p).tolist()) else -1
            assert kronecker(a, p) == expected, (a, p)


@given(st.integers(-300, 300), st.integers(1, 100), st.integers(1, 100))
@settings(max_examples=200)
def test_kronecker_multiplicative_in_n(a, n, m):
    assert kronecker(a, n * m) == kronecker(a, n) * kronecker(a, m)


def test_valuation():
    assert valuation(2, 12) == 2
    assert valuation(3, 10) == 0
    assert valuation(2, 2**10 * 7) == 10


def test_crt_examples():
    assert crt([(0, 4), (2, 6)]) == (8, 12)
    assert crt([(1, 2), (0, 2)]) is None
    assert crt([(3, 5)]) == (3, 5)


@given(
    st.lists(
        st.tuples(st.integers(-50, 50), st.integers(1, 40)), min_size=1, max_size=4
    )
)
@settings(max_examples=300)
def test_crt_satisfies_all_congruences(congs):
    out = crt(congs)
    if out is None:
        # incompatible: brute-force confirms no solution below the lcm
        x = np.arange(math.lcm(*(m for _, m in congs)))
        solves = np.ones(len(x), dtype=bool)
        for r, m in congs:
            solves &= (x - r) % m == 0
        assert not solves.any()
    else:
        x, mod = out
        assert mod == math.lcm(*(m for _, m in congs))
        assert 0 <= x < mod
        assert all((x - r) % m == 0 for r, m in congs)


def test_squarefree_divisors():
    assert squarefree_divisors(12) == [1, 2, 3, 6]
    assert squarefree_divisors(1) == [1]


def test_ceil_sqrt():
    for n in range(200):
        s = ceil_sqrt(n)
        assert s * s >= n and (s - 1) * (s - 1) < n or n == 0


def test_check_nonsquare():
    for a in (12, -4, -1, 2):
        assert check_nonsquare(a) == a
    for a in (4, 0, 1, 45**2):
        with pytest.raises(ValueError):
            check_nonsquare(a)
