import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from delpezzo.arith import TESTBED, factorize, primes_upto
from delpezzo.eta import eta, eta_bruteforce, eta_closed, rho_classes, root_tower


def literal_rho_classes(q: int, a: int) -> list[int]:
    """The classes eta(q; a) counts, by a Python loop over every residue mod
    q*g'/g (the oracle of rho_classes and its CRT of prime-power root towers).
    g' = prod_p p^ceil(v_p(g)/2) is the least d >= 1 with g | d^2."""
    g = math.gcd(q, abs(a))
    gp = next(d for d in range(1, g + 1) if d * d % g == 0)
    modulus = q // g * gp
    return [rho for rho in range(modulus) if (rho * rho - a) % q == 0 and math.gcd(rho, modulus) == gp]


def literal_eta(q: int, a: int) -> int:
    """eta(q; a) as the number of literal_rho_classes (the oracle of
    eta_bruteforce)."""
    return len(literal_rho_classes(q, a))


def test_worked_2adic_values():
    # squarefree a = 1 mod 8: eta(2)=1, eta(4)=2, eta(8..)=4
    assert eta_bruteforce(2, 17) == 1
    assert eta_bruteforce(4, 17) == 2
    assert eta_bruteforce(8, 17) == 4
    assert eta_bruteforce(16, 17) == 4
    # a = 5 mod 8 stops at the mod-8 obstruction
    assert eta_bruteforce(8, 5) == 0
    # p | a squarefree, k = 1
    assert eta_bruteforce(3, 6) == 1
    assert eta_bruteforce(3, 5) == 0


def test_closed_examples():
    assert eta_closed(7, 3, 2) == 1 + 1  # 3^2 = 2 mod 7
    assert eta_closed(3, 5, 18) == 0  # 18/9 = 2 is a nonresidue mod 3
    assert eta_closed(5, 1, 10) == 1


def test_eta_multiplicative_examples():
    assert eta(1, 7) == 1
    assert eta(24, 17) == 0  # the 3-adic factor vanishes for 17 = 2 mod 3
    assert eta(24, 17) == eta(8, 17) * eta(3, 17)
    # squarefree coprime q with a a QR at every factor: 2^(number of primes)
    assert eta(35, 11) == 2 ** len(factorize(35))  # 11 is a QR mod 5 and mod 7


def test_squarefree_2adic_table():
    # for squarefree a: eta(2^k; a) is 1, 2, 4 as k = 1, 2, >= 3 with
    # a = 1 mod 2, 4, 8 respectively, else 0 (beyond the trivial window)
    squarefree_odd = (-5, -1, 3, 5, 17)
    for a in squarefree_odd:
        assert eta_closed(2, 1, a) == 1
        assert eta_closed(2, 2, a) == (2 if a % 4 == 1 else 0)
        for k in (3, 5, 8):
            assert eta_closed(2, k, a) == (4 if a % 8 == 1 else 0), (a, k)


def test_closed_form_needs_no_scan(monkeypatch):
    # eta_closed is a case table at every prime power, p = 2 included: it
    # must agree with the residue scan without calling it
    import delpezzo.eta as eta_module

    want = {(p, k, a): eta_bruteforce(p**k, a) for a in TESTBED for p in primes_upto(53) for k in range(1, 11)}

    def no_scan(q, a):
        raise AssertionError("eta_closed called the residue scan")

    eta_closed.cache_clear()
    monkeypatch.setattr(eta_module, "rho_classes", no_scan)
    for (p, k, a), n in want.items():
        assert eta_closed(p, k, a) == n, (p, k, a)


def test_multiplicativity_vs_bruteforce():
    pairs = [(q1, q2) for q1 in range(2, 61) for q2 in range(2, 61) if math.gcd(q1, q2) == 1]
    for a in (-1, 12, 17):
        for q1, q2 in pairs[::7]:
            assert eta(q1 * q2, a) == eta_bruteforce(q1, a) * eta_bruteforce(q2, a)


def test_middle_range_upper_bound_at_2():
    # at p = 2 with even v, the window v < k <= v_2(4a)+1 obeys
    # eta(2^k) <= 2^(k-v) - 2^(k-v-1)
    for a in (17, 5, 3, 12, 8 * 9):
        v = 0
        aa = a
        while aa % 2 == 0:
            aa //= 2
            v += 1
        if v % 2:
            continue
        for k in range(v + 1, v + 4):
            assert eta_closed(2, k, a) <= 2 ** (k - v) - 2 ** (k - v - 1), (a, k)


def test_global_bound():
    # eta(q; a) <= 8 * 2^omega(q)
    for a in TESTBED:
        for q in range(1, 400):
            assert eta(q, a) <= 8 * 2 ** len(factorize(q)), (q, a)


def test_summation_trend():
    # sum_{q <= t} eta(q; a) (1+C)^omega(q) stays O(t log^C t): check the
    # ratio against t (log t)^C is bounded along decades (trend only)
    import numpy as np

    a, C = -1, 1.0
    T = 10**6
    spf = np.zeros(T + 1, dtype=np.int64)
    for p in range(2, T + 1):
        if spf[p] == 0:
            spf[p::p][spf[p::p] == 0] = p
    vals = np.zeros(T + 1)
    vals[1] = 1.0
    for q in range(2, T + 1):
        p = int(spf[q])
        m, k = q, 0
        while m % p == 0:
            m //= p
            k += 1
        vals[q] = vals[m] * eta_closed(p, k, a) * (1 + C if k else 1)
        # (1+C)^omega factor: one factor of (1+C) per distinct prime
    csum = np.cumsum(vals)
    ratios = [csum[t] / (t * math.log(t) ** C) for t in (10**3, 10**4, 10**5, 10**6)]
    assert max(ratios) / min(ratios) < 3.0, ratios


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from(primes_upto(53)),
    k=st.integers(1, 8),
    a=st.integers(-3000, 3000).filter(lambda a: a < 0 or math.isqrt(a) ** 2 != a),
)
def test_eta_closed_matches_bruteforce_random(p, k, a):
    assert eta_closed(p, k, a) == eta_bruteforce(p**k, a)


@settings(max_examples=60, deadline=None)
@given(
    q=st.one_of(st.integers(2, 2 * 10**5), st.sampled_from([7**7, 5**8 * 2, 3**12, 2**19])),
    a=st.integers(1, 10**12),
    sign=st.sampled_from([1, -1]),
    shared=st.integers(0, 12),
)
@example(q=7**7, a=7**3 * 3, sign=1, shared=0)
@example(q=5**8 * 2, a=5**5 * 2 * 3, sign=-1, shared=0)
def test_scan_matches_literal_loop(q, a, sign, shared):
    # `shared` moves a toward a large gcd with q, where g' and the
    # gcd-normalization matter; each prime power of q goes through the root
    # tower, and a composite q joins them by CRT
    a = sign * a * math.gcd(q, 210**shared)
    if a > 0 and math.isqrt(a) ** 2 == a:
        a = -a
    assert eta_bruteforce(q, a) == literal_eta(q, a)


def test_rho_classes_beyond_a_million_residues():
    # q = 2*3*5*7*11*13*17*19 and a = -2*11*17, so g = g' = 374 and the
    # modulus q*g'/g = q is far beyond any residue-by-residue scan
    q, a = 9699690, -374
    classes, modulus, gp = rho_classes(q, a)
    assert (modulus, gp, len(classes)) == (q, 374, 32)
    assert all((r * r - a) % q == 0 and math.gcd(r, modulus) == gp for r in classes)
    assert len(set(classes)) == len(classes)
    assert len(classes) == eta(q, a) == math.prod(eta_bruteforce(p**k, a) for p, k in factorize(q))


@settings(max_examples=100, deadline=None)
@given(
    q=st.integers(6, 2 * 10**4).filter(lambda q: len(factorize(q)) > 1),
    a=st.integers(1, 10**6),
    sign=st.sampled_from([1, -1]),
    shared=st.integers(0, 12),
)
def test_eta_closed_product_matches_bruteforce_at_composite_q(q, a, sign, shared):
    # q has two or more primes; `shared` gives a a factor in common with q
    a = sign * a * math.gcd(q, 210**shared)
    if a > 0 and math.isqrt(a) ** 2 == a:
        a = -a
    assert eta(q, a) == eta_bruteforce(q, a)


@settings(max_examples=100, deadline=None)
@given(
    q=st.integers(1, 2 * 10**4),
    a=st.integers(1, 10**6),
    sign=st.sampled_from([1, -1]),
    shared=st.integers(0, 12),
)
@example(q=2**14, a=1, sign=-1, shared=12)
@example(q=3**4 * 5**2, a=7, sign=1, shared=12)
def test_classes_lift_to_every_root(q, a, sign, shared):
    # the torsor counter walks the classes in place of all the roots mod q:
    # lifted by their modulus m they must be exactly the roots, the gcd
    # normalization rejecting none; `shared` gives a a factor in common with q
    a = sign * a * math.gcd(q, 210**shared)
    if a > 0 and math.isqrt(a) ** 2 == a:
        a = -a
    classes, m, _ = rho_classes(q, a)
    lifted = sorted(rho + j * m for rho in classes for j in range(q // m))
    assert lifted == [r for r in range(q) if (r * r - a) % q == 0]


PRIME_POWERS = [(p, k) for p in primes_upto(53) for k in range(1, 18) if p**k <= 2 * 10**5]


@settings(max_examples=80, deadline=None)
@given(
    pk=st.sampled_from(PRIME_POWERS),
    m=st.integers(1, 10**4),
    j=st.one_of(st.just(0), st.integers(1, 20)),
    sign=st.sampled_from([1, -1]),
)
@example(pk=(2, 17), m=1, j=20, sign=1)
@example(pk=(3, 11), m=2, j=6, sign=-1)
@example(pk=(53, 3), m=7, j=3, sign=1)
def test_root_tower_classes_match_literal_loop(pk, m, j, sign):
    # a = +-m p^j: half the draws put a high power of p in a, where g' and the
    # gcd-normalization decide which roots count
    p, k = pk
    a = sign * m * p**j
    assert rho_classes(p**k, a)[0] == literal_rho_classes(p**k, a)


def test_root_tower_levels_are_all_roots():
    for p, k, a in ((2, 9, 17), (3, 6, -18), (5, 5, 5**4 * 2), (7, 4, 0)):
        for j, level in enumerate(root_tower(p, k, a)):
            assert sorted(level) == [r for r in range(p**j) if (r * r - a) % p**j == 0], (p, j, a)


def test_square_a_rejected():
    with pytest.raises(ValueError):
        eta_bruteforce(5, 4)
    with pytest.raises(ValueError):
        eta_closed(5, 1, 9)
    with pytest.raises(ValueError):
        eta(5, 16)
