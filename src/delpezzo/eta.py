"""The square-root counting function eta(q; a) over Q.

For q >= 1 and a nonzero nonsquare set g = gcd(q, a) (the positive generator of
qZ + aZ), and let g' = prod_p p^ceil(v_p(g)/2).  Then

    eta(q; a) = #{ rho mod q*g'/g :  gcd-normalization rho*Z + (q*g'/g)*Z = g'*Z
                                     and rho^2 = a mod q }.

It is multiplicative in q.  At prime powers it has a closed form except at
p = 2 with even v_2(a), where only Hensel stabilization
eta(2^k) = eta(2^(v_2(4a)+1)) for k > v_2(4a)+1 is available; the evaluator
falls back to residue enumeration in that finite window (the window is tiny,
so exactness costs nothing).

Two independent evaluators are provided on purpose: eta_bruteforce counts
residues directly and is the oracle; eta_closed implements the case table and
is what the density formulas use.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .arith import check_nonsquare, factorize, kronecker, valuation


def _gprime(g: int) -> int:
    out = 1
    for p, e in factorize(g):
        out *= p ** ((e + 1) // 2)
    return out


def _vp_or_inf(p: int, n: int) -> float:
    if n == 0:
        return math.inf
    return valuation(p, n)


def eta_bruteforce(q: int, a: int) -> int:
    """eta(q; a) by direct residue enumeration mod q*g'/g.

    For prime powers p^k too large to scan, the solution set of
    rho^2 = a (mod p^k) is built by digit-wise lifting (children of a solution
    mod p^j are checked directly mod p^(j+1); no Hensel case analysis is used).
    """
    check_nonsquare(a)
    return _eta_bruteforce_any(q, a)


def _eta_bruteforce_any(q: int, a: int) -> int:
    # same count without the nonsquare gate; the definition of eta does not
    # need it, and the square-measure identity is exercised at square a too
    if q < 1:
        raise ValueError("q must be >= 1")
    if a == 0:
        raise ValueError("a must be nonzero")
    if q == 1:
        return 1
    g = math.gcd(q, abs(a))
    gp = _gprime(g)
    modulus = q // g * gp

    if modulus <= 10**6:
        # every residue class mod `modulus`, scanned at once; numpy is
        # imported here so that a cache hit of the CLI never loads it.
        # int64 is exact: g/g' <= g' <= modulus, so q = modulus*g/g' <= modulus^2
        # <= 1e12, and rho^2 - (a mod q) lies in (-1e12, 1e12).
        import numpy as np

        rho = np.arange(modulus, dtype=np.int64)
        roots = rho[(rho * rho - a % q) % q == 0]
        return int(np.count_nonzero(np.gcd(roots, modulus) == gp))

    fq = factorize(q)
    if len(fq) != 1:
        raise ValueError("direct enumeration limit exceeded for composite q")
    p, k = fq.factors[0]
    # solutions of rho^2 = a mod p^j, lifted one digit at a time
    sols = [r for r in range(p) if (r * r - a) % p == 0]
    mod = p
    for _ in range(k - 1):
        nxt = []
        newmod = mod * p
        for s in sols:
            for t in range(p):
                c = s + mod * t
                if (c * c - a) % newmod == 0:
                    nxt.append(c)
        sols, mod = nxt, newmod
    # classes mod `modulus` with the gcd-normalization; each such class holds
    # exactly p^k/modulus full solutions mod p^k (well-definedness of the
    # congruence on the coarser classes is forced by the normalization)
    vg = valuation(p, g)
    vgp = (vg + 1) // 2
    vmod = k - vg + vgp
    good = 0
    for s in sols:
        vs = _vp_or_inf(p, s)
        if min(vs, vmod) == vgp:
            good += 1
    lifts = p ** (k - vmod)
    assert good % lifts == 0
    return good // lifts


def eta_closed(p: int, k: int, a: int) -> int:
    """eta(p^k; a) by the multiplicative case table.

    p not dividing 2a      : 1 + (a|p)
    k <= v_p(a)            : 1
    k >  v_p(a), v odd     : 0
    k >  v_p(a), v even, p odd : 1 + (a/p^v | p)
    p = 2, v_2(a) even     : residue enumeration up to the Hensel threshold
                             v_2(4a)+1, constant beyond it.
    """
    check_nonsquare(a)
    return _eta_closed_any(p, k, a)


@lru_cache(maxsize=None)
def _eta_closed_any(p: int, k: int, a: int) -> int:
    if k < 1:
        raise ValueError("k must be >= 1")
    if a == 0:
        raise ValueError("a must be nonzero")
    v = valuation(p, a)
    if p != 2 and v == 0 and a % p != 0:
        return 1 + kronecker(a, p)
    if k <= v:
        return 1
    if v % 2 == 1:
        return 0
    if p != 2:
        return 1 + kronecker(a // p**v, p)
    cap = valuation(2, 4 * a) + 1  # = v + 3
    return _eta_bruteforce_any(2 ** min(k, cap), a)


def eta(q: int, a: int) -> int:
    """eta(q; a) via multiplicativity over the factorization of q."""
    if q < 1:
        raise ValueError("q must be >= 1")
    check_nonsquare(a)
    out = 1
    if q > 1:
        for p, e in factorize(q):
            out *= eta_closed(p, e, a)
            if out == 0:
                break
    return out

