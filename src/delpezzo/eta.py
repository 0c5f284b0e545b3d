"""The square-root counting function eta(q; a) over Q.

For q >= 1 and a nonzero nonsquare set g = gcd(q, a) (the positive generator of
qZ + aZ), and let g' = prod_p p^ceil(v_p(g)/2).  Then

    eta(q; a) = #{ rho mod q*g'/g :  gcd-normalization rho*Z + (q*g'/g)*Z = g'*Z
                                     and rho^2 = a mod q }.

It is multiplicative in q and has a closed form at every prime power.  At
p = 2 with even v = v_2(a) < k, rho = 2^(v/2) r with r odd and
r^2 = a/2^v (mod 2^(k-v)), and an odd unit u has 1, 2 [u = 1 mod 4] and
4 [u = 1 mod 8] odd square roots mod 2^j for j = 1, 2 and j >= 3.

Two independent evaluators are provided on purpose: rho_classes lists the
classes themselves by exhaustive enumeration, and eta_bruteforce counts them
(the oracle; the torsor counter and the Moebius side of the slice identity
walk the same classes); eta_closed implements the case table and is what
the density formulas use.  The enumeration is one loop over the prime
powers p^k || q: root_tower lifts the square roots of a mod p^k one p-adic
digit at a time, and the local classes are joined by the Chinese remainder
theorem.  It never consults the case table, and the module uses Python
integers only (no numpy).
"""

from __future__ import annotations

import math
from functools import lru_cache

from .arith import check_nonsquare, crt, factorize, legendre, valuation


def eta_bruteforce(q: int, a: int) -> int:
    """eta(q; a) by exhaustive enumeration of its classes (rho_classes)."""
    check_nonsquare(a)
    return len(rho_classes(q, a)[0])


def root_tower(p: int, k: int, a: int) -> list[list[int]]:
    """levels[j] = the roots r mod p^j of r^2 = a (mod p^j), for j = 0..k.

    Exhaustive: every root mod p^(j+1) reduces to a root s mod p^j, so the
    p children s + p^j t of each root s are checked directly mod p^(j+1).
    Python ints throughout; no Hensel case analysis is used.
    """
    levels = [[0]]
    mod = 1
    for _ in range(k):
        nxt = mod * p
        levels.append([c for s in levels[-1] for c in range(s, nxt, mod) if (c * c - a) % nxt == 0])
        mod = nxt
    return levels


def rho_classes(q: int, a: int) -> tuple[list[int], int, int]:
    """(the classes rho that eta(q; a) counts, their modulus q*g'/g, g').

    For a != 0 (every caller passes a nonsquare a); the definition needs no
    nonsquare gate.  Both conditions are local, so at each p^k || q, with
    v = v_p(g) = min(k, v_p(a)), g'_p = p^ceil(v/2) and m_p = p^(k-v) g'_p,
    the local classes are the roots mod p^k from root_tower reduced mod m_p.
    Each has gcd g'_p with m_p: a root s has v_p(s) = v/2 if v < k (v odd
    has no roots), and v_p(s) >= ceil(k/2), so s = 0 mod m_p = g'_p, if v = k.
    As g | g'^2 the congruence is well defined on a class mod m_p, so the
    classes, lifted to mod q, are all the roots of a mod q.  The classes mod
    q*g'/g = prod m_p are the CRT products of the local ones; q = 1 has the
    one class 0 mod 1.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    classes, modulus, gp = [0], 1, 1
    for p, k in factorize(q):
        v = min(k, valuation(p, a))
        gp_p = p ** ((v + 1) // 2)
        m_p = p ** (k - v) * gp_p
        local = {s % m_p for s in root_tower(p, k, a)[k]}
        classes = [crt([(r, modulus), (s, m_p)])[0] for r in classes for s in local]
        modulus *= m_p
        gp *= gp_p
    return sorted(classes), modulus, gp


@lru_cache(maxsize=None)
def eta_closed(p: int, k: int, a: int) -> int:
    """eta(p^k; a) by the multiplicative case table.

    k <= v = v_p(a)            : 1
    k >  v, v odd              : 0
    k >  v, v even, p odd      : 1 + (a/p^v | p)
    k >  v, v even, p = 2      : 1, 2 [a/2^v = 1 mod 4], 4 [a/2^v = 1 mod 8]
                                 for k - v = 1, 2, >= 3
    """
    check_nonsquare(a)
    if k < 1:
        raise ValueError("k must be >= 1")
    v = valuation(p, a)
    if k <= v:
        return 1
    if v % 2 == 1:
        return 0
    u = a // p**v
    if p != 2:
        return 1 + legendre(u, p)
    m = 2 ** min(k - v, 3)  # u is a square mod 2^(k-v) iff u = 1 mod m
    return m // 2 if u % m == 1 else 0


def eta(q: int, a: int) -> int:
    """eta(q; a) via multiplicativity over the factorization of q."""
    if q < 1:
        raise ValueError("q must be >= 1")
    check_nonsquare(a)
    return math.prod(eta_closed(p, e, a) for p, e in factorize(q))
