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
(the oracle; the Moebius side of the slice identity iterates the same
classes); eta_closed implements the case table and is what the density
formulas use.  At a prime power the enumeration is root_tower, which lifts
the square roots of a one p-adic digit at a time; a composite q is scanned
residue by residue in a plain loop.  Neither path consults the case table,
and the module uses Python integers only (no numpy).
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

    For a != 0 (both callers pass a nonsquare a); the definition needs no
    nonsquare gate.  A prime power q = p^k takes the roots of rho^2 = a
    (mod p^k) from root_tower; a composite q is a Python scan of every residue
    class mod q*g'/g, which must stay below 10**6 entries (the verify suites
    send composite q <= 40).
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    g = math.gcd(q, abs(a))
    gp = _gprime(g)
    modulus = q // g * gp
    fq = factorize(q)

    if len(fq) == 1:
        p, k = fq[0]
        # classes mod `modulus` with the gcd-normalization; each such class
        # holds exactly p^k/modulus roots mod p^k (well-definedness of the
        # congruence on the coarser classes is forced by the normalization)
        classes = sorted({s % modulus for s in root_tower(p, k, a)[k] if math.gcd(s, modulus) == gp})
        return classes, modulus, gp

    if modulus > 10**6:
        raise ValueError("direct enumeration limit exceeded for composite q")
    classes = [r for r in range(modulus) if (r * r - a) % q == 0 and math.gcd(r, modulus) == gp]
    return classes, modulus, gp


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
        return 1 + kronecker(u, p)
    m = 2 ** min(k - v, 3)  # u is a square mod 2^(k-v) iff u = 1 mod m
    return m // 2 if u % m == 1 else 0


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

