"""The coprimality/congruence weights theta0 and theta1.

theta1 is an Euler product whose factor at p, theta1_local, depends only on
the valuation pattern v = (v_p(a1), ..., v_p(a4)) and on eta.  Away from
2a*a1*a2*a3*a4 the factor is the generic supp-empty value.  The products
theta1 and theta2 over a prime cut, and the average of theta1 over a1, are
test oracles in tests/test_theta.py.

theta1_factor_identity re-derives the theta1 factor at one prime from first
principles: it enumerates the local Moebius data (d56, d58, d5, d6, d7) with
squarefree p-exponents in {0,1}, forms g = p^min(e58 + v1, v_p(a)),
g' = p^ceil(v_p(g)/2), counts rho exhaustively (eta_bruteforce, which
lifts the square roots mod p^k digit by digit), and sums mu * eta / norm.
That finite sum must equal the table value.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .arith import valuation
from .eta import eta_bruteforce, eta_closed


def theta0(a1: int, a2: int, a3: int, a4: int) -> int:
    """1 iff gcd(a4, a1*a3) = gcd(a3, a1) = gcd(a2, a1) = 1."""
    if min(a1, a2, a3, a4) < 1:
        raise ValueError("arguments must be positive")
    if math.gcd(a4, a1 * a3) != 1 or math.gcd(a3, a1) != 1 or math.gcd(a2, a1) != 1:
        return 0
    return 1


def _theta1_inner(p: int, v1: int, a: int) -> Fraction:
    """theta_{1,p}(v1): the supp in {{}, {1}} sub-factor."""
    if v1 == 0:
        return 1 + Fraction(1, p) - Fraction(eta_closed(p, 1, a), p * p)
    n = valuation(p, a)
    lead = eta_closed(p, v1, a) * Fraction(p ** (min(v1, n) // 2))
    sub = eta_closed(p, v1 + 1, a) * Fraction(p ** (min(v1 + 1, n) // 2), p * p)
    return lead - sub


def theta1_local(p: int, a: int, v: tuple[int, int, int, int]) -> Fraction:
    """The theta1 Euler factor at p for valuation pattern v."""
    supp = frozenset(i + 1 for i, x in enumerate(v) if x != 0)
    one_minus = 1 - Fraction(1, p)
    if supp <= {1}:
        return one_minus * _theta1_inner(p, v[0], a)
    if supp in ({3}, {4}):
        return one_minus**2
    if supp in ({2}, {2, 3}, {2, 4}):
        return one_minus**3
    return Fraction(0)


def theta1_factor_identity(p: int, a: int, v: tuple[int, int, int, int]):
    """Check theta1_local(p, a, v) against the local Moebius/rho sum.

    Returns (table_value, local_sum, passed).  The local sum enumerates the
    five squarefree inversion exponents (e56, e58, e5, e6, e7) in {0,1} with

        e56 = 1 only if v1 = v2 = v3 = v4 = 0
        e58 = 1 only if v2 = v3 = v4 = 0,
              and v_p(a) odd  =>  e58 + v1 <= v_p(a)
        e5  = 1 only if v2 + v4 >= 1
        e6  = 1 only if v1 + v2 + v3 >= 1
        e7  = 1 only if v2 + v3 + v4 >= 1

    and sums mu * (rho count) / p^D with
    D = e5+e6+e7+e56+e58+max(e56,e58) - floor(min(e58+v1, v_p(a))/2),
    where the rho count is eta(p^(e58+v1); a) evaluated by exhaustive
    enumeration: eta_bruteforce lifts the roots mod p^(e58+v1) one digit at a
    time through eta.root_tower (no case table).  theta0 violations force the
    table value 0 and an empty sum contribution pattern is not asserted there.
    """
    v1, v2, v3, v4 = v
    n = valuation(p, a)
    # theta0 localized at p: no pair (1,2), (1,3), (1,4-with-3) etc.
    t0_ok = not (
        (v4 > 0 and (v1 > 0 or v3 > 0)) or (v3 > 0 and v1 > 0) or (v2 > 0 and v1 > 0)
    )
    table = theta1_local(p, a, v) if t0_ok else Fraction(0)

    def free(cond) -> tuple[int, ...]:
        return (0, 1) if cond else (0,)

    total = 0  # the sum times p^6: every D is at most 6
    if t0_ok:
        rho = {
            e58: eta_bruteforce(p ** (e58 + v1), a) if e58 + v1 else 1
            for e58 in free(not (v2 or v3 or v4))
            if n % 2 == 0 or e58 + v1 <= n
        }
        for e56, e58, e5, e6, e7 in itertools.product(
            free(not any(v)), rho, free(v2 + v4), free(v1 + v2 + v3), free(v2 + v3 + v4)
        ):
            D = e5 + e6 + e7 + e56 + e58 + max(e56, e58) - min(e58 + v1, n) // 2
            total += (-1) ** (e56 + e58 + e5 + e6 + e7) * rho[e58] * p ** (6 - D)
    total = Fraction(total, p**6)
    return table, total, table == total
