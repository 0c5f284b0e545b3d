"""Assembly of the predicted leading constant c = alpha * omega_inf * prod_p omega_p.

The finite product converges only conditionally in its raw form.  It is
computed through the absolutely convergent splitting

    prod_p omega_p = [prod_{p | 2a} omega_p] * L(1, chi)
                     * prod_{p not| 2a} omega_p (1 - chi(p)/p),

where omega_p (1 - chi(p)/p) = 1 + O(1/p^2): for p not dividing 2a,
omega_p = (1-1/p)^5 (1 + (5+chi(p))/p + 1/p^2), so pairing with the L-factor
removes the chi(p)/p oscillation.  Truncation error is estimated empirically
by doubling the prime cut.

Over a number field K the constant has the shape
    c = alpha * rho_K^5 * |Delta_K|^(-1) * prod_v omega_v,
with rho_K = 2^r1 (2 pi)^r2 h R / (#mu sqrt|Delta_K|) the residue of the
Dedekind zeta function at s = 1.  This package serves K = Q only: r1 = 1,
r2 = 0, h = R = 1, #mu = 2 and Delta = 1 give rho_Q = 1 and |Delta_Q| = 1,
which is why the breakdown reports `rho_field` as 1.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .alpha_polytope import ALPHA
from .archimedean import RegionIntegral, omega_inf_chart, omega_inf_region
from .arith import CounterMismatch, OutOfRange, factorize, primes_upto
from .characters import CharacterChi, EulerEstimate
from .local_densities import omega_p


@dataclass
class ConstantBreakdown:
    alpha: Fraction
    omega_inf: RegionIntegral
    omega_inf_alt: RegionIntegral
    finite_product: EulerEstimate
    L1_chi: EulerEstimate
    c: float

    def factors(self) -> dict:
        return {
            "alpha": float(self.alpha),
            "omega_inf": self.omega_inf.value,
            "omega_inf_alt": self.omega_inf_alt.value,
            "omega_inf_rel_gap": abs(self.omega_inf.value - self.omega_inf_alt.value)
            / self.omega_inf.value,
            "finite_product": self.finite_product.value,
            "finite_product_bound": self.finite_product.bound,
            "L1_chi": self.L1_chi.value,
            "L1_bound": self.L1_chi.bound,
            "rho_field": 1.0,  # rho_Q, see the module docstring
            "c": self.c,
        }


L1_TOLERANCE = 1e-7

# The largest prime cut served: the Euler product holds the primes up to
# 2 prime_cut as Python ints and float64 arrays, about 200 MB at 10^7.
PRIME_CUT_MAX = 10**7


def check_prime_cut(prime_cut: int) -> None:
    """Raise OutOfRange unless 100 <= prime_cut <= PRIME_CUT_MAX."""
    if not 100 <= prime_cut <= PRIME_CUT_MAX:
        raise OutOfRange(f"prime_cut = {prime_cut} is not in 100..{PRIME_CUT_MAX}")


def omega_good(p, chi):
    """omega_p = (1-x)^5 (1 + (5+chi) x + x^2), x = 1/p, at a prime p not
    dividing 2a, where chi = chi(p).  Expanded in x and evaluated by Horner's
    rule, which keeps float64 values within an ulp or two (the factored form
    loses up to 4 ulp, with a bias that builds up over the Euler product).
    Exact for a Fraction p; elementwise for float arrays."""
    x = 1 / p
    value = 0
    for coeff in (-1, -chi, 14 + 5 * chi, -35 - 10 * chi, 35 + 10 * chi, -14 - 5 * chi, chi, 1):
        value = value * x + coeff
    return value


def _prime_table(chi: CharacterChi, cut: int):
    """(primes p <= cut, chi(p) as float64, the primes dividing 2a)."""
    bad = [p for p, _ in factorize(2 * chi.a)]
    ps = np.array(primes_upto(cut), dtype=np.int64)
    return ps, chi.table[ps % chi.modulus].astype(np.float64), bad


def finite_product(
    a: int,
    prime_cut: int,
    L1: EulerEstimate | None = None,
    chi: CharacterChi | None = None,
) -> EulerEstimate:
    """prod_p omega_p by the convergence-factor splitting; error by doubling.

    L1 is the estimate of L(1, chi) to use; by default it is summed to
    L1_TOLERANCE.  chi is the character of a, built here if not given (its
    table is O(|a|) numpy passes, so callers that hold one pass it)."""
    check_prime_cut(prime_cut)
    if chi is None:
        chi = CharacterChi(a)
    if L1 is None:
        L1 = chi.L1(L1_TOLERANCE)
    ps, chis, bad = _prime_table(chi, 2 * prime_cut)
    factors = omega_good(ps, chis) * (1 - chis / ps)
    factors[np.isin(ps, bad)] = 1.0
    curve = np.cumprod(factors)
    prod = float(curve[-1])
    at_cut = float(curve[np.searchsorted(ps, prime_cut, side="right") - 1])
    head = 1.0
    for p in bad:
        head *= float(omega_p(p, a))
    val = head * L1.value * prod
    doubling = abs(prod - at_cut) * head * abs(L1.value)
    bound = doubling + head * prod * L1.bound
    return EulerEstimate(val, bound, prime_cut)


def predict_constant(a: int, prime_cut: int = 20000, tolerance: float = 1e-6) -> ConstantBreakdown:
    """Every factor of the predicted constant over Q (field factors are 1)."""
    chi = CharacterChi(a)
    L1 = chi.L1(L1_TOLERANCE)
    fp = finite_product(a, prime_cut, L1, chi)
    om_chart = omega_inf_chart(a, tolerance)
    om_region = omega_inf_region(a, tolerance)
    c = float(ALPHA) * om_chart.value * fp.value  # rho_Q = 1, |disc| = 1
    return ConstantBreakdown(
        alpha=ALPHA,
        omega_inf=om_chart,
        omega_inf_alt=om_region,
        finite_product=fp,
        L1_chi=L1,
        c=c,
    )


@dataclass
class CompareRow:
    B: float
    count: int
    prediction: float
    ratio: float


def check_compare_B(B_list) -> None:
    """Raise OutOfRange unless each B is at least 2 and the direct counter takes it."""
    from .counting import check_direct_B

    for B in B_list:
        if B < 2:
            raise OutOfRange(f"B = {B} is below 2, where the prediction c B log^4 B is 0")
        check_direct_B(math.floor(B))


def compare(a: int, B_list, breakdown: ConstantBreakdown):
    """Rows (B, N(B), c B (log B)^4, ratio) with N(B) cross-checked between
    the direct and the torsor counter (raises CounterMismatch on a mismatch)."""
    from .counting import direct_count, torsor_count

    check_compare_B(B_list)
    rows = []
    for B in B_list:
        counts = {"direct": direct_count(a, B).count, "torsor": torsor_count(a, B).count}
        n = counts["direct"]
        if counts["torsor"] != n:
            raise CounterMismatch(f"counter mismatch at B={B}: {counts}")
        pred = breakdown.c * B * math.log(B) ** 4
        rows.append(CompareRow(B=float(B), count=n, prediction=pred, ratio=n / pred))
    return rows
