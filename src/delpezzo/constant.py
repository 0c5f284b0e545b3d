"""Assembly of the predicted leading constant c = alpha * omega_inf * prod_p omega_p.

The finite product converges only conditionally in its raw form.  It is
computed through the absolutely convergent splitting

    prod_p omega_p = [prod_{p | 2a} omega_p] * L(1, chi)
                     * prod_{p not| 2a} omega_p (1 - chi(p)/p),

where omega_p (1 - chi(p)/p) = 1 + O(1/p^2): for p not dividing 2a,
omega_p = (1-1/p)^5 (1 + (5+chi(p))/p + 1/p^2), so pairing with the L-factor
removes the chi(p)/p oscillation.  That polynomial in 1/p is written once,
as local_densities.omega_poly, which omega_p evaluates at r_a(p) and the
Euler product at chi(p).  Truncation error is estimated empirically by
doubling the prime cut.

Over a number field K the constant has the shape
    c = alpha * rho_K^5 * |Delta_K|^(-1) * prod_v omega_v,
with rho_K = 2^r1 (2 pi)^r2 h R / (#mu sqrt|Delta_K|) the residue of the
Dedekind zeta function at s = 1.  This package serves K = Q only: r1 = 1,
r2 = 0, h = R = 1, #mu = 2 and Delta = 1 give rho_Q = 1 and |Delta_Q| = 1,
which is why `predict_constant`'s record gives `rho_field` as 1.0.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction

import numpy as np

from .archimedean import check_mc_samples, omega_inf_chart, omega_inf_montecarlo, omega_inf_region
from .arith import BLOCK, Estimate, OutOfRange, factorize, primes_upto
from .characters import CharacterChi, check_a_limit
from .local_densities import omega_p, omega_poly

# vol(P)/3 for the height polytope P, derived by tests/test_alpha.py::test_v0_volume_exact
ALPHA = Fraction(1, 1728)


L1_TOLERANCE = 1e-7

# The largest prime cut served: the Euler product walks the primes up to
# 2 prime_cut BLOCK at a time, but arith.primes_upto holds them whole, a
# cached tuple of Python ints of about 46 MB at 10^7 (78 MB of RSS while
# its sieve runs); a `predict` at this cut and MC_SAMPLES_MAX peaks at
# 170 MB of RSS.
PRIME_CUT_MAX = 10**7


def check_prime_cut(prime_cut: int) -> None:
    """Raise OutOfRange unless 100 <= prime_cut <= PRIME_CUT_MAX."""
    if not 100 <= prime_cut <= PRIME_CUT_MAX:
        raise OutOfRange(f"prime_cut = {prime_cut} is not in 100..{PRIME_CUT_MAX}")


def finite_product(a: int, prime_cut: int, L1: Estimate, chi: CharacterChi) -> Estimate:
    """prod_p omega_p by the convergence-factor splitting; error by doubling.

    L1 is the estimate of L(1, chi) to use and chi the character of a.  The
    primes up to 2 prime_cut are taken BLOCK at a time, and each block's
    cumprod starts from the running product of the blocks before it, which
    gives the bits of one cumprod over all of them."""
    check_prime_cut(prime_cut)
    bad = [p for p, _ in factorize(2 * a)]
    primes = primes_upto(2 * prime_cut)
    cut_index = bisect_right(primes, prime_cut) - 1  # the last prime <= prime_cut
    prod = 1.0
    for start in range(0, len(primes), BLOCK):
        ps = np.array(primes[start : start + BLOCK], dtype=np.int64)
        chis = chi.table[ps % chi.modulus].astype(np.float64)
        factors = omega_poly(ps, chis) * (1 - chis / ps)
        factors[np.isin(ps, bad)] = 1.0
        factors[0] *= prod
        curve = np.cumprod(factors)
        if start <= cut_index < start + len(ps):
            at_cut = float(curve[cut_index - start])
        prod = float(curve[-1])
    head = 1.0
    for p in bad:
        head *= float(omega_p(p, a))
    val = head * L1.value * prod
    doubling = abs(prod - at_cut) * head * abs(L1.value)
    bound = doubling + head * prod * L1.bound
    return Estimate(val, bound)


def predict_constant(a: int, prime_cut: int = 20000, tolerance: float = 1e-6,
                     mc_samples: int = 0, seed: int = 1) -> dict:
    """The record `predict` caches: every factor of the predicted constant over
    Q, with the bounds of the Euler product and L(1, chi), and, for
    mc_samples > 0, the Monte Carlo estimate of omega_inf drawn with seed and
    its standard error.  Checks prime_cut, then mc_samples, then |a| (in
    CharacterChi) before it builds anything; the Monte Carlo is drawn last."""
    check_prime_cut(prime_cut)
    if mc_samples:
        check_mc_samples(mc_samples)
    chi = CharacterChi(a)
    L1 = chi.L1(L1_TOLERANCE)
    fp = finite_product(a, prime_cut, L1, chi)
    om_chart = omega_inf_chart(a, tolerance)
    om_region = omega_inf_region(a, tolerance)
    record = {
        "alpha": float(ALPHA),
        "omega_inf": om_chart.value,
        "omega_inf_alt": om_region.value,
        "omega_inf_rel_gap": abs(om_chart.value - om_region.value) / om_chart.value,
        "finite_product": fp.value,
        "finite_product_bound": fp.bound,
        "L1_chi": L1.value,
        "L1_bound": L1.bound,
        "rho_field": 1.0,  # rho_Q, see the module docstring
        "c": float(ALPHA) * om_chart.value * fp.value,  # rho_Q = 1, |disc| = 1
    }
    if mc_samples:
        mc = omega_inf_montecarlo(a, mc_samples, seed)
        record["omega_inf_mc"] = mc.value
        record["omega_inf_mc_stderr"] = mc.bound
    return record


def compare(a: int, B_list, prime_cut: int = 20000) -> list[dict]:
    """The rows `compare` caches, {"B", "count", "prediction", "ratio"} with
    prediction c B (log B)^4: N(B) from `counting.count`, which raises
    CounterMismatch unless both counters agree, c from predict_constant.
    Checks |a|, then each B (at least 2, and within the direct counter's limit),
    then prime_cut, before it counts or predicts anything."""
    from .counting import check_direct_B, count  # `import constant` loads no counter

    check_a_limit(a)
    for B in B_list:
        if B < 2:
            raise OutOfRange(f"B = {B} is below 2, where the prediction c B log^4 B is 0")
        check_direct_B(a, math.floor(B))
    check_prime_cut(prime_cut)
    c = predict_constant(a, prime_cut)["c"]
    rows = []
    for B in B_list:
        n = count(a, B)["direct"].count
        pred = c * B * math.log(B) ** 4
        rows.append({"B": float(B), "count": n, "prediction": pred, "ratio": n / pred})
    return rows
