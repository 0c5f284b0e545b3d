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
from fractions import Fraction

import numpy as np

from .archimedean import check_mc_samples, omega_inf_chart, omega_inf_montecarlo, omega_inf_region
from .arith import BLOCK, Estimate, OutOfRange, factorize, primes_upto
from .characters import CharacterChi, check_a_limit
from .local_densities import omega_p, omega_poly

# vol(P)/3 for the height polytope P, derived by tests/test_alpha.py::test_v0_volume_exact
ALPHA = Fraction(1, 1728)


L1_TOLERANCE = 1e-7

# The largest prime cut served.  The Euler product sieves the integers up to
# 2 prime_cut 8 BLOCK at a time and holds no array of primes, so its memory
# does not grow with the cut: at this cut and MC_SAMPLES_MAX a `predict`
# peaks at 37 MB of RSS in about 0.8 s (2-core Xeon VM); the limit keeps a
# miss under a second.
PRIME_CUT_MAX = 10**7


def check_prime_cut(prime_cut: int) -> None:
    """Raise OutOfRange unless 100 <= prime_cut <= PRIME_CUT_MAX."""
    if not 100 <= prime_cut <= PRIME_CUT_MAX:
        raise OutOfRange(f"prime_cut = {prime_cut} is not in 100..{PRIME_CUT_MAX}")


def _prime_segments(n: int):
    """The primes <= n in increasing order, as one int64 array per segment of
    8 BLOCK integers that holds any, sieved by the primes <= sqrt(n)."""
    base = primes_upto(math.isqrt(n))
    for lo in range(0, n + 1, 8 * BLOCK):
        hi = min(lo + 8 * BLOCK, n + 1)
        sieve = np.ones(hi - lo, dtype=bool)
        sieve[: max(0, 2 - lo)] = False  # 0 and 1
        for q in base:
            if q * q >= hi:
                break
            sieve[max(q * q, -(-lo // q) * q) - lo :: q] = False
        ps = np.flatnonzero(sieve) + lo
        if len(ps):
            yield ps


def finite_product(chi: CharacterChi, prime_cut: int, L1: Estimate) -> Estimate:
    """prod_p omega_p by the convergence-factor splitting; error by doubling.

    L1 is the estimate of L(1, chi) to use.  chi(p) is read from chi's table:
    at an odd prime p not dividing a it is the Legendre symbol (a|p), and it
    is 0 exactly at the primes dividing 2a, which take their exact omega_p.
    The primes up to 2 prime_cut are taken a sieve segment at a time
    (`_prime_segments`), and each segment's cumprod starts from the running
    product of the segments before it, which gives the bits of one cumprod
    over all of them."""
    check_prime_cut(prime_cut)
    prod = 1.0
    for ps in _prime_segments(2 * prime_cut):
        chis = chi.table[ps % chi.modulus].astype(np.float64)
        factors = omega_poly(ps, chis) * (1 - chis / ps)
        factors[chis == 0] = 1.0
        factors[0] *= prod
        curve = np.cumprod(factors)
        if ps[0] <= prime_cut:  # the last such segment holds the last prime <= prime_cut
            at_cut = float(curve[np.searchsorted(ps, prime_cut, side="right") - 1])
        prod = float(curve[-1])
    head = 1.0
    for p, _ in factorize(2 * chi.a):
        head *= float(omega_p(p, chi.a))
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
    fp = finite_product(chi, prime_cut, L1)
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
        check_direct_B(math.floor(B))
    check_prime_cut(prime_cut)
    c = predict_constant(a, prime_cut)["c"]
    rows = []
    for B in B_list:
        n = count(a, B)["direct"].count
        pred = c * B * math.log(B) ** 4
        rows.append({"B": float(B), "count": n, "prediction": pred, "ratio": n / pred})
    return rows
