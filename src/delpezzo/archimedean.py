"""The real-place density omega_inf and the fundamental-domain volume.

Two independent routes to omega_inf:

  region:  (3/2) vol{ N(y5, y6, y7) <= 1 } with
           N = max{|y6 (a y6^2 - y7^2)|, |y5 y6 y7|, |y5^3|, |y5 y6^2|, |y5^2 y6|};
           the y7-section is solved exactly (a union of at most four
           intervals), leaving a 2-D integral that the substitution
           y5 = w^2, y6 = r^2/w turns into a bounded integrand on (0,1]^2,
           evaluated by nested adaptive quadrature.

  chart:   int dx1 dx3 / (|x3| max{|a x3^2 - x1^2|, |x1|, 1/|x3|, |x3|, 1});
           the x1-section has an elementary antiderivative on each max-branch
           piece, so the inner integral is exact and only the outer x3
           integral is numerical.

Their agreement (1e-3 relative) is the real-place version of the density
identity between the height form and the chart measure.

vol_SF estimates vol{ (x5, x6, x7): Ntilde(a1..a4; x5, x6, x7) <= B } by
Monte Carlo with the exact x7-section, for comparison against
(2/3) omega_inf B / (a2 a3 a4).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .arith import check_nonsquare


@dataclass
class RegionIntegral:
    value: float
    method: str
    error_estimate: float
    detail: dict


def N_inf(a: int, y5: float, y6: float, y7: float) -> float:
    """The five-monomial max norm at the real place."""
    return max(
        abs(y6 * (a * y6 * y6 - y7 * y7)),
        abs(y5 * y6 * y7),
        abs(y5) ** 3,
        abs(y5 * y6 * y6),
        abs(y5 * y5 * y6),
    )


def _section_len(c2: float, slack: float, cap: float) -> float:
    """Length of {y7 : |y7| <= cap, |c2 - y7^2| <= slack} (union of <= 4
    intervals, symmetric in y7)."""
    hi = c2 + slack
    if hi <= 0 or cap <= 0:
        return 0.0
    lo = c2 - slack
    upper = min(cap, math.sqrt(hi))
    lower = math.sqrt(lo) if lo > 0 else 0.0
    return 2.0 * max(0.0, upper - lower)


def _section_len_vec(c2, slack, cap):
    hi = c2 + slack
    upper = np.minimum(cap, np.sqrt(np.maximum(hi, 0.0)))
    lower = np.sqrt(np.maximum(c2 - slack, 0.0))
    out = 2.0 * np.maximum(0.0, upper - lower)
    return np.where((hi > 0) & (cap > 0), out, 0.0)


def omega_inf_region(a: int, tol: float = 1e-9) -> RegionIntegral:
    """(3/2) vol{N <= 1} by exact y7-sections + nested quadrature.

    On {N <= 1}: |y5| <= 1 and |y5| y6^2 <= 1 (the y5^2|y6| <= 1 constraint is
    implied); substituting y5 = w^2, y6 = r^2/w maps the positive quadrant to
    (0,1]^2 with Jacobian 4 w r / w = 4r, and the y5, y6 sign symmetries give
    a factor 4.
    """
    check_nonsquare(a)

    def inner(w: float) -> float:
        def f(r: float) -> float:
            y5 = w * w
            y6 = r * r / w
            c2 = a * y6 * y6
            return r * _section_len(c2, 1.0 / y6, 1.0 / (y5 * y6))

        val, _ = quad(f, 0.0, 1.0, limit=200, epsabs=tol, epsrel=1e-10)
        return val

    val, err = quad(inner, 0.0, 1.0, limit=200, epsabs=tol, epsrel=1e-9)
    vol = 16.0 * val
    omega = 1.5 * vol
    return RegionIntegral(omega, "region3d", max(24.0 * err, 10 * tol), {"tol": tol})


def _chart_section(a: float, x3: float) -> float:
    """Exact int dx1 / max(|a x3^2 - x1^2|, |x1|, K) over x1 in R, with
    K = max(|x3|, 1/|x3|) >= 1."""
    c = a * x3 * x3
    K = max(abs(x3), 1.0 / abs(x3))

    # breakpoints of the max on x1 >= 0
    pts = {0.0}
    for val in (K, 1.0):
        # x1^2 - c = +-val
        for s in (val, -val):
            d = c + s
            if d > 0:
                pts.add(math.sqrt(d))
    # x1^2 - c = +-x1  ->  x1 = (+-1 + sqrt(1 + 4c))/2
    if 1 + 4 * c >= 0:
        root = math.sqrt(1 + 4 * c)
        for s in (1.0, -1.0):
            x = (s + root) / 2
            if x > 0:
                pts.add(x)
    pts.add(K)
    T = max(pts) + K + 1.0  # beyond all crossings: max = x1^2 - c
    pts.add(T)
    grid = sorted(pts)

    total = 0.0
    for lo, hi in zip(grid[:-1], grid[1:]):
        if hi - lo < 1e-300:
            continue
        mid = 0.5 * (lo + hi)
        branch = max(abs(mid * mid - c), mid, K)
        if branch == K:
            total += (hi - lo) / K
        elif branch == mid:
            total += math.log(hi / lo)
        elif mid * mid - c > 0:
            total += _int_inv_x2_minus_c(lo, hi, c)
        else:
            total += _int_inv_c_minus_x2(lo, hi, c)
    # exact tail: int_T^inf dx / (x^2 - c)
    total += _tail_inv_x2_minus_c(T, c)
    return 2.0 * total  # x1 < 0 by symmetry


def _int_inv_x2_minus_c(lo: float, hi: float, c: float) -> float:
    if c > 0:
        s = math.sqrt(c)
        g = lambda x: 0.5 / s * math.log((x - s) / (x + s))
        return g(hi) - g(lo)
    if c < 0:
        s = math.sqrt(-c)
        return (math.atan(hi / s) - math.atan(lo / s)) / s
    return 1.0 / lo - 1.0 / hi


def _int_inv_c_minus_x2(lo: float, hi: float, c: float) -> float:
    s = math.sqrt(c)
    g = lambda x: 0.5 / s * math.log((s + x) / (s - x))
    return g(hi) - g(lo)


def _tail_inv_x2_minus_c(T: float, c: float) -> float:
    if c > 0:
        s = math.sqrt(c)
        return 0.5 / s * math.log((T + s) / (T - s))
    if c < 0:
        s = math.sqrt(-c)
        return (math.pi / 2 - math.atan(T / s)) / s
    return 1.0 / T


def omega_inf_chart(a: int, tol: float = 1e-9) -> RegionIntegral:
    """The chart-measure integral with exact x1-sections."""
    check_nonsquare(a)

    def near(x3: float) -> float:  # x3 in (0, 1]
        return _chart_section(a, x3) / x3

    def far(u: float) -> float:  # x3 = 1/u, u in (0, 1], dx3/x3 = du/u
        return _chart_section(a, 1.0 / u) / u

    with warnings.catch_warnings():
        # roundoff-limited extrapolation still beats the 1e-3 contract by far;
        # the reported abserr stays honest
        warnings.simplefilter("ignore", IntegrationWarning)
        v1, e1 = quad(near, 0.0, 1.0, limit=400, epsabs=tol, epsrel=1e-10)
        v2, e2 = quad(far, 0.0, 1.0, limit=400, epsabs=tol, epsrel=1e-10)
    omega = 2.0 * (v1 + v2)  # x3 < 0 by symmetry
    return RegionIntegral(omega, "chart2d", max(2 * (e1 + e2), 10 * tol), {"tol": tol})


def omega_inf_montecarlo(a: int, samples: int, seed: int) -> RegionIntegral:
    """Third estimate of omega_inf by MC over the compactified (w, r) square."""
    rng = np.random.default_rng(seed)
    w = rng.random(samples)
    r = rng.random(samples)
    good = (w > 0) & (r > 0)
    w, r = w[good], r[good]
    y5 = w * w
    y6 = r * r / w
    vals = r * _section_len_vec(a * y6 * y6, 1.0 / y6, 1.0 / (y5 * y6))
    est = 16.0 * float(vals.mean())
    stderr = 16.0 * float(vals.std(ddof=1)) / math.sqrt(len(vals))
    return RegionIntegral(1.5 * est, "montecarlo", 1.5 * stderr, {"samples": samples, "seed": seed})


def vol_SF(
    a: int,
    a1: int,
    a2: int,
    a3: int,
    a4: int,
    B: float,
    samples: int = 10**6,
    seed: int = 1,
) -> RegionIntegral:
    """MC volume of {(x5, x6, x7): Ntilde(a; a1..a4; x5, x6, x7) <= B}.

    The x7-section is exact; (x5, x6) are sampled through x5 = s w^2,
    x6 = t r^2/|w| * k6 on the bounded box fixed by the monomial constraints
    M3 = a1^2 a2 a3^2 |x5|^3 <= B and M4 = a2^3 a3^2 a4^4 |x5| x6^2 <= B;
    M5 <= B is implied on that box but enforced anyway.  Compare against
    (2/3) omega_inf(a) B / (a2 a3 a4).
    """
    if B <= 0:
        raise ValueError("B must be positive")
    if samples < 2:
        raise ValueError("need at least 2 samples")
    S5 = (B / (a1 * a1 * a2 * a3 * a3)) ** (1 / 3)
    S4 = B / (a2**3 * a3**2 * a4**4)
    S55 = B / (a1 * a2 * a2 * a3 * a3 * a4 * a4)
    S2 = B / (a2 * a3 * a4)
    S1 = B * a1
    cc = a * a2**4 * a3**2 * a4**6
    if S5 <= 0 or S4 <= 0:
        raise ValueError("degenerate sampling box")

    rng = np.random.default_rng(seed)
    w = rng.random(samples) * S5 ** (1 / 2)
    r = rng.random(samples) * S4 ** (1 / 4)
    good = (w > 0) & (r > 0)
    w, r = w[good], r[good]
    x5 = w * w
    x6 = r * r / w
    jac = 4.0 * (S5 ** (1 / 2)) * (S4 ** (1 / 4)) * r  # dx5 dx6 = 2w dw * 2r/w dr
    c2 = cc * x6 * x6
    slack = S1 / x6
    cap = S2 / (x5 * x6)
    lens = _section_len_vec(c2, slack, cap)
    lens = np.where(x5 * x5 * x6 <= S55, lens, 0.0)
    vals = jac * lens
    est = 4.0 * float(vals.mean())  # sign symmetry in x5 and x6
    stderr = 4.0 * float(vals.std(ddof=1)) / math.sqrt(len(vals))
    return RegionIntegral(est, "montecarlo", stderr, {"samples": samples, "seed": seed, "B": B})
