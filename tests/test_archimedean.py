import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from delpezzo import archimedean
from delpezzo.archimedean import (
    _far_half,
    _gk21,
    _section,
    omega_inf_chart,
    omega_inf_montecarlo,
    omega_inf_region,
    quad,
    vol_SF,
)
from delpezzo.arith import BLOCK, TESTBED


def N_inf(a: int, y5: float, y6: float, y7: float) -> float:
    """The five-monomial max norm at the real place."""
    return max(
        abs(y6 * (a * y6 * y6 - y7 * y7)),
        abs(y5 * y6 * y7),
        abs(y5) ** 3,
        abs(y5 * y6 * y6),
        abs(y5 * y5 * y6),
    )


def test_N_inf_values():
    for a in (-2, 5):
        assert N_inf(a, 1, 1, 0) == max(abs(a), 1)
        assert N_inf(a, 0, 0, 0) == 0
        # even in y7
        assert N_inf(a, 0.3, -1.7, 2.5) == N_inf(a, 0.3, -1.7, -2.5)


def test_region_equals_chart():
    for a in (-2, -1, 2, 3, 5, 12):
        r = omega_inf_region(a)
        c = omega_inf_chart(a)
        rel = abs(r.value - c.value) / c.value
        assert rel <= 1e-3, (a, rel)
        assert r.bound > 0 and c.bound > 0


@settings(max_examples=150, deadline=None)
@given(
    log_a=st.floats(0.0, 9.0),
    negative=st.booleans(),
    tol=st.sampled_from([1e-3, 1e-6, 1e-9]),
)
def test_region_equals_chart_within_their_bounds_at_random_a(log_a, negative, tol):
    # log-uniform |a| <= 1e9: the cuts of both routes move with a, and a
    # missing one lets a 21-point rule step over a kink with a small error
    # estimate, which the fixed grid of a above can miss
    a = round(10**log_a) * (-1 if negative else 1)
    assume(a < 0 or math.isqrt(a) ** 2 != a)
    r = omega_inf_region(a, tol)
    c = omega_inf_chart(a, tol)
    assert abs(r.value - c.value) <= r.bound + c.bound, (a, tol, r, c)


def test_region_bounded_for_negative_a():
    r = omega_inf_region(-7)
    assert math.isfinite(r.value) and r.value > 0


def _section_by_scipy(c: float, K: float) -> float:
    """int dx / max(|c - x^2|, |x|, K) over R by scipy's QUADPACK, split at
    every crossing of the max on x >= 0: K, sqrt(c +- K), (+-1 + r)/2 with
    r = sqrt(1 + 4c).  Beyond the last crossing T the max is x^2 - c, smooth,
    and the tail is taken in x = T/u on (0, 1]."""
    from scipy.integrate import quad as scipy_quad

    def f(x):
        return 1.0 / max(abs(c - x * x), x, K)

    pts = {0.0, K, *(math.sqrt(c + d) for d in (K, -K) if c + d > 0)}
    if 1 + 4 * c > 0:
        pts |= {x for x in ((d + math.sqrt(1 + 4 * c)) / 2 for d in (1, -1)) if x > 0}
    grid = sorted(pts)
    T = grid[-1]
    total = math.fsum(scipy_quad(f, lo, hi, epsabs=0.0, epsrel=1e-12, limit=200)[0]
                      for lo, hi in zip(grid, grid[1:]))
    total += scipy_quad(lambda u: T / (T * T - c * u * u), 0.0, 1.0, epsabs=0.0, epsrel=1e-12)[0]
    return 2.0 * total


@pytest.mark.parametrize("K", [1.0, 1.5, 10.0, 1e3])
def test_section_equals_quad_of_its_integrand(K):
    # a (c, K) grid on both sides of each regime boundary c = 0, K^2 - K and
    # K^2 + K, and far beyond; an (a, x3) grid almost never lands in the band
    # K^2 - K < c <= K^2 + K
    for c in (-2 * K, -K / 2, K / 2, K * K - 2 * K, K * K - K / 2, K * K + K / 2, K * K + 2 * K, 1e6 * K * K):
        assert _section(c, K) == pytest.approx(_section_by_scipy(c, K), rel=1e-9), (c, K)


def _section_decimal(c: float, K: float) -> Decimal:
    """_section's three forms for c > 0 in the ambient decimal precision,
    with every gap to the pole and every band length a plain difference:
    at 60 digits these are exact far beyond where floats resolve them."""
    c, K = Decimal(c), Decimal(K)
    s, r = c.sqrt(), (1 + 4 * c).sqrt()
    em, xm, xp = max(c - K, Decimal(0)).sqrt(), (r - 1) / 2, (r + 1) / 2

    def poles(lo, hi):  # int_0^lo dx/(c - x^2) + int_hi^inf dx/(x^2 - c)
        return (((s + lo) / (s - lo)).ln() + ((hi + s) / (hi - s)).ln()) / (2 * s)

    if c > K * K + K:
        return 2 * (poles(xm, xp) + (xp / xm).ln())
    if c > K * K - K:
        return 2 * (poles(em, xp) + (K - em) / K + (xp / K).ln())
    ep = (c + K).sqrt()
    return 2 * (poles(em, ep) + (ep - em) / K)


def test_section_exact_far_from_the_origin():
    # the far half's section at large x3 against the same integral in 60-digit
    # decimal arithmetic, where the pole s = sqrt(c) and the edges
    # x-+ = (r -+ 1)/2 are resolved: either gap to the pole formed by
    # subtraction in floats is off by about eps sqrt(c) (3e-14 relative here)
    with localcontext() as ctx:
        ctx.prec = 60
        for a in (2, 45, 1000003):
            for x3 in (1e4, 1e6, 1e8):
                c = a * x3 * x3
                assert abs(Decimal(_section(c, x3)) / _section_decimal(c, x3) - 1) <= Decimal("1e-14"), (a, x3)


@pytest.mark.parametrize(
    "form, K, cs",
    [
        # K^2 - K < c <= K^2 + K; at K = 2^52, K^2 +- K are still floats
        (2, 2.0**30, lambda K: (K * K - K / 2, K * K - K / 7, K * K, K * K + K / 3, K * K + K)),
        (2, 3 * 2.0**50, lambda K: (K * K - K / 2, K * K, K * K + K / 2)),
        (2, 2.0**52, lambda K: (K * K - K / 2, K * K, K * K + K)),
        # 0 < c <= K^2 - K, from the boundary down to c below K
        (3, 2.0**30, lambda K: (K * K - K, K * K * 0.9, K * K / 3, K**1.5 * 1.7, K * 3, K / 3)),
        (3, 2.0**56, lambda K: (K * K * (1 - 2.0**-40), K * K * 0.9, K * K / 3, K**1.5 * 1.7, K / 3)),
        # c > K^2 + K with the pole s beyond 2^52
        (1, 2.0**30, lambda K: (K * K * 2.0**60 * 1.3, K * K * 2.0**50 / 3)),
    ],
    ids=["second-2^30", "second-3*2^50", "second-2^52", "third-2^30", "third-2^56", "first-2^30"],
)
def test_section_exact_in_each_form_at_large_K(form, K, cs):
    # each form far from the origin, against the 60-digit integral: a gap to
    # the pole or a band formed by subtraction in floats loses up to all of
    # its digits once ulp(s) nears it (s - e- is about K/(2s))
    with localcontext() as ctx:
        ctx.prec = 60
        for c in cs(K):
            assert form == (1 if c > K * K + K else 2 if c > K * K - K else 3), (form, K, c)
            assert abs(Decimal(_section(c, K)) / _section_decimal(c, K) - 1) <= Decimal("1e-14"), (form, K, c)


def test_far_half_for_negative_a():
    # for a < 0 the section at x3 >= 1 is pi/(sqrt|a| x3), and the half pi/sqrt|a|
    for a in (a for a in TESTBED if a < 0):
        far = lambda u: _section(a / (u * u), 1 / u) / u
        ref, _ = quad(far, 0.0, 1.0, limit=400, epsabs=1e-14, epsrel=1e-14)
        assert _far_half(a, 1e-9) == (math.pi / math.sqrt(-a), 0.0)
        assert abs(ref - math.pi / math.sqrt(-a)) <= 1e-13, (a, ref - math.pi / math.sqrt(-a))


def test_not_scale_invariant():
    assert abs(omega_inf_chart(3).value - omega_inf_chart(12).value) > 1e-3


def test_montecarlo_within_3_sigma():
    for a in (2, 5):
        c = omega_inf_chart(a)
        m = omega_inf_montecarlo(a, 300_000, seed=17)
        assert abs(m.value - c.value) <= 3 * m.bound, (a, m.value, c.value)


def test_square_a_rejected():
    with pytest.raises(ValueError):
        omega_inf_region(9)
    with pytest.raises(ValueError):
        omega_inf_chart(16)


def test_vol_SF_matches_formula():
    om = omega_inf_chart(-1).value
    v = vol_SF(-1, 1, 1, 1, 1, 1e4, samples=2_000_000, seed=3)
    pred = (2 / 3) * om * 1e4
    assert abs(v.value - pred) / pred < 0.02


def test_vol_SF_linear_in_B():
    v1 = vol_SF(2, 1, 1, 1, 1, 5e3, samples=500_000, seed=5)
    v2 = vol_SF(2, 1, 1, 1, 1, 1e4, samples=500_000, seed=6)
    assert abs(v2.value / v1.value - 2) < 0.05


def test_vol_SF_independent_of_a1():
    v1 = vol_SF(-1, 1, 1, 1, 1, 1e4, samples=500_000, seed=7)
    v3 = vol_SF(-1, 3, 1, 1, 1, 1e4, samples=500_000, seed=8)
    assert abs(v1.value - v3.value) / v1.value < 0.02


def test_vol_SF_scales_with_a234():
    om = omega_inf_chart(5).value
    v = vol_SF(5, 2, 1, 3, 1, 1e4, samples=2_000_000, seed=4)
    pred = (2 / 3) * om * 1e4 / 3
    assert abs(v.value - pred) / pred < 0.02


def test_vol_SF_degenerate():
    with pytest.raises(ValueError):
        vol_SF(-1, 1, 1, 1, 1, -5.0)
    with pytest.raises(ValueError):
        vol_SF(-1, 1, 1, 1, 1, 10.0, samples=1)


def test_gk21_exact_to_degree_31():
    # the Kronrod rule is exact for polynomials of degree 31, the embedded
    # Gauss rule to degree 19, so up to d = 19 the error estimate of x^d is
    # the roundoff floor 50 eps int|x^d| <= 1.2e-14
    for d in range(32):
        val, err = _gk21(lambda x: x**d, 0.0, 1.0)
        assert abs(val - 1 / (d + 1)) <= 1e-15, d
        if d <= 19:
            assert err <= 1.2e-14, d
    assert _gk21(lambda x: x**20, 0.0, 1.0)[1] > 1.2e-14


@pytest.mark.parametrize(
    "f, exact",
    [
        (math.exp, math.e - 1),  # smooth
        (lambda x: abs(x - 1 / 3), 5 / 18),  # a kink inside
        (lambda x: 1 / math.sqrt(x), 2.0),  # algebraic singularity at 0
        (lambda x: x**-0.9, 10.0),
    ],
)
def test_quad_known_integrals(f, exact):
    for eps in (1e-6, 1e-10):
        val, err = quad(f, 0.0, 1.0, limit=200, epsabs=eps, epsrel=eps)
        assert abs(val - exact) <= err, (eps, val - exact, err)


def test_quad_stops_at_limit():
    val, err = quad(lambda x: x**-0.9, 0.0, 1.0, limit=5, epsabs=1e-12, epsrel=0.0)
    assert err > 1e-12 and abs(val - 10.0) <= err


def _scipy_quad(f, lo, hi, limit, epsabs, epsrel):
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(f, lo, hi, limit=limit, epsabs=epsabs, epsrel=epsrel)


def test_integrals_within_error_of_scipy(monkeypatch):
    # the same integrands by scipy's QUADPACK at a tight tolerance
    with monkeypatch.context() as m:
        m.setattr(archimedean, "quad", _scipy_quad)
        refs = {a: (omega_inf_chart(a, 1e-11).value, omega_inf_region(a, 1e-11).value) for a in TESTBED}
    for a in TESTBED:
        for tol in (1e-6, 1e-9):
            pairs = zip(("chart", "region"), (omega_inf_chart(a, tol), omega_inf_region(a, tol)), refs[a])
            for name, om, ref in pairs:
                assert abs(om.value - ref) <= om.bound, (a, tol, name, om.value - ref)


@pytest.mark.parametrize("a", [-1000003, -569, 157, 236, 5215, 448115, 533172, 14372440])
def test_chart_and_region_agree_within_errors(a):
    # values of a where one 21-point panel stepped over a kink or a steep
    # fall of the integrand before the integrals were split at those points
    for tol in (1e-4, 1e-6, 1e-9):
        c, r = omega_inf_chart(a, tol), omega_inf_region(a, tol)
        assert abs(c.value - r.value) <= c.bound + r.bound, (tol, c.value - r.value)


def _vol_SF_whole(a, a1, a2, a3, a4, B, samples, seed):
    """vol_SF's (value, error estimate) with every value evaluated in one
    array of `samples` entries, then the sums over the leaves of BLOCK // 2
    samples (each leaf's kept draws) added in order: the reference the
    blocked passes match bit for bit."""
    S5 = (B / (a1 * a1 * a2 * a3 * a3)) ** (1 / 3)
    S4 = B / (a2**3 * a3**2 * a4**4)
    S2 = B / (a2 * a3 * a4)
    S1 = B * a1
    cc = a * a2**4 * a3**2 * a4**6
    rng = np.random.default_rng(seed)
    w = rng.random(samples) * S5 ** (1 / 2)
    r = rng.random(samples) * S4 ** (1 / 4)
    good = (w > 0) & (r > 0)
    w, r = w[good], r[good]
    x5 = w * w
    x6 = r * r / w
    lens = archimedean._section_len(cc * x6 * x6, S1 / x6, S2 / (x5 * x6))
    vals = 4.0 * (S5 ** (1 / 2)) * (S4 ** (1 / 4)) * r * lens
    leaf = BLOCK // 2
    ends = np.cumsum([good[i : i + leaf].sum() for i in range(0, samples, leaf)])
    S = Q = 0.0
    for part in np.split(vals, ends[:-1]):
        S += np.add.reduce(part)
        Q += np.add.reduce(part * part)
    mean = S / len(vals)
    var = (Q - S * mean) / (len(vals) - 1)
    return 4.0 * float(mean), 4.0 * math.sqrt(float(var)) / math.sqrt(len(vals))


@pytest.mark.parametrize("samples", [1000, BLOCK, 3 * BLOCK + 123, 10**6])
def test_vol_SF_blocks_give_the_whole_array_bits(samples):
    for args in ((-1, 1, 1, 1, 1, 1.0), (5, 2, 1, 3, 1, 1e4), (12, 3, 2, 1, 2, 777.0), (-1000003, 1, 1, 1, 1, 1.0)):
        v = vol_SF(*args, samples=samples, seed=3)
        assert (v.value, v.bound) == _vol_SF_whole(*args, samples, 3), (args, samples)


def test_montecarlo_memory_is_of_order_block():
    # No array of values is held: a leaf holds at most 16 float64 arrays of
    # BLOCK // 2 entries, and the bound allows BLOCK (the two draws and their
    # products with the box sides, w, r and the mask, x5, x6, the section's
    # three arguments and its temporaries, the values and their squares),
    # and the running sums three numbers.  Whole-array passes took about
    # 90 MB at 10^6 samples, and the array of values 8 bytes a sample.
    omega_inf_montecarlo(-1, 2, 1)  # imports and first-call set-up outside the trace
    for samples in (10**6, 10**7):
        tracemalloc.start()
        try:
            omega_inf_montecarlo(-1, samples, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 8 * BLOCK, (samples, peak)
