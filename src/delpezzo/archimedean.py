"""The real-place density omega_inf and the fundamental-domain volume.

Two independent routes to omega_inf:

  region:  (3/2) vol{ N(y5, y6, y7) <= 1 } with
           N = max{|y6 (a y6^2 - y7^2)|, |y5 y6 y7|, |y5^3|, |y5 y6^2|, |y5^2 y6|};
           the y7-section is solved exactly (a union of at most four
           intervals), leaving a 2-D integral that the substitution
           y5 = w^2, y6 = r^2/w turns into a bounded integrand on (0,1]^2,
           evaluated by nested adaptive quadrature.  The inner integral is
           split where the section length changes form (its square-root
           point y6^3 = 1/|a|, where the cap 1/(y5 y6) starts to bind, where
           the section closes), and the square-root point is substituted
           away.

  chart:   int dx1 dx3 / (|x3| max{|a x3^2 - x1^2|, |x1|, 1/|x3|, |x3|, 1});
           the x1-section has an elementary antiderivative on each max-branch
           piece, so the inner integral is exact and only the outer x3
           integral is numerical.  On 0 < x3 <= 1 it is taken in s, x3 = s^2,
           which turns the 4/sqrt(x3) growth at 0 into a bounded integrand,
           and split where the max changes form.  On x3 >= 1 the section is
           one closed form: pi/(sqrt|a| x3) for a < 0, so that half is
           pi/sqrt|a|, and `_far_section` for a > 0, integrated in u = 1/x3.

Both routes use `quad`, a globally adaptive 21-point Gauss-Kronrod rule
(QUADPACK's QAG with qk21, Piessens et al. 1983) whose error estimate is
QUADPACK's; the bound of the Estimate each returns covers the outer and the
inner quadrature.

Their agreement (1e-3 relative) is the real-place version of the density
identity between the height form and the chart measure.

vol_SF estimates vol{ (x5, x6, x7): Ntilde(a1..a4; x5, x6, x7) <= B } by
Monte Carlo with the exact x7-section, for comparison against
(2/3) omega_inf B / (a2 a3 a4).  At a1..a4 = 1 and B = 1 that volume is
(2/3) omega_inf, the third estimate of omega_inf (omega_inf_montecarlo).
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .arith import BLOCK, Estimate, OutOfRange, check_nonsquare, slice_monomials

# The largest Monte Carlo sample count served
MC_SAMPLES_MAX = 10**7  # criterion 08 draws this many


def check_mc_samples(samples: int) -> None:
    """Raise OutOfRange unless 2 <= samples <= MC_SAMPLES_MAX."""
    if not 2 <= samples <= MC_SAMPLES_MAX:
        raise OutOfRange(f"mc_samples = {samples} is not in 2..{MC_SAMPLES_MAX}")


# QUADPACK qk21: the Kronrod nodes in [0, 1), the centre last, with their
# weights, and the weights of the 10-point Gauss rule, whose nodes are
# xgk[1], xgk[3], ..., xgk[9].
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077282977182790,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
# the whole rule on [-1, 1], nodes in increasing order
_NODES = tuple(-x for x in _XGK) + _XGK[-2::-1]
_KRONROD = _WGK + _WGK[-2::-1]
_GAUSS_HALF = tuple(_WG[j // 2] if j % 2 else 0.0 for j in range(11))
_GAUSS = _GAUSS_HALF + _GAUSS_HALF[-2::-1]
_EPS = math.ulp(1.0)  # machine epsilon


def _gk21(f, lo: float, hi: float) -> tuple[float, float]:
    """The 21-point Kronrod value of int_lo^hi f and QUADPACK's error
    estimate resasc * min(1, (200 |K - G| / resasc)^1.5), at least
    50 eps resabs."""
    half = 0.5 * (hi - lo)
    mid = lo + half
    fx = [f(mid + half * x) for x in _NODES]
    kronrod = sum(w * y for w, y in zip(_KRONROD, fx))
    gauss = sum(w * y for w, y in zip(_GAUSS, fx))
    mean = 0.5 * kronrod  # the mean of f over [-1, 1]
    resabs = abs(half) * sum(w * abs(y) for w, y in zip(_KRONROD, fx))
    resasc = abs(half) * sum(w * abs(y - mean) for w, y in zip(_KRONROD, fx))
    err = abs((kronrod - gauss) * half)
    if resasc and err:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return kronrod * half, max(err, 50 * _EPS * resabs)


def quad(f, lo: float, hi: float, limit: int, epsabs: float, epsrel: float) -> tuple[float, float]:
    """int_lo^hi f and its error estimate, by QUADPACK's QAG scheme: bisect
    the panel with the largest error estimate until the summed estimate is
    at most max(epsabs, epsrel |I|) or `limit` panels are in use."""
    val, err = _gk21(f, lo, hi)
    panels = [(-err, lo, hi, val)]  # a heap: largest error first
    while err > max(epsabs, epsrel * abs(val)) and len(panels) < limit:
        e0, a, b, v0 = heapq.heappop(panels)
        m = 0.5 * (a + b)
        v1, e1 = _gk21(f, a, m)
        v2, e2 = _gk21(f, m, b)
        heapq.heappush(panels, (-e1, a, m, v1))
        heapq.heappush(panels, (-e2, m, b, v2))
        val += v1 + v2 - v0
        err += e1 + e2 + e0
    return math.fsum(p[3] for p in panels), math.fsum(-p[0] for p in panels)


def _section_len(c2, slack, cap):
    """Length of {y7 : |y7| <= cap, |c2 - y7^2| <= slack} (union of <= 4
    intervals, symmetric in y7), elementwise.  Where c2 + slack <= 0 or
    cap <= 0 the upper end is at most 0 and the length is 0."""
    upper = np.minimum(cap, np.sqrt(np.maximum(c2 + slack, 0.0)))
    lower = np.sqrt(np.maximum(c2 - slack, 0.0))
    return 2.0 * np.maximum(0.0, upper - lower)


def _toward(f, lo: float, hi: float, at_hi: bool):
    """The integrand over t in [0, 1] of int_lo^hi f(r) dr after
    r = lo + (hi - lo) t^2, or r = hi - (hi - lo) t^2 if at_hi: a square-root
    singularity of f at that end becomes smooth in t."""
    span = hi - lo
    if at_hi:
        return lambda t: 2 * span * t * f(hi - span * t * t)
    return lambda t: 2 * span * t * f(lo + span * t * t)


def _quartic_root(a: int, k: float, sign: int) -> float:
    """The root y > 0 of a y^4 + sign y = k, for a > 0, k >= 1, sign = +-1.
    Newton's method from a point where the left side exceeds k (a y^4 >= 2k
    and a y^4 >= 2y there) decreases monotonically to the root, because the
    left side is convex and increasing beyond that point."""
    y = max((2 * k / a) ** 0.25, (2 / a) ** (1 / 3))
    for _ in range(100):  # quadratic convergence: at most 7 steps seen
        step = (a * y**4 + sign * y - k) / (4 * a * y**3 + sign)
        y -= step
        if step <= 1e-15 * y:
            break
    return y


def omega_inf_region(a: int, tol: float = 1e-9) -> Estimate:
    """(3/2) vol{N <= 1} by exact y7-sections + nested quadrature.

    On {N <= 1}: |y5| <= 1 and |y5| y6^2 <= 1 (the y5^2|y6| <= 1 constraint is
    implied); substituting y5 = w^2, y6 = r^2/w maps the positive quadrant to
    (0,1]^2 with Jacobian 4 w r / w = 4r, and the y5, y6 sign symmetries give
    a factor 4.

    The r-integral is split where the section length changes form, so that
    each piece is smooth except at the square-root point:
      y6s = |a|^(-1/3), where a y6^2 -+ 1/y6 changes sign: the length behaves
          like sqrt|y6 - y6s| on one side, and the pieces that end there are
          taken in t with r - rs = +-(piece length) t^2;
      y6k, for a > 0, where the cap 1/(y5 y6) drops below sqrt(a y6^2 + 1/y6)
          (a y6^4 + y6 = 1/y5^2; for a < 0 the cap never binds);
      y6c, for a > 0, where sqrt(a y6^2 - 1/y6) reaches the cap and the
          section closes (a y6^4 - y6 = 1/y5^2); for a < 0 it closes at y6s.
    Without them, a 21-point rule can step over the steep fall between y6k
    and y6c, or read 0 with error 0 on a panel whose nodes all miss the
    support.
    """
    check_nonsquare(a)
    y6s = abs(a) ** (-1 / 3)
    inner_err = 0.0  # the largest error estimate of an inner integral

    def inner(w: float) -> float:
        nonlocal inner_err

        def f(r: float) -> float:
            y5 = w * w
            y6 = r * r / w
            c2 = a * y6 * y6
            return r * _section_len(c2, 1.0 / y6, 1.0 / (y5 * y6))

        rs = math.sqrt(w * y6s)
        if a < 0:
            cuts = [0.0, rs]
        else:
            k = 1 / w**4
            ends = (math.sqrt(w * _quartic_root(a, k, sign)) for sign in (1, -1))
            cuts = sorted({0.0, rs, *(min(1.0, r) for r in ends)})
        val = err = 0.0
        for lo, hi in zip(cuts, cuts[1:]):
            v, e = quad(_toward(f, lo, hi, hi == rs), 0.0, 1.0, limit=200, epsabs=tol, epsrel=1e-10)
            val, err = val + v, err + e
        inner_err = max(inner_err, err)
        return val

    val, err = quad(inner, 0.0, 1.0, limit=200, epsabs=tol, epsrel=1e-9)
    vol = 16.0 * val
    omega = 1.5 * vol
    # the outer integrand is known to within inner_err over a unit interval
    return Estimate(omega, max(24.0 * (err + inner_err), 10 * tol))


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


def _far_section(c: float) -> float:
    """_chart_section at x3 >= 1 and a > 1, in closed form.

    With x_-+ = (sqrt(1 + 4c) -+ 1)/2 (so x_+ - x_- = 1 and x_+ x_- = c),
    the max is c - x1^2 up to x_-, x1 up to x_+ and x1^2 - c beyond, once
    x3 >= 1/(a - 1).  The distances to the pole sqrt(c) are taken from
    r - 2 sqrt(c) = 1/(r + 2 sqrt(c)), r = sqrt(1 + 4c), not from the rounded
    positions, so the value stays exact where floats no longer resolve them."""
    s = math.sqrt(c)
    r = math.sqrt(1 + 4 * c)
    lo, hi = (r - 1) / 2, (r + 1) / 2
    e = 1 / (r + 2 * s)  # s - x_- = (1 - e)/2, x_+ - s = (1 + e)/2
    poles = math.log((s + lo) / ((1 - e) / 2)) + math.log((hi + s) / ((1 + e) / 2))
    return 2.0 * (poles / (2 * s) + math.log1p(1 / lo))


# The antiderivatives below are written as one log1p or atan of the whole
# difference, not as a difference of two logs or atans: as x3 -> 0, c -> 0
# and the two terms agree to more digits than a float holds.


def _int_inv_x2_minus_c(lo: float, hi: float, c: float) -> float:
    if c > 0:
        s = math.sqrt(c)
        return math.log1p(2 * s * (hi - lo) / ((hi + s) * (lo - s))) / (2 * s)
    if c < 0:
        s = math.sqrt(-c)
        return math.atan(s * (hi - lo) / (s * s + lo * hi)) / s
    return 1.0 / lo - 1.0 / hi


def _int_inv_c_minus_x2(lo: float, hi: float, c: float) -> float:
    s = math.sqrt(c)
    return math.log1p(2 * s * (hi - lo) / ((s - hi) * (s + lo))) / (2 * s)


def _tail_inv_x2_minus_c(T: float, c: float) -> float:
    if c > 0:
        s = math.sqrt(c)
        return math.log1p(2 * s / (T - s)) / (2 * s)
    if c < 0:
        s = math.sqrt(-c)
        return math.atan(s / T) / s
    return 1.0 / T


def _far_half(a: int, tol: float) -> tuple[float, float]:
    """int_{x3 >= 1} section(x3) dx3/x3 and its error estimate.  There K = x3
    and the max has one form: for a < 0 it is x1^2 + |a| x3^2 >= max(|x1|, x3)
    throughout, so the section is pi/(sqrt|a| x3); for a > 0 (so a >= 2) it is
    _far_section, valid for x3 >= 1/(a - 1)."""
    if a < 0:
        return math.pi / math.sqrt(-a), 0.0
    # x3 = 1/u, u in (0, 1], dx3/x3 = du/u
    return quad(lambda u: _far_section(a / (u * u)) / u, 0.0, 1.0, limit=400, epsabs=tol, epsrel=1e-10)


def omega_inf_chart(a: int, tol: float = 1e-9) -> Estimate:
    """The chart-measure integral with exact x1-sections."""
    check_nonsquare(a)

    def near(s: float) -> float:  # x3 = s^2, s in (0, 1], dx3/x3 = 2 ds/s
        return 2.0 * _chart_section(a, s * s) / s

    # With K = 1/x3, c = a x3^2, the max in the x1-section changes form at
    # |c| = K, i.e. |a| x3^3 = 1, where near() starts to fall steeply from
    # about 8, and for a > 0 also where the x1 branch meets the band
    # |c - x1^2| <= K, at c = K^2 -+ K, i.e. a x3^4 +- x3 = 1; between these
    # points near() is smooth.  Without a panel edge at each, a 21-point
    # rule can step over a kink with a small error estimate.
    x3_cuts = [abs(a) ** (-1 / 3)]
    if a > 0:
        x3_cuts += [_quartic_root(a, 1.0, sign) for sign in (1, -1)]
    cuts = sorted({0.0, 1.0, *(math.sqrt(min(x3, 1.0)) for x3 in x3_cuts)})
    val, err = _far_half(a, tol)
    for lo, hi in zip(cuts, cuts[1:]):
        v, e = quad(near, lo, hi, limit=400, epsabs=tol, epsrel=1e-10)
        val, err = val + v, err + e
    omega = 2.0 * val  # x3 < 0 by symmetry
    return Estimate(omega, max(2 * err, 10 * tol))


def omega_inf_montecarlo(a: int, samples: int, seed: int) -> Estimate:
    """Third estimate of omega_inf: (3/2) vol_SF on the slice a1..a4 = 1 at
    B = 1, where Ntilde is the five-monomial max norm N."""
    v = vol_SF(a, 1, 1, 1, 1, 1.0, samples, seed)
    return Estimate(1.5 * v.value, 1.5 * v.bound)


def vol_SF(
    a: int,
    a1: int,
    a2: int,
    a3: int,
    a4: int,
    B: float,
    samples: int = 10**6,
    seed: int = 1,
) -> Estimate:
    """MC volume of {(x5, x6, x7): Ntilde(a; a1..a4; x5, x6, x7) <= B}, for
    a slice's magnitudes a1..a4 >= 1.

    The x7-section is exact; (x5, x6) are sampled through x5 = s w^2,
    x6 = t r^2/|w| * k6 on the bounded box fixed by the monomial constraints
    M3 = m3 |x5|^3 <= B and M4 = m4 |x5| x6^2 <= B, with d7, m3, m4 and w the
    slice's arith.slice_monomials; x4's M5 = sqrt(M3 M4) <= B is implied
    there.  Compare against (2/3) omega_inf(a) B / (a2 a3 a4).

    The samples are drawn and evaluated in the leaves of numpy's pairwise
    sum over `samples` values: a node of more than BLOCK values splits at
    n2 = n // 2 rounded down to a multiple of 8 (`_pairwise_tree`).  A leaf
    keeps three numbers, its sum, its sum of squares and its count, and the
    leaf sums are added along the same tree.  Since np.add.reduce of a leaf
    is the pairwise sum of that subtree, the total is the bits of
    np.add.reduce over the whole array of values, and the estimate is
    `vals.mean()`'s bits without `vals`.  The standard error comes from the
    one-pass moments, (Q - S mean)/(n - 1).  A draw with w = 0 or r = 0
    (probability 2^-53 each) is dropped, and its leaf holds one value fewer.
    """
    if B <= 0:
        raise ValueError("B must be positive")
    check_mc_samples(samples)
    d7, m3, m4, w = slice_monomials(a1, a2, a3, a4)
    S5 = (B / m3) ** (1 / 3)
    S4 = B / m4
    S2 = B / d7
    S1 = B * a1
    cc = a * w * w

    # The stream draws all the w's, then all the r's; a second generator
    # moved on by `samples` draws gives the r's, so both are taken a leaf
    # at a time.
    rng_w = np.random.default_rng(seed)
    rng_r = np.random.default_rng(seed)
    rng_r.bit_generator.advance(samples)
    scale = 4.0 * (S5 ** (1 / 2)) * (S4 ** (1 / 4))  # dx5 dx6 = 2w dw * 2r/w dr
    sums = []  # (S, Q, n) of the open subtrees, left to right
    for size in _pairwise_tree(samples):
        if not size:  # the last two subtrees close into their parent
            (s1, q1, n1), (s2, q2, n2) = sums.pop(-2), sums.pop()
            sums.append((s1 + s2, q1 + q2, n1 + n2))
            continue
        w = rng_w.random(size) * S5 ** (1 / 2)
        r = rng_r.random(size) * S4 ** (1 / 4)
        good = (w > 0) & (r > 0)
        w, r = w[good], r[good]
        x5 = w * w
        x6 = r * r / w
        # scaled in place: one 128 KiB temporary fewer to free at the top
        # of the heap, which glibc would hand back to the OS and fault back
        # in at the next leaf (5x the page faults, 1.4x the time at 10^6)
        v = _section_len(cc * x6 * x6, S1 / x6, S2 / (x5 * x6))
        v *= scale * r
        sums.append((np.add.reduce(v), np.add.reduce(v * v), len(v)))
    [(S, Q, kept)] = sums
    mean = S / kept
    var = (Q - S * mean) / (kept - 1)
    est = 4.0 * float(mean)  # sign symmetry in x5 and x6
    stderr = 4.0 * math.sqrt(float(var)) / math.sqrt(kept)
    return Estimate(est, stderr)


def _pairwise_tree(n: int):
    """The tree of numpy's pairwise sum over n values in post-order, down to
    leaves of at most BLOCK values: each leaf's size, then a 0 where its
    parent adds its two subtrees' sums."""
    if n <= BLOCK:
        yield n
        return
    n2 = n // 2 - n // 2 % 8
    yield from _pairwise_tree(n2)
    yield from _pairwise_tree(n - n2)
    yield 0
