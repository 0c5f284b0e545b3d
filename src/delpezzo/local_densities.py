"""Nonarchimedean local densities of the surface at a prime p.

Closed forms (exact rationals):

    r_a(p)     four-case formula built on the quadratic symbol and eta
    s_a(2)     the 2-adic correction sum over eta(2^(v+k+1); a)
    omega_p    (1 - 1/p)^5 (1 + (5 + r_a(p))/p + 1/p^2)

plus the K = Q squarefree table (remark_omega) used as an exact cross-check.

Independent oracle:  omega_p_bruteforce integrates

    omega_H_p = int int dx1 dx3 / ( |x3| * max{|a*x3^2-x1^2|, |x1|, |x3|^-1, |x3|, 1} )

over Q_p^2 by exact summation over valuation cells (alpha, beta) = (v(x1), v(x3)).
On a cell the integrand is constant unless 2*alpha = 2*beta + v_p(a) ("tie"
cells), where kappa = v_p(a(x3/x1)^2 - 1) enters; there the unit residues
u = x1 / p^alpha are counted by kappa at just enough precision to resolve it up
to the point where the max stops depending on it.  The counts come from the
exhaustive square-root tower of eta.root_tower (digit-by-digit lifting of
u^2 = a/p^v_p(a)), so no residue table is built and any depth is reachable.
Truncation outside the cell window is controlled by a rigorous geometric tail
bound (derivation in the comments of _tail_bound).  The oracle never uses the
closed-form case table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import check_nonsquare, factorize, kronecker, valuation
from .eta import eta_closed, root_tower


def r_a(p: int, a: int) -> Fraction:
    """The Euler-factor correction r_a(p) entering omega_p."""
    check_nonsquare(a)
    v = valuation(p, a)
    if p != 2 and v == 0:
        return Fraction(kronecker(a, p))
    if v % 2 == 1:
        return 1 - Fraction(1, p ** (v // 2)) * (1 + Fraction(1, p))
    if p != 2:
        return 1 - Fraction(1, p ** (v // 2)) * (1 - kronecker(a // p**v, p))
    return 1 - Fraction(1, 2 ** (v // 2)) * (2 - s_a(a))


def s_a(a: int) -> Fraction:
    """The 2-adic density correction s_a(2), defined for even v_2(a)."""
    v = valuation(2, a)
    if v % 2 == 1:
        raise ValueError("s_a requires even v_2(a)")
    v4 = 2  # v_2(4)
    out = (1 - Fraction(1, 2)) * sum(
        Fraction(eta_closed(2, v + k + 1, a), 2**k) for k in range(v4)
    )
    out += Fraction(eta_closed(2, v + v4 + 1, a), 2**v4)
    return out


def omega_p(p: int, a: int) -> Fraction:
    """Local density omega_p = (1-1/p)^5 (1 + (5+r_a(p))/p + 1/p^2), exact."""
    one_minus = 1 - Fraction(1, p)
    return one_minus**5 * (1 + (5 + r_a(p, a)) / p + Fraction(1, p * p))


def remark_omega(p: int, a: int) -> Fraction:
    """The squarefree-a table for omega_p over Q (independent of r_a/s_a)."""
    if any(e > 1 for _, e in factorize(a)):
        raise ValueError("table only valid for squarefree a")
    one_minus = 1 - Fraction(1, p)
    if a % p == 0:
        inner = 1 + Fraction(5, p)
    elif p == 2:
        m = a % 8
        if m == 1:
            inner = Fraction(17, 4)
        elif m == 5:
            inner = Fraction(15, 4)
        else:  # 3, 7 mod 8
            inner = Fraction(7, 2)
    elif kronecker(a, p) == 1:
        inner = 1 + Fraction(6, p) + Fraction(1, p * p)
    else:
        inner = 1 + Fraction(4, p) + Fraction(1, p * p)
    return one_minus**5 * inner


def sum_kpk(q, n: int) -> Fraction:
    """sum_{k > n} k/q^k = (1-1/q)^(-2) ((n+1)/q^(n+1) - n/q^(n+2)), q > 1."""
    q = Fraction(q)
    if q <= 1:
        raise ValueError("q must exceed 1")
    if n < 0:
        raise ValueError("n must be nonnegative")
    return (1 - 1 / q) ** -2 * (Fraction(n + 1) / q ** (n + 1) - Fraction(n) / q ** (n + 2))


@dataclass
class LocalDensity:
    value: Fraction
    tail_bound: Fraction


def _pf(p: int, e: int) -> Fraction:
    """p^e as an exact Fraction, e any integer."""
    return Fraction(p**e) if e >= 0 else Fraction(1, p**-e)


def _kappa_histogram(p: int, a_unit: int, nmax: int) -> tuple[list[int], int]:
    """#{units u mod p^nmax : v_p(a_unit - u^2) = j} for j < nmax, plus the
    count with v >= nmax (including exact zeros).

    With R_j the number of roots of u^2 = a_unit mod p^j (all units), the
    units with v >= j number p^(nmax-j) R_j for j >= 1 and phi(p^nmax) for
    j = 0; the histogram is the difference of consecutive counts.
    """
    R = [len(level) for level in root_tower(p, nmax, a_unit)]
    at_least = [p ** (nmax - 1) * (p - 1)] + [p ** (nmax - j) * R[j] for j in range(1, nmax + 1)]
    return [at_least[j] - at_least[j + 1] for j in range(nmax)], R[nmax]


def omega_p_bruteforce(p: int, a: int, Vmax: int) -> LocalDensity:
    """omega_p by the valuation-cell integral oracle, with a rigorous tail bound.

    Returns (1-1/p)^5 * omega_H_p for direct comparison with omega_p.
    """
    gamma = valuation(p, a)
    vmin = valuation(p, 4 * a) + 4
    if Vmax < vmin:
        raise ValueError(f"Vmax = {Vmax} too small; need at least v_p(4a)+4 = {vmin}")

    V = Vmax
    B2 = 2 * V + 2          # window for beta > 0 (mass decays like p^(-beta/2))
    A1 = 2 * V + gamma + 4  # window for alpha < 0
    A2 = 2 * V + 2          # window for alpha > 0
    one_minus = 1 - Fraction(1, p)

    tie_possible = gamma % 2 == 0
    gp = gamma // 2

    # unit-residue histogram at the deepest precision any tie cell needs
    nmax = 0
    if tie_possible:
        for beta in range(-V, 0):
            ec = max(-(beta + gp), -beta, 0)
            nmax = max(nmax, max(0, -ec - 2 * beta - gamma))
    hist: list[int] = []
    ge = 0
    if nmax > 0:
        hist, ge = _kappa_histogram(p, a // p**gamma, nmax)

    total = Fraction(0)
    for beta in range(-V, B2 + 1):
        for alpha in range(-A1, A2 + 1):
            is_tie = tie_possible and 2 * alpha == 2 * beta + gamma
            ec = max(-alpha, abs(beta), 0)
            if not is_tie:
                m = min(2 * alpha, 2 * beta + gamma)
                e_M = max(-m, ec)
                total += one_minus**2 * _pf(p, -alpha - e_M)
                continue
            kappa0 = max(0, -ec - 2 * beta - gamma)
            if kappa0 == 0:
                total += one_minus**2 * _pf(p, -alpha - ec)
                continue
            # resolve kappa classes up to kappa0; beyond that M = p^ec
            scale = p ** (nmax - kappa0)
            inner = Fraction(0)
            used = 0
            for j in range(kappa0):
                cnt = hist[j] // scale
                used += cnt
                inner += cnt * _pf(p, 2 * beta + gamma + j)
            total_units = p ** (kappa0 - 1) * (p - 1)
            inner += (total_units - used) * _pf(p, -ec)
            total += one_minus * _pf(p, -alpha - kappa0) * inner

    tail = _tail_bound(p, gamma, V, B2, A1, A2)
    return LocalDensity(one_minus**5 * total, one_minus**5 * tail)


def _tail_bound(p: int, gamma: int, V: int, B2: int, A1: int, A2: int) -> Fraction:
    """Upper bound for the omega_H_p mass outside the enumerated cell window.

    Per cell, measure * integrand <= p^(-alpha) / M with
    M >= max(p^(-m), p^(-alpha), p^|beta|), m = min(2 alpha, 2 beta + gamma).
    Writing s = |alpha|, b = |beta|, the families are:

    F1  alpha >= 0 (ties included):       T <= p^(-alpha - b)
    F2  alpha < 0, 2 alpha < 2 beta + gamma (so s > b - gamma/2 when beta < 0):
        T <= min(p^(-s), p^(s - b))
    F3  alpha <= 0, 2 alpha > 2 beta + gamma (so b > s + gamma/2, beta < 0):
        T <= p^(s - (2b - gamma)) summed over s <= b - ceil(gamma/2)
    F4  tie cells alpha = beta + gamma/2, beta < -V:
        T <= (1 - 1/p) H (b - gamma + 1) p^(-b + gamma/2)
        using mu(kappa >= j) <= H p^(-alpha - j) with H = 2 (p odd), 4 (p = 2),
        the unit square-root count mod p^j.

    All series are geometric or sum_{b>n} b p^(-b) (closed form sum_kpk).
    """
    one_minus = 1 - Fraction(1, p)
    geo = lambda e: _pf(p, -e) * p / (p - 1)  # sum_{x >= e} p^-x
    H = 4 if p == 2 else 2
    cg = (gamma + 1) // 2  # ceil(gamma/2)
    fg = gamma // 2

    bound = Fraction(0)
    # F1, beta out of window
    s_alpha = Fraction(p, p - 1)
    bound += s_alpha * (geo(B2 + 1) + geo(V + 1))
    # F1, alpha > A2 inside beta window
    bound += geo(A2 + 1) * (1 + 2 * Fraction(1, p - 1))
    # F2, beta > B2: sum_s min(p^-s, p^(s-b)) <= (p+1)/(p-1) p^(-floor(b/2))
    j0 = (B2 + 2) // 2  # floor(b/2) >= j0 for b > B2
    bound += Fraction(p + 1, p - 1) * 2 * geo(j0)
    # F2, beta < -V: T <= p^(-s) over s >= b - cg
    bound += _pf(p, cg) * Fraction(p, p - 1) * geo(V + 1)
    # F2, alpha < -A1 inside beta window
    bound += (V + B2 + 2) * geo(A1 + 1)
    # F3, beta < -V: per b, sum_s p^(s - 2b + gamma) <= (p/(p-1)) p^(fg - b)
    bound += Fraction(p, p - 1) * _pf(p, fg) * geo(V + 1)
    # F4 tie tail
    if gamma % 2 == 0:
        sum_b = sum_kpk(p, V)  # sum_{b > V} b p^-b
        sum_1 = geo(V + 1)
        bound += one_minus * H * _pf(p, fg) * (sum_b + (1 - gamma) * sum_1)
    return bound
