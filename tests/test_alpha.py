import math
from fractions import Fraction

import pytest

from delpezzo.alpha_polytope import (
    ALPHA,
    HPolytope,
    exact_volume,
    polytope_mc_volume,
    v0_montecarlo,
    v0_polytope,
    v0_volume,
    vertices,
)

f = Fraction


def _box(d):
    rows = [(tuple(f(-1) if j == i else f(0) for j in range(d)), f(0)) for i in range(d)]
    rows += [(tuple(f(1) if j == i else f(0) for j in range(d)), f(1)) for i in range(d)]
    return HPolytope(rows)


def test_unit_cube():
    assert exact_volume(_box(4)) == 1
    assert exact_volume(_box(3)) == 1


def test_standard_simplex():
    rows = [(tuple(f(-1) if j == i else f(0) for j in range(4)), f(0)) for i in range(4)]
    rows.append(((f(1), f(1), f(1), f(1)), f(1)))
    assert exact_volume(HPolytope(rows)) == Fraction(1, 24)


def test_unbounded_rejected():
    rows = [(tuple(f(-1) if j == i else f(0) for j in range(3)), f(0)) for i in range(3)]
    with pytest.raises(ValueError):
        exact_volume(HPolytope(rows))


def test_unbounded_along_diagonal_rejected():
    # recession ray (1, 1, 0) not aligned with any coordinate axis
    rows = [(tuple(f(-1) if j == i else f(0) for j in range(3)), f(0)) for i in range(3)]
    rows.append(((f(1), f(-1), f(0)), f(0)))
    rows.append(((f(-1), f(1), f(0)), f(0)))
    rows.append(((f(0), f(0), f(1)), f(1)))
    with pytest.raises(ValueError):
        exact_volume(HPolytope(rows))


def test_unbounded_strip_rejected():
    # {x + y <= 1, -x - y <= 0, -x <= 0} recedes along (1, -1), whose
    # coordinates sum to 0; its vertices (0, 0) and (0, 1) span only a line
    rows = [((f(1), f(1)), f(1)), ((f(-1), f(-1)), f(0)), ((f(-1), f(0)), f(0))]
    with pytest.raises(ValueError, match="unbounded"):
        exact_volume(HPolytope(rows))


def test_v0_polytope_membership():
    P = v0_polytope()
    assert P.contains((0, 0, 0, 0))
    assert P.contains((f(1, 2), 0, 0, 0))
    assert P.contains((0, 0, 0, f(1, 6)))
    assert not P.contains((f(1, 2), f(1, 10), 0, 0))


def test_v0_volume_exact():
    # three-way established value (triangulation, iterated integration, MC):
    # vol(P) = 1/576 = 3 * alpha, recovering alpha = 1/1728
    v = v0_volume()
    assert v == Fraction(1, 576)
    assert v == 3 * ALPHA
    assert ALPHA == Fraction(1, 1728)


def test_v0_volume_by_iterated_integration():
    # independent route: vol = (1/6) * int over u1, u2 of the exact u3
    # antiderivative of max(0, c0 - 2 u3) on [0, hi], with c0 = 1 + u1 - 4 u2
    # and hi = (1 - 2 u1 - u2)/2, the outer integral on the n x n midpoint grid
    # u1 = (2i+1)/(4n), u2 = (1 - 2 u1)(2j+1)/(2n).  Both are multiples of
    # 1/D, D = 4n^2, so each term is an integer over one common denominator:
    # with U1 = D u1, U2 = D u2, H = 2D hi and C = D c0, the inner integral is
    # c0 top - top^2 = (2 C T - T^2) / (4 D^2) for T = min(H, C) = 2D top,
    # and the weight 1 - 2 u1 is W / (2n)
    n = 400
    D = 4 * n * n
    total = 0
    for i in range(n):
        U1, W = (2 * i + 1) * n, 2 * n - 2 * i - 1
        inner = 0
        for j in range(n):
            U2 = W * (2 * j + 1)
            T = min(D - 2 * U1 - U2, D + U1 - 4 * U2)
            if T > 0:
                inner += 2 * (D + U1 - 4 * U2) * T - T * T
        total += W * inner
    # sum of terms / (4 D^2 * 2n), times the cell area (1/2)(1/n^2) and 1/6
    volume = Fraction(total, 4 * D * D * 2 * n) * Fraction(1, 2 * n * n * 6)
    assert abs(float(volume) - 1 / 576) < 1e-5


def test_anchor_order_independence():
    P = v0_polytope()
    assert exact_volume(P, anchor_order=0) == exact_volume(P, anchor_order=1)


def test_vertex_count():
    P = v0_polytope()
    vs = vertices(P)
    assert (f(0), f(0), f(0), f(0)) in vs
    assert len(vs) >= 5


def test_mc_three_sigma():
    est, se = polytope_mc_volume(v0_polytope(), 10**6, seed=42)
    assert abs(est - 1 / 576) <= 3 * se


def test_v0_montecarlo_consistency():
    B = math.e**4
    est, se = v0_montecarlo(B, 10**6, seed=7)
    pred = float(3 * ALPHA) * B * math.log(B) ** 4  # = vol(P) B (log B)^4
    assert abs(est - pred) <= 3 * se
    assert v0_montecarlo(1.0, 100, 1) == (0.0, 0.0)
    assert v0_montecarlo(0.5, 100, 1) == (0.0, 0.0)


def test_v0_montecarlo_seed_stability():
    B = 200.0
    e1, s1 = v0_montecarlo(B, 400_000, seed=1)
    e2, s2 = v0_montecarlo(B, 400_000, seed=2)
    assert abs(e1 - e2) <= 3 * (s1 + s2)
