import concurrent.futures
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from delpezzo import counting
from delpezzo.arith import OutOfRange
from delpezzo.counting import (
    _direct_box,
    _iroot,
    direct_count,
    moebius_slice_check,
    torsor_count,
)
from delpezzo.theta import theta0
from delpezzo.torsor import TorsorTuple, height_tilde, validate


def _torsor_all_signs(a: int, B) -> int:
    """Literal count of torsor tuples over all sign patterns, 32 per point
    (the test oracle of torsor_count; small B only)."""
    B1 = math.floor(B)
    raw = 0
    for a1 in _signed(math.isqrt(B1)):
        for a2 in _signed(_iroot(B1, 3)):
            for a3 in _signed(math.isqrt(B1)):
                if a1 * a1 * abs(a2) * a3 * a3 > B1:
                    continue
                for a4 in _signed(_iroot(B1, 4)):
                    for a5 in _signed(_iroot(B1, 3)):
                        if a1 * a1 * abs(a2 * a5**3) * a3 * a3 > B1:
                            continue
                        for a6 in _signed(math.isqrt(B1)):
                            if abs(a2**3 * a5) * a3 * a3 * a4**4 * a6 * a6 > B1:
                                continue
                            c = a * a2**4 * a3**2 * a4**6 * a6**2
                            H2 = B1 // abs(a2 * a3 * a4 * a5 * a6)
                            for a7 in range(-H2, H2 + 1):
                                if (c - a7 * a7) % a1:
                                    continue
                                a8 = (c - a7 * a7) // a1
                                t = TorsorTuple(a1, a2, a3, a4, a5, a6, a7, a8)
                                ok, _ = validate(t, a)
                                if ok and height_tilde(a, a1, a2, a3, a4, a5, a6, a7) <= B:
                                    raw += 1
    return raw


def _signed(hi: int):
    for v in range(1, hi + 1):
        yield v
        yield -v


# frozen on the first oracle run (O(B^3) box scan); regression constants
FROZEN = {
    (-1, 10): 42,
    (-1, 50): 378,
    (-1, 100): 954,
    (2, 50): 540,
    (5, 30): 212,
    (12, 40): 256,
}


def test_frozen_counts():
    for (a, B), want in FROZEN.items():
        assert direct_count(a, B).count == want, (a, B)


def test_direct_points_lie_on_surface():
    for a in (-1, 5):
        pts = _direct_box(a, 30)
        assert pts
        for x0, x1, x2, x3, x4 in pts:
            assert x0 * x4 + x1 * x1 - a * x3 * x3 == 0
            assert x2 * x3 - x4 * x4 == 0
            assert x4 != 0
            g = 0
            for c in (x0, x1, x2, x3, x4):
                g = math.gcd(g, c)
            assert g == 1
            assert max(abs(c) for c in (x0, x1, x2, x3, x4)) <= 30


def test_below_height_one():
    assert direct_count(-1, Fraction(1, 2)).count == 0
    assert torsor_count(-1, Fraction(1, 2)).count == 0


def test_square_a_rejected():
    with pytest.raises(ValueError):
        direct_count(4, 10)
    with pytest.raises(ValueError):
        torsor_count(9, 10)


def test_counters_agree_small():
    for a in (-1, 2, 3, -2):
        for B in (10, 35, 60):
            d = direct_count(a, B).count
            t = torsor_count(a, B).count
            raw = _torsor_all_signs(a, B)
            assert d == t and raw == 32 * t, (a, B, d, t, raw)


def test_direct_refuses_where_int64_could_overflow():
    # served while |a| B^(3/2) + B^(9/4) < 2^62: at B = 100, |a| < 4.6e15
    a = 4 * 10**15 + 1
    assert direct_count(a, 100).count == torsor_count(a, 100).count
    for a in (5 * 10**15 + 1, -(5 * 10**15 + 1), 10**19 + 1, 10**400 + 1):
        with pytest.raises(OutOfRange, match="int64"):
            direct_count(a, 100)
        assert torsor_count(a, 100).count == 0  # Python integers: no such limit


def test_pruned_equals_box():
    for a in (-1, 2, 45, 12, 17):
        for B in (80, 150):
            assert len(_direct_box(a, B)) == direct_count(a, B).count, (a, B)


# a = +-2^k m with m odd, k <= 5, kept when nonsquare
_nonsquare_a = st.builds(
    lambda sign, k, m: sign * 2**k * m,
    st.sampled_from((-1, 1)),
    st.integers(0, 5),
    st.integers(0, 7).map(lambda j: 2 * j + 1),
).filter(lambda a: a < 0 or math.isqrt(a) ** 2 != a)


@settings(max_examples=12, deadline=None)
@given(a=_nonsquare_a, B=st.fractions(min_value=0, max_value=60, max_denominator=7))
def test_counters_agree_random(a, B):
    box = len(_direct_box(a, math.floor(B))) if B >= 1 else 0
    assert box == direct_count(a, B).count == torsor_count(a, B).count
    assert 32 * box == _torsor_all_signs(a, B)


@settings(max_examples=300, deadline=None)
@given(
    a=st.integers(-500, 500).filter(lambda a: a != 0),
    k=st.integers(1, 40),
    u=st.integers(1, 60),
    v=st.integers(1, 60),
    t=st.integers(0, 3000),
)
def test_image_gcd_from_three_columns(a, k, u, v, t):
    # the pruned scan's g = gcd(gcd(D, X1), X0), D = gcd(x3 m, x4 c^2), is the
    # gcd of all five image components of a primitive triple (t, x3, x4)
    x3, x4 = k * u, k * v  # a common factor k makes c = gcd(x3, x4) > 1 likely
    c = math.gcd(x3, x4)
    assume(math.gcd(t, c) == 1)
    m = x4 // c
    t, x3, x4 = (np.array([w], dtype=np.int64) for w in (t, x3, x4))
    X0 = (a * x3 * x3 - t * t) * x3
    X1 = t * x3 * x4
    cols = np.stack([X0, X1, x4**3, x3 * x3 * x4, x3 * x4 * x4], axis=1)
    D = np.gcd(x3 * m, x4 * c * c)
    assert np.gcd(np.gcd(D, X1), X0) == np.gcd.reduce(np.abs(cols), axis=1)


def test_direct_refuses_large_B_before_workers(monkeypatch):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    with pytest.raises(ValueError):
        direct_count(-1, 100_001, jobs=2)


def test_monotone_in_B():
    prev = 0
    for B in (10, 20, 40, 80, 160):
        n = torsor_count(-1, B).count
        assert n >= prev
        prev = n


def test_rational_heights():
    # B rational: count points with H <= floor(B)
    assert torsor_count(-1, Fraction(201, 2)).count == torsor_count(-1, 100).count


def test_jobs_partition_deterministic():
    t1 = torsor_count(2, 250).count
    t2 = torsor_count(2, 250, jobs=2).count
    d1 = direct_count(2, 250).count
    d2 = direct_count(2, 250, jobs=2).count
    assert t1 == t2 == d1 == d2


def test_fan_out_starts_no_idle_workers(monkeypatch):
    # a fake process pool: it records its size and maps on one thread
    class OneThreadPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(1)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", OneThreadPool)
    monkeypatch.setattr(counting.os, "cpu_count", lambda: 4)
    # at most one worker per item and per core; one part runs in this process
    for n_items, jobs, want in ((3, 1, []), (3, 2, [2]), (3, 64, [3]), (9, 64, [4])):
        sizes = []
        parts = counting._fan_out(lambda k, part: k * sum(part), (10,), list(range(1, n_items + 1)), jobs)
        assert sum(parts) == 10 * n_items * (n_items + 1) // 2
        assert sizes == want


def test_moebius_seed_case():
    lhs, rhs = moebius_slice_check(-1, 1, 1, 1, 1, 100)
    assert lhs == rhs


def test_moebius_zero_below_minimum():
    lhs, rhs = moebius_slice_check(-1, 2, 1, 1, 1, 3)
    assert lhs == 0 and rhs == 0


def test_moebius_requires_admissible_slice():
    with pytest.raises(ValueError):
        moebius_slice_check(-1, 2, 2, 1, 1, 50)


def test_moebius_random_slices():
    rng = random.Random(99)
    done = 0
    while done < 25:
        a = rng.choice([-5, -4, -2, -1, 2, 3, 5, 6, 8, 12, 17, 18, 45])
        a1, a2, a3, a4 = (rng.randint(1, 6) for _ in range(4))
        if theta0(a1, a2, a3, a4) != 1:
            continue
        B = rng.randint(10, 150)
        done += 1
        lhs, rhs = moebius_slice_check(a, a1, a2, a3, a4, B)
        assert lhs == rhs, (a, (a1, a2, a3, a4), B)


def test_slices_reassemble_count():
    # sum over admissible positive slices of the completion count = 2 N(B)
    import math

    a, B = 2, 50
    total = 0
    from delpezzo.counting import _iroot, _slice_lhs

    for a1 in range(1, math.isqrt(B) + 1):
        for a2 in range(1, _iroot(B, 3) + 1):
            for a3 in range(1, math.isqrt(B) + 1):
                if a1 * a1 * a2 * a3 * a3 > B:
                    break
                for a4 in range(1, B + 1):
                    if a2**3 * a3**2 * a4**4 > B:
                        break
                    if theta0(a1, a2, a3, a4) != 1:
                        continue
                    total += _slice_lhs(a, a1, a2, a3, a4, B)
    assert total == 2 * torsor_count(a, B).count
