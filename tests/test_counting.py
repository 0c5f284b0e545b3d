import concurrent.futures
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from delpezzo import counting
from delpezzo.arith import BLOCK, TESTBED, OutOfRange, theta0
from delpezzo.counting import (
    _direct_box,
    _direct_pruned_count,
    _iroot,
    _Slice,
    _slice_lhs,
    direct_count,
    moebius_slice_check,
    slices,
    torsor_count,
)
from delpezzo.torsor import TorsorTuple, validate
from oracles import literal_height_tilde


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
                                if ok and literal_height_tilde(a, a1, a2, a3, a4, a5, a6, a7) <= B:
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


def test_direct_serves_any_a_on_python_integers():
    # no value of the pruned scan is fixed-width, so no |a| is refused; a
    # 64-bit scan would overflow at |a| B^(3/2) near 2^63, here |a| ~ 10^16
    for a in (4 * 10**15 + 1, 5 * 10**15 + 1, -(5 * 10**15 + 1), 10**19 + 1, 10**400 + 1):
        assert direct_count(a, 100).count == torsor_count(a, 100).count, a


def test_torsor_refuses_B_whose_root_overflows_the_outer_loop(monkeypatch):
    # isqrt(B) >= 2^63: range(1, isqrt(B) + 1) has no C length, and at 10^400
    # the float root in _iroot overflows; refused before any slice is walked
    monkeypatch.setattr(counting, "_fan_out", lambda *args: pytest.fail("the outer loop ran"))
    for B in (2**126, 10**400, float(2**126)):
        with pytest.raises(OutOfRange, match="2\\^63"):
            torsor_count(-1, B)
    counting.check_torsor_B(2**126 - 1)  # isqrt = 2^63 - 1: in range


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
    a=(st.integers(-500, 500) | st.integers(-(10**12), 10**12)).filter(lambda a: a != 0),
    k=st.integers(1, 40),
    u=st.integers(1, 60),
    v=st.integers(1, 60),
    t=st.integers(0, 3000),
)
def test_image_gcd_from_residue_class(a, k, u, v, t):
    # the pruned scan's g = c gcd(n, c^2) gcd(m, a x3^2 - t^2), for x3 = c n,
    # x4 = c m, c = gcd(x3, x4), is the gcd of all five image components of
    # a primitive triple (t, x3, x4)
    x3, x4 = k * u, k * v  # a common factor k makes c = gcd(x3, x4) > 1 likely
    c = math.gcd(x3, x4)
    assume(math.gcd(t, c) == 1)
    n, m = x3 // c, x4 // c
    image = ((a * x3 * x3 - t * t) * x3, t * x3 * x4, x4**3, x3 * x3 * x4, x3 * x4 * x4)
    assert c * math.gcd(n, c * c) * math.gcd(m, a * x3 * x3 - t * t) == math.gcd(*image)


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
    t1 = torsor_count(2, 250)
    t2 = torsor_count(2, 250, jobs=2)
    d1 = direct_count(2, 250).count
    d2 = direct_count(2, 250, jobs=2).count
    assert t1.count == t2.count == d1 == d2
    assert t1.stats == t2.stats  # visited and weighted_positive


def test_fan_out_starts_no_idle_workers(monkeypatch):
    # a fake process pool: it records its size and its tasks, and maps on one thread
    class OneThreadPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(1)

        def submit(self, fn, *args):
            tasks.append(args)
            return super().submit(fn, *args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", OneThreadPool)
    monkeypatch.setattr(counting.os, "cpu_count", lambda: 4)
    # at most one worker per item and per core, and one task per item
    for n_items, jobs, want in ((3, 1, []), (3, 2, [2]), (3, 64, [3]), (9, 64, [4])):
        sizes, tasks = [], []
        items = range(1, n_items + 1)
        results = counting._fan_out(lambda k, item: k * item, (10,), items, jobs)
        assert results == [10 * item for item in items]
        assert sizes == want
        assert tasks == ([(item,) for item in items] if want else [])


def test_torsor_memory_is_one_table():
    # a torsor count holds the rho classes of one a1 at a time, a few of
    # them, and one (weighted, visited) result per a1 <= sqrt(B), each some
    # tens of bytes; the lru_cache of `factorize` gains the a1 <= sqrt(B),
    # some 23 kB here, the whole of the traced peak beyond the 22 kB it has
    # with that cache filled.  Square-root tables kept for every a1 would
    # hold about B/2 residues, 10000 here, some 500 kB.  (tracemalloc slows
    # the count about 25-fold, hence the small B.)
    B = 20_000
    torsor_count(-1, 100)  # first-call set-up outside the trace
    tracemalloc.start()
    try:
        torsor_count(-1, B)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 500 * math.isqrt(B), peak


def test_pruned_memory_is_of_order_block():
    # a call holds no t-candidates, only its per-m residue table: the
    # residues grouped by r^2 mod m, then by h = gcd(m, a x3^2 - r^2) for
    # each a x3^2 mod m that a pair within the pair test meets, so at most
    # m + 1 groupings of the m residues, one at m = 1.  At a = 2, B = 10^5
    # the peak was 52 kB at m = 1 (nearly all of it arith.factorize's cache
    # of the c <= 316) and 139 kB at m = isqrt(B), where the table is largest.
    _direct_pruned_count(2, 100, 1)  # first-call set-up outside the trace
    for m in (1, math.isqrt(10**5)):
        tracemalloc.start()
        try:
            _direct_pruned_count(2, 10**5, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 8 * BLOCK, (m, peak)


def test_moebius_seed_case():
    lhs, rhs = moebius_slice_check(-1, 1, 1, 1, 1, 100)
    assert lhs == rhs


def test_moebius_zero_below_minimum():
    lhs, rhs = moebius_slice_check(-1, 2, 1, 1, 1, 3)
    assert lhs == 0 and rhs == 0


def test_moebius_requires_admissible_slice():
    with pytest.raises(ValueError):
        moebius_slice_check(-1, 2, 2, 1, 1, 50)


@settings(max_examples=30, deadline=None)
@given(
    a=st.sampled_from(TESTBED)
    | st.integers(-(10**12), 10**12).filter(lambda a: a < 0 or math.isqrt(a) ** 2 != a),
    B=st.integers(10, 150),
)
def test_moebius_on_walked_slices(a, B):
    # both sides agree on every slice the torsor counter walks, at an a that
    # may lie off the testbed grid
    for a1 in range(1, math.isqrt(B) + 1):
        for s in slices(B, a1):
            lhs, rhs = moebius_slice_check(a, *s, B)
            assert lhs == rhs, (a, s, B)


def test_slices_reassemble_count():
    # the walk yields the admissible slices in order, and they are those whose
    # box is nonempty; the completions over them sum to 2 N(B).  4096 = 16^3 =
    # 8^4 puts the walk's closed-form bounds exactly on a cube and a 4th power
    for a, B in ((-1, 1), (2, 2), (2, 50), (-5, 200), (-1, 997), (12, 997), (-1, 4096)):
        admissible = []
        for a1 in range(1, math.isqrt(B) + 1):
            for a2 in range(1, _iroot(B, 3) + 1):
                for a3 in range(1, math.isqrt(B) + 1):
                    if a1 * a1 * a2 * a3 * a3 > B:
                        break
                    for a4 in range(1, B + 1):
                        if a2**3 * a3**2 * a4**4 > B:
                            break
                        if theta0(a1, a2, a3, a4) == 1:
                            admissible.append((a1, a2, a3, a4))
        walked = [s for a1 in range(1, math.isqrt(B) + 1) for s in slices(B, a1)]
        assert walked == admissible, (a, B)
        boxes = {s: _Slice(a, B, *s) for s in admissible}
        nonempty = {s for s, box in boxes.items() if box.a5_hi() >= 1 and box.a6_hi(1) >= 1}
        assert nonempty == set(walked), (a, B, sorted(nonempty ^ set(walked)))
        assert sum(_slice_lhs(a, box) for box in boxes.values()) == 2 * torsor_count(a, B).count, (a, B)
