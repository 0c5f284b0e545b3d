import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delpezzo.arith import TESTBED
from delpezzo.counting import _direct_box
from delpezzo.torsor import (
    ACTION_WEIGHTS,
    ProjectivePoint,
    TorsorTuple,
    act,
    height_tilde,
    normalize_point,
    orbit,
    orbit_representatives,
    psi,
    validate,
    weight_rank_mod2,
)
from oracles import literal_height_tilde


def literal_checks(a1, a2, a3, a4, a5, a6, a7, a8):
    """The coprimality conditions as (x, y, name), in the order validate reports them."""
    return [
        (a8, a5, "gcd(a8,a5)"),
        (a7, a2 * a3 * a4, "gcd(a7,a2*a3*a4)"),
        (a6, a1 * a2 * a3 * a5, "gcd(a6,a1*a2*a3*a5)"),
        (a5, a2 * a4, "gcd(a5,a2*a4)"),
        (a4, a1 * a3, "gcd(a4,a1*a3)"),
        (a3, a1, "gcd(a3,a1)"),
        (a2, a1, "gcd(a2,a1)"),
    ]


def literal_validate(t, a):
    """validate as first written: the nonvanishing and torsor-equation checks,
    then a list of gcd conditions (test oracle)."""
    a1, a2, a3, a4, a5, a6, a7, a8 = t
    if 0 in (a1, a2, a3, a4, a5, a6):
        return False, "a1..a6 must be nonzero"
    if a1 * a8 + a7 * a7 - a * a2**4 * a3**2 * a4**6 * a6**2 != 0:
        return False, "torsor equation fails"
    for x, y, name in literal_checks(*t):
        if math.gcd(x, y) != 1:
            return False, f"{name} != 1"
    return True, "ok"


def test_weights_span():
    assert len(ACTION_WEIGHTS) == 8
    assert weight_rank_mod2() == 5


def test_psi_unit_tuple():
    for a in (-1, 2, 5):
        t = TorsorTuple(1, 1, 1, 1, 1, 1, 0, a)
        pt = psi(t, a)
        target = normalize_point((a, 0, 1, 1, 1))
        assert pt.x == target
        assert pt.on_surface(a)
        assert pt.x[4] != 0


def test_psi_second_tuple_on_both_quadrics():
    for a in (-1, 3, 12):
        t = TorsorTuple(1, 1, 1, 1, 1, 1, 1, a - 1)
        pt = psi(t, a)
        assert pt.on_surface(a)


def test_validate():
    assert validate(TorsorTuple(1, 1, 1, 1, 1, 1, 0, -1), -1)[0]
    # torsor equation holds but gcd(a2, a1) = 2 (the a7 condition trips first
    # since a7 is forced even here; any failure is a rejection)
    ok, reason = validate(TorsorTuple(2, 2, 1, 1, 1, 1, 0, -8), -1)
    assert not ok and "gcd" in reason
    ok, reason = validate(TorsorTuple(1, 2, 1, 1, 2, 1, 1, -17), -1)
    assert not ok and "gcd(a5,a2*a4)" in reason
    ok, reason = validate(TorsorTuple(1, 1, 1, 1, 1, 1, 0, -2), -1)
    assert not ok and "torsor" in reason
    ok, reason = validate(TorsorTuple(1, 1, 0, 1, 1, 1, 0, -1), -1)
    assert not ok


def test_height_examples():
    for a in (-1, 5):
        assert height_tilde(TorsorTuple(1, 1, 1, 1, 1, 1, 0, a)) == max(abs(a), 1)


def test_height_is_the_largest_of_x0_x1_x2_on_the_surface():
    # every point of height <= 40 at the TESTBED a: no point's height needs
    # x3 or x4, and each of x0, x1, x2 is the one largest coordinate somewhere
    strict = set()
    for a in TESTBED:
        for x in _direct_box(a, 40):
            mags = [abs(c) for c in x]
            h = max(mags[:3])
            assert h == max(mags), (a, x)
            if mags.count(h) == 1:
                strict.add(mags.index(h))
    assert strict == {0, 1, 2}


def test_action_involution_and_identity():
    u = (-1, 1, -1, 1, -1)
    for t in orbit_representatives(-1):
        assert act((1, 1, 1, 1, 1), t) == t
        assert act(u, act(u, t)) == t


def test_orbits_and_height_descent():
    for a in (-1, 2, 5, 12):
        for t in orbit_representatives(a):
            orb = orbit(t)
            assert len(orb) == 32
            # all orbit members valid and mapping to the same point
            images = set()
            for coords in orb:
                tt = TorsorTuple(*coords)
                assert validate(tt, a)[0]
                images.add(psi(tt, a).x)
                assert height_tilde(tt) == height_tilde(t)
            assert len(images) == 1
            # the Weil height of the image equals the tuple height
            pt = psi(t, a)
            assert pt.height == height_tilde(t) == literal_height_tilde(a, *t[:7])


def test_orbit_representatives_meet_each_orbit_of_the_signed_box_once():
    # oracle: every valid tuple with |a1|..|a6| in {1, 2}, each of the 64 sign
    # patterns of a1..a6, and |a7| <= 3
    for a in (-1, 2, 12, -5):
        box = set()
        for mags in itertools.product((1, 2), repeat=6):
            for signs in range(64):
                c = [-m if signs >> i & 1 else m for i, m in enumerate(mags)]
                a1, a2, a3, a4, a5, a6 = c
                for a7 in range(-3, 4):
                    num = a * a2**4 * a3**2 * a4**6 * a6**2 - a7 * a7
                    if num % a1 == 0 and literal_validate((*c, a7, num // a1), a)[0]:
                        box.add((*c, a7, num // a1))
        reps = list(orbit_representatives(a))
        orbits = [orbit(t) for t in reps]
        assert all(len(o) == 32 for o in orbits)
        union = set().union(*orbits)
        assert len(union) == 32 * len(reps)  # pairwise disjoint
        assert union == box and box


def test_normalize_point_sign_convention():
    assert normalize_point((-2, 0, 4, -6, 2)) == (1, 0, -2, 3, -1)
    with pytest.raises(ValueError):
        normalize_point((0, 0, 0, 0, 0))


def test_projective_point_height():
    assert ProjectivePoint((1, 0, -2, 3, -1)).height == 3


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-10**6, 10**6), min_size=8, max_size=8))
def test_orbit_equals_action_of_every_sign_vector(coords):
    t = TorsorTuple(*coords)
    want = set()
    for mask in range(32):
        u = tuple(1 if mask >> i & 1 == 0 else -1 for i in range(5))
        want.add(act(u, t))
    assert orbit(t) == want


small = st.integers(-6, 6)


@settings(max_examples=400, deadline=None)
@given(a=st.integers(-20, 20), c=st.lists(small, min_size=7, max_size=7), a8=small, on=st.booleans())
def test_validate_and_height_equal_literal_oracles(a, c, a8, on):
    a1, a2, a3, a4, a5, a6, a7 = c
    num = a * a2**4 * a3**2 * a4**6 * a6**2 - a7 * a7
    if on and a1 and num % a1 == 0:
        a8 = num // a1  # on the torsor equation
    t = TorsorTuple(*c, a8)
    assert validate(t, a) == literal_validate(t, a)
    # the three-row maximum is the height only on the torsor of a surface S_a,
    # a a nonzero nonsquare: at a = 0, (1, 1, 1, 1, 1, 2, 0, 0) has x3 = 4 > 1
    nonsquare = a < 0 or (a > 0 and math.isqrt(a) ** 2 != a)
    if nonsquare and validate(t, a)[0]:
        h = height_tilde(t)
        assert type(h) is int and h == literal_height_tilde(a, *c)


def test_validate_reports_the_literal_first_failure_on_a_grid():
    # on the torsor equation with every |ai| <= 4; gcd(a3,a1) and gcd(a2,a1)
    # never fail first there: a prime dividing a1 and a2 (or a3) divides a7
    reasons = set()
    for a in (-1, 2):
        for c in itertools.product(range(1, 5), repeat=6):
            a1, a2, a3, a4, a5, a6 = c
            for a7 in range(4):
                num = a * a2**4 * a3**2 * a4**6 * a6**2 - a7 * a7
                if num % a1 == 0:
                    t = TorsorTuple(*c, a7, num // a1)
                    got = validate(t, a)
                    assert got == literal_validate(t, a)
                    reasons.add(got[1])
                    if got[0]:
                        assert height_tilde(t) == literal_height_tilde(a, *t[:7])
    first = ("gcd(a8,a5)", "gcd(a7,a2*a3*a4)", "gcd(a6,a1*a2*a3*a5)", "gcd(a5,a2*a4)", "gcd(a4,a1*a3)")
    assert reasons == {"ok"} | {f"{name} != 1" for name in first}
