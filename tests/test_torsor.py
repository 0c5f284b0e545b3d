import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delpezzo.torsor import (
    ACTION_WEIGHTS,
    ProjectivePoint,
    TorsorTuple,
    act,
    height_tilde,
    magnitudes,
    normalize_point,
    orbit,
    psi,
    random_valid,
    validate,
    weight_rank_mod2,
)


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


def literal_height_tilde(a, a1, a2, a3, a4, a5, a6, a7):
    """The five-monomial height as the max of five Fractions (test oracle)."""
    if a1 == 0:
        raise ValueError("a1 must be nonzero")
    inner = a * a2**4 * a3**2 * a4**6 * a6**2 - a7 * a7
    return max(
        Fraction(abs(a6 * inner), abs(a1)),
        Fraction(abs(a2 * a3 * a4 * a5 * a6 * a7)),
        Fraction(abs(a1**2 * a2 * a3**2 * a5**3)),
        Fraction(abs(a2**3 * a3**2 * a4**4 * a5 * a6**2)),
        Fraction(abs(a1 * a2**2 * a3**2 * a4**2 * a5**2 * a6)),
    )


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
        assert height_tilde(a, 1, 1, 1, 1, 1, 1, 0) == max(abs(a), 1)
    with pytest.raises(ValueError):
        height_tilde(5, 0, 1, 1, 1, 1, 1, 0)


def test_action_involution_and_identity():
    rng = random.Random(3)
    _, t = random_valid(rng, (-1,))
    assert act((1, 1, 1, 1, 1), t) == t
    u = (-1, 1, -1, 1, -1)
    assert act(u, act(u, t)) == t


def test_orbits_and_height_descent():
    rng = random.Random(11)
    for a in (-1, 2, 5, 12):
        for _ in range(60):
            _, t = random_valid(rng, (a,))
            orb = orbit(t)
            assert len(orb) == 32
            # all orbit members valid and mapping to the same point
            images = set()
            for coords in orb:
                tt = TorsorTuple(*coords)
                assert validate(tt, a)[0]
                images.add(psi(tt, a).x)
                assert height_tilde(a, *coords[:7]) == height_tilde(a, *t[:7])
            assert len(images) == 1
            # the Weil height of the image equals the tuple height
            pt = psi(t, a)
            assert Fraction(pt.height) == height_tilde(a, *t[:7])


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
    if a1:
        h = height_tilde(a, *c)
        assert type(h) is Fraction and h == literal_height_tilde(a, *c)


def test_magnitudes_are_the_literal_a1_a6_conditions():
    # the conditions that name neither a7 nor a8, with a7, a8 set aside
    def a1_a6_ok(m):
        checks = literal_checks(*m, None, None)
        return all(math.gcd(x, y) == 1 for x, y, name in checks if "a7" not in name and "a8" not in name)

    want = tuple(m for m in itertools.product(range(1, 5), repeat=6) if a1_a6_ok(m))
    assert magnitudes() == want and len(want) == 272


def test_random_valid_draws_valid_tuples():
    rng = random.Random(5)
    seen = set()
    for _ in range(300):
        a, t = random_valid(rng, (-1, 2, 5, 12, -2))
        assert literal_validate(t, a) == (True, "ok")
        assert all(1 <= abs(c) <= 4 for c in t[:6]) and -9 <= t[6] <= 9
        seen.add(a)
    assert seen == {-1, 2, 5, 12, -2}


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
    first = ("gcd(a8,a5)", "gcd(a7,a2*a3*a4)", "gcd(a6,a1*a2*a3*a5)", "gcd(a5,a2*a4)", "gcd(a4,a1*a3)")
    assert reasons == {"ok"} | {f"{name} != 1" for name in first}
