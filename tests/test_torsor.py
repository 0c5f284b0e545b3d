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
    normalize_point,
    orbit,
    psi,
    validate,
    weight_rank_mod2,
)


def rand_valid(rng, a, tries=20000):
    for _ in range(tries):
        c = [rng.choice([-1, 1]) * rng.randint(1, 4) for _ in range(6)]
        a7 = rng.randint(-9, 9)
        num = a * c[1] ** 4 * c[2] ** 2 * c[3] ** 6 * c[5] ** 2 - a7 * a7
        if num % c[0]:
            continue
        t = TorsorTuple(*c, a7, num // c[0])
        if validate(t, a)[0]:
            return t
    raise RuntimeError("no valid tuple found")


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
    t = rand_valid(rng, -1)
    assert act((1, 1, 1, 1, 1), t) == t
    u = (-1, 1, -1, 1, -1)
    assert act(u, act(u, t)) == t


def test_orbits_and_height_descent():
    rng = random.Random(11)
    for a in (-1, 2, 5, 12):
        for _ in range(60):
            t = rand_valid(rng, a)
            orb = orbit(t)
            assert len(orb) == 32
            # all orbit members valid and mapping to the same point
            images = set()
            for coords in orb:
                tt = TorsorTuple(*coords)
                assert validate(tt, a)[0]
                images.add(psi(tt, a).x)
                assert height_tilde(a, *coords[:7]) == height_tilde(a, *t.coords()[:7])
            assert len(images) == 1
            # the Weil height of the image equals the tuple height
            pt = psi(t, a)
            assert Fraction(pt.height) == height_tilde(a, *t.coords()[:7])


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
        want.add(act(u, t).coords())
    assert orbit(t) == want
