"""Torsor coordinates for the surface x0*x4 + x1^2 - a*x3^2 = x2*x3 - x4^2 = 0.

An integer tuple (a1, ..., a8) with a1..a6 nonzero lies on the torsor when

    a1*a8 + a7^2 - a*a2^4*a3^2*a4^6*a6^2 = 0                    (torsor equation)
    gcd(a8,a5) = gcd(a7,a2*a3*a4) = gcd(a6,a1*a2*a3*a5)
      = gcd(a5,a2*a4) = gcd(a4,a1*a3) = gcd(a3,a1) = gcd(a2,a1) = 1

and maps to the surface by the anticanonical monomials psi.  The sign torus
{+-1}^5 acts through the weight matrix below; over Q the class group and unit
contributions collapse, the action is free on tuples with a1..a6 != 0 (the
first six weight vectors span F_2^5), and every orbit has exactly 32 members
mapping to a single rational point.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cache
from typing import NamedTuple

# weight vectors m^(1)..m^(8) of the {+-1}^5 action on (a1, ..., a8)
ACTION_WEIGHTS = (
    (0, 0, 0, 0, 1),
    (0, 0, 1, -1, 0),
    (0, 1, -1, 0, 0),
    (0, 0, 0, 1, 0),
    (1, -1, 0, 0, -1),
    (1, -1, -1, -1, 0),
    (1, 0, 0, 0, 0),
    (2, 0, 0, 0, -1),
)


def weight_rank_mod2() -> int:
    """F_2-rank of the first six action weights (must be 5: free action)."""
    rows = [sum((w % 2) << i for i, w in enumerate(m)) for m in ACTION_WEIGHTS[:6]]
    basis: list[int] = []
    for row in rows:
        cur = row
        for b in basis:
            cur = min(cur, cur ^ b)
        if cur:
            basis.append(cur)
    return len(basis)


class TorsorTuple(NamedTuple):
    a1: int
    a2: int
    a3: int
    a4: int
    a5: int
    a6: int
    a7: int
    a8: int


class ProjectivePoint(NamedTuple):
    """Primitive, sign-normalized integer point on the surface with x4 != 0."""

    x: tuple[int, int, int, int, int]

    @property
    def height(self) -> int:
        return max(map(abs, self.x))

    def on_surface(self, a: int) -> bool:
        x0, x1, x2, x3, x4 = self.x
        return x0 * x4 + x1 * x1 - a * x3 * x3 == 0 and x2 * x3 - x4 * x4 == 0


def normalize_point(coords: tuple[int, ...]) -> tuple[int, ...]:
    """Divide by the gcd and make the first nonzero coordinate positive."""
    g = math.gcd(*coords)
    if g == 0:
        raise ValueError("zero vector is not projective")
    if next(c for c in coords if c) < 0:
        g = -g
    return tuple(c // g for c in coords)


def _coprime_a1_a6(a1: int, a2: int, a3: int, a4: int, a5: int, a6: int) -> str:
    """The coprimality conditions on a1..a6 alone that validate checks, in
    its order: the name of the first that fails, or '' if all hold."""
    if math.gcd(a6, a1 * a2 * a3 * a5) != 1:
        return "gcd(a6,a1*a2*a3*a5)"
    if math.gcd(a5, a2 * a4) != 1:
        return "gcd(a5,a2*a4)"
    if math.gcd(a4, a1 * a3) != 1:
        return "gcd(a4,a1*a3)"
    return ""


def validate(t: TorsorTuple, a: int) -> tuple[bool, str]:
    """Check nonvanishing, the torsor equation and the coprimality conditions
    but gcd(a3,a1) and gcd(a2,a1): a prime dividing a1 and a2 or a3 divides
    a7 by the equation, so gcd(a7,a2*a3*a4) fails first."""
    a1, a2, a3, a4, a5, a6, a7, a8 = t
    if not (a1 and a2 and a3 and a4 and a5 and a6):
        return False, "a1..a6 must be nonzero"
    if a1 * a8 + a7 * a7 - a * a2**4 * a3**2 * a4**6 * a6**2 != 0:
        return False, "torsor equation fails"
    if math.gcd(a8, a5) != 1:
        return False, "gcd(a8,a5) != 1"
    if math.gcd(a7, a2 * a3 * a4) != 1:
        return False, "gcd(a7,a2*a3*a4) != 1"
    name = _coprime_a1_a6(a1, a2, a3, a4, a5, a6)
    if name:
        return False, f"{name} != 1"
    return True, "ok"


@cache
def magnitudes() -> tuple[tuple[int, ...], ...]:
    """|a1|..|a6| in {1..4}^6 that pass the conditions on a1..a6 alone, the
    implied gcd(a1,a2*a3) = 1 included (272 of 4096); built on first use."""
    return tuple(m for m in itertools.product(range(1, 5), repeat=6)
                 if not _coprime_a1_a6(*m) and math.gcd(m[0], m[1] * m[2]) == 1)


ATTEMPTS = 10_000


def random_valid(rng, a_values) -> tuple[int, TorsorTuple]:
    """A random surface parameter a and a valid torsor tuple for it.

    Each attempt draws a from a_values, the magnitudes of a1..a6 from
    magnitudes(), a sign per coordinate and a7 in -9..9; a8 is forced by the
    torsor equation, and the attempt is rejected unless a1 divides it and
    validate passes.  The result has the distribution of the plain sampler:
    a uniform, each |ai| uniform in 1..4, uniform signs and a7, conditioned
    on validity.  magnitudes() keeps those magnitude tuples that pass
    conditions every valid tuple meets, ones that depend on neither a, nor
    the signs, nor a7; drawing uniformly from it is drawing uniformly from
    {1..4}^6 conditioned on them, and conditioning further on validity gives
    the same law as conditioning {1..4}^6 on validity directly.  Raises
    RuntimeError after ATTEMPTS rejections.
    """
    for _ in range(ATTEMPTS):
        a = rng.choice(a_values)
        mags = rng.choice(magnitudes())
        signs = rng.getrandbits(6)
        a7 = rng.randint(-9, 9)
        a1, a2, a3, a4, a5, a6 = (-m if signs >> i & 1 else m for i, m in enumerate(mags))
        num = a * a2**4 * a3**2 * a4**6 * a6**2 - a7 * a7
        if num % a1:
            continue
        t = TorsorTuple(a1, a2, a3, a4, a5, a6, a7, num // a1)
        if validate(t, a)[0]:
            return a, t
    raise RuntimeError(f"no valid torsor tuple in {ATTEMPTS} attempts")


def psi(t: TorsorTuple, a: int) -> ProjectivePoint:
    """Anticanonical image of a valid torsor tuple."""
    ok, reason = validate(t, a)
    if not ok:
        raise ValueError(f"invalid torsor tuple: {reason}")
    a1, a2, a3, a4, a5, a6, a7, a8 = t
    raw = (
        a6 * a8,
        a2 * a3 * a4 * a5 * a6 * a7,
        a1**2 * a2 * a3**2 * a5**3,
        a2**3 * a3**2 * a4**4 * a5 * a6**2,
        a1 * a2**2 * a3**2 * a4**2 * a5**2 * a6,
    )
    pt = ProjectivePoint(normalize_point(raw))
    if not pt.on_surface(a):
        raise AssertionError("psi image left the surface")
    return pt


def height_tilde(a: int, a1: int, a2: int, a3: int, a4: int, a5: int, a6: int, a7: int) -> Fraction:
    """The five-monomial height; equals the Weil height of psi on valid tuples.
    The four integral monomials are compared with |a6 inner / a1| in integers,
    so only the maximum becomes a Fraction."""
    if a1 == 0:
        raise ValueError("a1 must be nonzero")
    inner = a * a2**4 * a3**2 * a4**6 * a6**2 - a7 * a7
    m = max(
        abs(a2 * a3 * a4 * a5 * a6 * a7),
        abs(a1**2 * a2 * a3**2 * a5**3),
        abs(a2**3 * a3**2 * a4**4 * a5 * a6**2),
        abs(a1 * a2**2 * a3**2 * a4**2 * a5**2 * a6),
    )
    num, den = abs(a6 * inner), abs(a1)
    return Fraction(num, den) if num > m * den else Fraction(m)


def act(u: tuple[int, int, int, int, int], t: TorsorTuple) -> TorsorTuple:
    """Apply a sign vector u in {+-1}^5 through the action weights."""
    new = []
    for coord, m in zip(t, ACTION_WEIGHTS):
        s = 1
        for ui, mi in zip(u, m):
            if mi % 2:
                s *= ui
        new.append(s * coord)
    return TorsorTuple(*new)


# the 32 coordinate sign vectors of the action: act(u, (1, ..., 1)) for each u
_ORBIT_SIGNS = tuple(
    act(tuple(-1 if mask >> i & 1 else 1 for i in range(5)), TorsorTuple(*[1] * 8))
    for mask in range(32)
)


def orbit(t: TorsorTuple) -> set[tuple[int, ...]]:
    """All sign-orbit members of a tuple."""
    return {tuple(s * c for s, c in zip(signs, t)) for signs in _ORBIT_SIGNS}
