"""Torsor coordinates for the surface x0*x4 + x1^2 - a*x3^2 = x2*x3 - x4^2 = 0.

An integer tuple (a1, ..., a8) with a1..a6 nonzero lies on the torsor when

    a1*a8 + a7^2 = a*u^2,  u = a2^2*a3*a4^3*a6                  (torsor equation)

and the coprimality conditions gcd(a_i, prod_{j in js} a_j) = 1 hold, one
for each row (i, js) of arith.COPRIME.  It maps to the surface by the
anticanonical monomials psi (exponents in arith.PSI_EXPONENTS), of height
max(|x0|, |x1|, |x2|).  The sign torus {+-1}^5 acts through the weight matrix
below; over Q the class group and unit contributions collapse, the action is
free on tuples with a1..a6 != 0 (the first six weight vectors span F_2^5),
and every orbit has exactly 32 members mapping to a single rational point.
`orbit_representatives` walks one tuple of every orbit in a small box, on
which `verify --suite torsor` checks this.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import NamedTuple

from .arith import COPRIME, PSI_EXPONENTS, UNIT_EXPONENTS

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
    """F_2-rank of the first six action weights (must be 5: free action).
    The signs the 32 group elements put on a1..a6 are the image of the map
    F_2^5 -> F_2^6 those rows give mod 2, which has 2^rank elements."""
    return len({s[:6] for s in _ORBIT_SIGNS}).bit_length() - 1


class TorsorTuple(NamedTuple):
    a1: int
    a2: int
    a3: int
    a4: int
    a5: int
    a6: int
    a7: int
    a8: int


def normalize_point(coords: tuple[int, ...]) -> tuple[int, ...]:
    """Divide by the gcd and make the first nonzero coordinate positive."""
    g = math.gcd(*coords)
    if g == 0:
        raise ValueError("zero vector is not projective")
    if next(filter(None, coords)) < 0:
        g = -g
    return tuple([c // g for c in coords])


def validate(t: TorsorTuple, a: int) -> tuple[bool, str]:
    """Check nonvanishing, the torsor equation and the coprimality conditions
    of COPRIME's rows 8 down to 4, which leaves out gcd(a3,a1) and gcd(a2,a1):
    a prime dividing a1 and a2 or a3 divides a7 by the equation, so
    gcd(a7,a2*a3*a4) fails first."""
    a1, a2, a3, a4, a5, a6, a7, a8 = t
    if not (a1 and a2 and a3 and a4 and a5 and a6):
        return False, "a1..a6 must be nonzero"
    if a1 * a8 + a7 * a7 != a * math.prod(map(pow, t, UNIT_EXPONENTS)) ** 2:
        return False, "torsor equation fails"
    for i, js in reversed(COPRIME[2:]):
        g = 1
        for j in js:
            g *= t[j - 1]
        if math.gcd(t[i - 1], g) != 1:
            return False, f"gcd(a{i},{'*'.join(f'a{j}' for j in js)}) != 1"
    return True, "ok"


# the box that orbit_representatives walks: 1 <= |a1|..|a6| <= BOX_AI, |a7| <= BOX_A7
BOX_AI = 2
BOX_A7 = 3


def orbit_representatives(a: int):
    """One valid tuple of every sign orbit in the box: a1 of either sign,
    a2..a6 positive, a8 forced by the torsor equation.

    The action's image on the signs of (a1..a6) is the column space mod 2 of
    the first six weights: {s in F_2^6 : s1 + s2 + s5 + s6 = 0}, of dimension
    5, without the sign of a1 alone.  So it meets the signs of a2..a6 one to
    one, and each orbit of the signed box has exactly one member with
    a2..a6 > 0.
    """
    mags = range(1, BOX_AI + 1)
    for a1 in (*mags, *(-m for m in mags)):
        for a2_a6 in itertools.product(mags, repeat=5):
            c = a * math.prod(map(pow, (a1, *a2_a6), UNIT_EXPONENTS)) ** 2
            for a7 in range(-BOX_A7, BOX_A7 + 1):
                num = c - a7 * a7
                if num % a1 == 0:
                    t = TorsorTuple(a1, *a2_a6, a7, num // a1)
                    if validate(t, a)[0]:
                        yield t


def psi(t: TorsorTuple, a: int) -> tuple[int, ...]:
    """Anticanonical image of a valid torsor tuple: the primitive,
    sign-normalized point (x0, ..., x4) on the surface, with x4 != 0."""
    ok, reason = validate(t, a)
    if not ok:
        raise ValueError(f"invalid torsor tuple: {reason}")
    x = normalize_point([math.prod(map(pow, t, e)) for e in PSI_EXPONENTS])
    x0, x1, x2, x3, x4 = x
    if x0 * x4 + x1 * x1 - a * x3 * x3 or x2 * x3 - x4 * x4:
        raise AssertionError("psi image left the surface")
    return x


def height_tilde(t: TorsorTuple) -> int:
    """max(|x0|, |x1|, |x2|) over psi's raw monomials: the height of a valid
    tuple's image (primitive there), though not off the torsor.  Let H be the
    largest |x_i| on S_a.  If |x4| = H > 0, x4^2 = x2 x3 gives |x2| = H.  If
    |x3| were above max(|x0|, |x1|, |x4|), x0 x4 + x1^2 = a x3^2 would give
    |a| < 2, so a = -1 (a nonsquare), and then |x0 x4| = x1^2 + x3^2 >= x3^2,
    a contradiction.  So H is reached at x0, x1 or x2."""
    return max(abs(math.prod(map(pow, t, e))) for e in PSI_EXPONENTS[:3])


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
    return {tuple(map(operator.mul, signs, t)) for signs in _ORBIT_SIGNS}
