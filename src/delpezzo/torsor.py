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

import math
from dataclasses import dataclass
from fractions import Fraction

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


@dataclass(frozen=True)
class TorsorTuple:
    a1: int
    a2: int
    a3: int
    a4: int
    a5: int
    a6: int
    a7: int
    a8: int

    def coords(self) -> tuple[int, ...]:
        return (self.a1, self.a2, self.a3, self.a4, self.a5, self.a6, self.a7, self.a8)


@dataclass(frozen=True)
class ProjectivePoint:
    """Primitive, sign-normalized integer point on the surface with x4 != 0."""

    x: tuple[int, int, int, int, int]

    @property
    def height(self) -> int:
        return max(abs(c) for c in self.x)

    def on_surface(self, a: int) -> bool:
        x0, x1, x2, x3, x4 = self.x
        return x0 * x4 + x1 * x1 - a * x3 * x3 == 0 and x2 * x3 - x4 * x4 == 0


def normalize_point(coords: tuple[int, ...]) -> tuple[int, ...]:
    """Divide by the gcd and make the first nonzero coordinate positive."""
    g = 0
    for c in coords:
        g = math.gcd(g, c)
    if g == 0:
        raise ValueError("zero vector is not projective")
    reduced = tuple(c // g for c in coords)
    for c in reduced:
        if c:
            return reduced if c > 0 else tuple(-y for y in reduced)
    raise AssertionError("unreachable")


def validate(t: TorsorTuple, a: int) -> tuple[bool, str]:
    """Check nonvanishing, the torsor equation and all coprimality conditions."""
    a1, a2, a3, a4, a5, a6, a7, a8 = t.coords()
    if 0 in (a1, a2, a3, a4, a5, a6):
        return False, "a1..a6 must be nonzero"
    if a1 * a8 + a7 * a7 - a * a2**4 * a3**2 * a4**6 * a6**2 != 0:
        return False, "torsor equation fails"
    checks = [
        (a8, a5, "gcd(a8,a5)"),
        (a7, a2 * a3 * a4, "gcd(a7,a2*a3*a4)"),
        (a6, a1 * a2 * a3 * a5, "gcd(a6,a1*a2*a3*a5)"),
        (a5, a2 * a4, "gcd(a5,a2*a4)"),
        (a4, a1 * a3, "gcd(a4,a1*a3)"),
        (a3, a1, "gcd(a3,a1)"),
        (a2, a1, "gcd(a2,a1)"),
    ]
    for x, y, name in checks:
        if math.gcd(x, y) != 1:
            return False, f"{name} != 1"
    return True, "ok"


def psi(t: TorsorTuple, a: int) -> ProjectivePoint:
    """Anticanonical image of a valid torsor tuple."""
    ok, reason = validate(t, a)
    if not ok:
        raise ValueError(f"invalid torsor tuple: {reason}")
    a1, a2, a3, a4, a5, a6, a7, a8 = t.coords()
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
    if pt.x[4] == 0:
        raise AssertionError("psi image has x4 = 0")
    return pt


def height_tilde(a: int, a1: int, a2: int, a3: int, a4: int, a5: int, a6: int, a7: int) -> Fraction:
    """The five-monomial height; equals the Weil height of psi on valid tuples."""
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


def act(u: tuple[int, int, int, int, int], t: TorsorTuple) -> TorsorTuple:
    """Apply a sign vector u in {+-1}^5 through the action weights."""
    if any(x not in (1, -1) for x in u):
        raise ValueError("u must be a vector of +-1")
    new = []
    for coord, m in zip(t.coords(), ACTION_WEIGHTS):
        s = 1
        for ui, mi in zip(u, m):
            if mi % 2:
                s *= ui
        new.append(s * coord)
    return TorsorTuple(*new)


# the 32 coordinate sign vectors of the action: act(u, (1, ..., 1)) for each u
_ORBIT_SIGNS = tuple(
    act(tuple(-1 if mask >> i & 1 else 1 for i in range(5)), TorsorTuple(*[1] * 8)).coords()
    for mask in range(32)
)


def orbit(t: TorsorTuple) -> set[tuple[int, ...]]:
    """All sign-orbit members of a tuple."""
    coords = t.coords()
    return {tuple(s * c for s, c in zip(signs, coords)) for signs in _ORBIT_SIGNS}
