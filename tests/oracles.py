"""Test oracles shared by two test files: the height-condition polytope and
its exact volume (test_alpha.py, acceptance criterion 07), and chi(n) read
off a CharacterChi's table (test_characters.py, test_constant.py).

After substituting t_i = B^{u_i}, the leading-term height integral

    J(B) = int_{t_i >= 1, t1^2 t2 t3^2 <= B, t1^-1 t2^4 t3^2 t4^6 <= B}
           B / (t1 t2 t3 t4) dt

becomes B (log B)^4 vol(P) for the rational polytope

    P = {u >= 0, 2u1 + u2 + 2u3 <= 1, -u1 + 4u2 + 2u3 + 6u4 <= 1}.

The predicted constant has alpha = 1/1728 (delpezzo.constant.ALPHA), and the
counting main term uses J(B) = 3 alpha B (log B)^4, i.e.

    vol(P) = 3 alpha = 1/576

(verified three ways: exact triangulation, iterated exact integration in
test_alpha.py, and Monte Carlo).  The volume is computed exactly: vertices by
solving all 4-subsets of the 6 facet hyperplanes in rational arithmetic, then
a recursive cone triangulation over the face lattice with exact simplex
determinants.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import numpy as np

from delpezzo.characters import CharacterChi


@dataclass
class HPolytope:
    """{u : A u <= b}, rows as (coeffs, rhs); nonnegativity rows included."""

    inequalities: list[tuple[tuple[Fraction, ...], Fraction]]

    @property
    def dim(self) -> int:
        return len(self.inequalities[0][0])

    def contains(self, u) -> bool:
        u = [Fraction(x) for x in u]
        return all(
            sum(c * x for c, x in zip(coeffs, u)) <= rhs
            for coeffs, rhs in self.inequalities
        )


def v0_polytope() -> HPolytope:
    """The u-space region of the leading-term integral."""
    f = Fraction
    rows: list[tuple[tuple[Fraction, ...], Fraction]] = []
    for i in range(4):
        coeffs = tuple(f(-1) if j == i else f(0) for j in range(4))
        rows.append((coeffs, f(0)))  # u_i >= 0
    rows.append(((f(2), f(1), f(2), f(0)), f(1)))
    rows.append(((f(-1), f(4), f(2), f(6)), f(1)))
    return HPolytope(rows)


def _eliminate(rows, ncols: int):
    """Exact Gauss-Jordan elimination of the rows over their first ncols
    columns.  Returns (reduced rows, rank, det): the pivot rows come first,
    each scaled to a leading 1 and cleared above and below, and det is the
    determinant of the first ncols columns when the rows are square there
    (0 when they are singular)."""
    M = [list(row) for row in rows]
    rank, det = 0, Fraction(1)
    for col in range(ncols):
        piv = next((r for r in range(rank, len(M)) if M[r][col] != 0), None)
        if piv is None:
            det = Fraction(0)
            continue
        if piv != rank:
            M[rank], M[piv] = M[piv], M[rank]
            det = -det
        lead = M[rank][col]
        det *= lead
        M[rank] = [x / lead for x in M[rank]]
        for r in range(len(M)):
            if r != rank and M[r][col] != 0:
                f = M[r][col]
                M[r] = [x - f * y for x, y in zip(M[r], M[rank])]
        rank += 1
    return M, rank, det


def vertices(P: HPolytope) -> list[tuple[Fraction, ...]]:
    """All vertices by exhaustive facet-subset intersection."""
    d = P.dim
    out: set[tuple[Fraction, ...]] = set()
    for subset in itertools.combinations(range(len(P.inequalities)), d):
        M, rank, _ = _eliminate([(*P.inequalities[i][0], P.inequalities[i][1]) for i in subset], d)
        v = tuple(row[d] for row in M)
        if rank == d and P.contains(v):
            out.add(v)
    return sorted(out)


def _affine_rank(points: list[tuple[Fraction, ...]]) -> int:
    base = points[0]
    return _eliminate([[x - b for x, b in zip(p, base)] for p in points[1:]], len(base))[1]


def _simplex_volume(simplex: list[tuple[Fraction, ...]]) -> Fraction:
    base = simplex[0]
    M = [[x - b for x, b in zip(p, base)] for p in simplex[1:]]
    return abs(_eliminate(M, len(M))[2]) / factorial(len(M))


def _triangulate_face(
    P: HPolytope,
    verts: list[tuple[Fraction, ...]],
    tight: frozenset[int],
    dim: int,
    anchor_order: int,
) -> list[list[tuple[Fraction, ...]]]:
    """Cone triangulation of the face with the given tight-inequality set."""
    if dim == 0 or len(verts) == dim + 1:
        return [list(verts)]
    verts = sorted(verts)
    v0 = verts[0] if anchor_order == 0 else verts[-1]
    simplices = []
    for i, (coeffs, rhs) in enumerate(P.inequalities):
        if i in tight:
            continue
        sub = [
            v for v in verts if sum(c * x for c, x in zip(coeffs, v)) == rhs
        ]
        if len(sub) < dim or _affine_rank(sub) != dim - 1:
            continue
        if v0 in sub:
            continue
        for s in _triangulate_face(P, sub, tight | {i}, dim - 1, anchor_order):
            simplices.append([v0] + s)
    return simplices


def exact_volume(P: HPolytope, anchor_order: int = 0) -> Fraction:
    """Exact volume of a bounded H-polytope (errors if unbounded).

    anchor_order selects the cone apex at each recursion level; any choice
    must give the same volume (triangulation-order independence check).
    """
    verts = vertices(P)
    if not verts:
        return Fraction(0)
    if not _is_bounded(P):
        raise ValueError("polytope is unbounded")
    d = P.dim
    if _affine_rank(verts) < d:
        return Fraction(0)
    total = Fraction(0)
    for simplex in _triangulate_face(P, verts, frozenset(), d, anchor_order):
        total += _simplex_volume(simplex)
    return total


def _is_bounded(P: HPolytope) -> bool:
    """Exact test that the recession cone {r : A r <= 0} is {0}.

    The cone is pointed iff rank A = dim.  A pointed cone other than {0} has
    an extreme ray, and the rows tight on it have rank dim - 1; so it is
    spanned by the null direction of some dim - 1 independent rows, which is
    their cofactor vector r_j = (-1)^j det(rows without column j)."""
    A = [coeffs for coeffs, _ in P.inequalities]
    d = P.dim
    if _eliminate(A, d)[1] < d:
        return False
    for rows in itertools.combinations(A, d - 1):
        r = [(-1) ** j * _eliminate([row[:j] + row[j + 1 :] for row in rows], d - 1)[2] for j in range(d)]
        if not any(r):
            continue  # the rows are dependent
        for sign in (1, -1):
            if all(sign * sum(c * x for c, x in zip(row, r)) <= 0 for row in A):
                return False
    return True


def v0_volume() -> Fraction:
    """vol(P) for the height polytope; equals 3 * alpha = 1/576."""
    return exact_volume(v0_polytope())


def polytope_mc_volume(P: HPolytope, samples: int, seed: int):
    """Hit-rate Monte Carlo volume estimate with standard error, sampled on
    the bounding box of the vertices."""
    rng = np.random.default_rng(seed)
    verts = np.array(vertices(P), dtype=float)
    lo, hi = verts.min(axis=0), verts.max(axis=0)
    box_vol = float(np.prod(hi - lo))
    pts = rng.random((samples, P.dim)) * (hi - lo) + lo
    A = np.array([[float(c) for c in coeffs] for coeffs, _ in P.inequalities])
    b = np.array([float(rhs) for _, rhs in P.inequalities])
    inside = np.all(pts @ A.T <= b + 0.0, axis=1)
    rate = inside.mean()
    est = box_vol * rate
    stderr = box_vol * float(np.sqrt(max(rate * (1 - rate), 1e-12) / samples))
    return est, stderr


def v0_montecarlo(B: float, samples: int, seed: int):
    """Direct MC estimate of the t-space height integral J(B), with standard
    error; compare against 3 * alpha * B * (log B)^4 = vol(P) B (log B)^4.

    Sampled uniformly on the box [1, B^(1/2)] x [1, B^(1/3)] x [1, B^(1/2)]
    x [1, B^(1/6)] containing the region (the exponents bound each t_i from
    the two constraints and t_i >= 1).
    """
    if B <= 1:
        return 0.0, 0.0
    rng = np.random.default_rng(seed)
    his = [B ** (1 / 2), B ** (1 / 3), B ** (1 / 2), B ** (1 / 6)]
    t = rng.random((samples, 4)) * (np.array(his) - 1.0) + 1.0
    t1, t2, t3, t4 = t.T
    inside = (t1**2 * t2 * t3**2 <= B) & (t2**4 * t3**2 * t4**6 <= B * t1)
    vals = np.where(inside, B / (t1 * t2 * t3 * t4), 0.0)
    box_vol = float(np.prod(np.array(his) - 1.0))
    est = box_vol * float(vals.mean())
    stderr = box_vol * float(vals.std(ddof=1)) / np.sqrt(samples)
    return est, stderr


def chi_at(self: CharacterChi, n: int) -> int:
    """chi(n) for n >= 1, from the period table of the character `self`."""
    if n < 1:
        raise ValueError("chi defined on positive integers")
    return int(self.table[n % self.modulus])
