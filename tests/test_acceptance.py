"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 01-03, 05 and 06 run the full-mode `verify` suites of the CLI
(delpezzo.cli.SUITES), which hold each criterion's grid, so that the check
is written once and the benchmark's `verify` runs are the criteria.

Criterion 7 note: the exact volume of the height polytope is 1/576 = 3*alpha
(established by exact triangulation, independent exact integration, and MC);
see the decisions ledger for the reconciliation of the two constant
conventions.  The criterion is enforced in the form that is consistent with
alpha = 1/1728 and with the criterion's own Monte Carlo clause.
"""

import math
import time
from fractions import Fraction

import numpy as np

from delpezzo.arith import TESTBED
from delpezzo.cli import SUITES, _suite_density_oracle, _suite_density_table

PASSED = []


def report(num, desc, t0):
    line = f"ACCEPTANCE {num:2d}: PASS  {desc}  ({time.time() - t0:.1f}s)"
    print(line)
    PASSED.append(num)


def test_criterion_01_eta_consistency():
    t0 = time.time()
    failures = list(SUITES["eta"](False))
    assert not failures, failures[:5]
    assert time.time() - t0 < 60
    report(1, "eta closed form = brute force on testbed x p<=53 x k<=10", t0)


def test_criterion_02_density_table():
    t0 = time.time()
    failures = list(_suite_density_table(False))
    assert not failures, failures[:5]
    assert time.time() - t0 < 10
    report(2, "omega_p = squarefree table, exact, p <= 100", t0)


def test_criterion_03_padic_oracle():
    t0 = time.time()
    failures = list(_suite_density_oracle(False))
    assert not failures, failures[:5]
    assert time.time() - t0 < 120
    report(3, "p-adic integral oracle within tail bound, p in {2,3,5}", t0)


def test_criterion_04_counting_equivalence():
    t0 = time.time()
    from delpezzo.counting import direct_count, torsor_count

    for a in (-1, 2, 3, 5, -2, 6, 12):
        for B in (50, 200, 500):
            d, tt = direct_count(a, B), torsor_count(a, B)
            assert d.count == tt.count, (a, B, d.count, tt.count)
    for a in (-1, 5):
        d, tt = direct_count(a, 1000), torsor_count(a, 1000)
        assert d.count == tt.count, (a, d.count, tt.count)
    assert time.time() - t0 < 600
    report(4, "direct = torsor on the full grid incl. B = 1000", t0)


def test_criterion_05_moebius_identity():
    t0 = time.time()
    failures = list(SUITES["moebius"](False))
    assert not failures, failures[:5]
    assert time.time() - t0 < 300
    report(5, "Moebius slice identity exact on every walked slice at B = 300, all testbed a", t0)


def test_criterion_06_theta1_factor_identity():
    t0 = time.time()
    failures = list(SUITES["theta"](False))
    assert not failures, failures[:5]
    assert time.time() - t0 < 120
    report(6, "theta1 Euler factor = local Moebius/rho sum, full grid", t0)


def test_criterion_07_alpha():
    t0 = time.time()
    from delpezzo.constant import ALPHA
    from oracles import polytope_mc_volume, v0_montecarlo, v0_polytope, v0_volume

    v = v0_volume()
    assert v == Fraction(1, 576)
    assert v == 3 * ALPHA and ALPHA == Fraction(1, 1728)
    est, se = polytope_mc_volume(v0_polytope(), 10**6, seed=42)
    assert abs(est - float(v)) <= 3 * se
    # the t-space height integral equals vol(P) B (log B)^4 = 3 alpha B log^4 B
    B = math.e**4
    je, jse = v0_montecarlo(B, 10**6, seed=7)
    assert abs(je - float(3 * ALPHA) * B * math.log(B) ** 4) <= 3 * jse
    assert time.time() - t0 < 30
    report(7, "vol(P) = 1/576 = 3*alpha exactly (alpha = 1/1728); MC within 3 sigma", t0)


def test_criterion_08_archimedean():
    t0 = time.time()
    from delpezzo.archimedean import omega_inf_chart, omega_inf_region, vol_SF

    for a in (-2, -1, 2, 3, 5, 12):
        r, c = omega_inf_region(a), omega_inf_chart(a)
        assert abs(r.value - c.value) / c.value <= 1e-3, a
    om1 = omega_inf_chart(-1).value
    v1 = vol_SF(-1, 1, 1, 1, 1, 1e4, samples=10**7, seed=3)
    assert abs(v1.value - (2 / 3) * om1 * 1e4) / ((2 / 3) * om1 * 1e4) < 0.02
    om5 = omega_inf_chart(5).value
    v5 = vol_SF(5, 2, 1, 3, 1, 1e4, samples=10**7, seed=4)
    pred5 = (2 / 3) * om5 * 1e4 / 3
    assert abs(v5.value - pred5) / pred5 < 0.02
    assert time.time() - t0 < 300
    report(8, "region = chart within 1e-3; vol_SF matches the volume formula", t0)


def test_criterion_09_l_value():
    t0 = time.time()
    from delpezzo.characters import CharacterChi

    est = CharacterChi(-1).L1(1e-8)
    assert abs(est.value - math.pi / 4) <= 1e-8
    for a in TESTBED:
        chi = CharacterChi(a)
        n = np.arange(1, 10**6 + 1, dtype=np.int64)
        sums = np.cumsum(chi.table[n % chi.modulus])
        assert int(np.max(np.abs(sums))) <= 8 * abs(a), a
    assert time.time() - t0 < 60
    report(9, "L(1,chi_-1) = pi/4 within 1e-8; |A(x)| <= 8|a| up to 1e6", t0)


def test_criterion_10_end_to_end():
    t0 = time.time()
    from delpezzo.archimedean import omega_inf_montecarlo
    from delpezzo.characters import CharacterChi
    from delpezzo.constant import L1_TOLERANCE, compare, finite_product

    rows = compare(-1, [100, 1000, 10000], prime_cut=2000)
    for r in rows:
        assert math.isfinite(r["ratio"]) and r["ratio"] > 0
    # both counters agreed exactly inside compare (it raises otherwise)
    # constant factors stable under doubling within 1%
    chi = CharacterChi(-1)
    L1 = chi.L1(L1_TOLERANCE)
    fp1, fp2 = finite_product(chi, 2000, L1), finite_product(chi, 4000, L1)
    assert abs(fp1.value / fp2.value - 1) < 0.01
    m1 = omega_inf_montecarlo(-1, 10**6, seed=5)
    m2 = omega_inf_montecarlo(-1, 2 * 10**6, seed=5)
    assert abs(m1.value / m2.value - 1) < 0.01
    # ratio varies slowly on the tested grid (per-decade linearization)
    for r1, r2 in zip(rows, rows[1:]):
        assert abs(r2["ratio"] / r1["ratio"] - 1) < 0.5 * math.log2(r2["B"] / r1["B"]), (
            "per-decade drift bound",
            r1,
            r2,
        )
    # and the literal doubling form
    pair = compare(-1, [500, 1000], prime_cut=2000)
    assert abs(pair[1]["ratio"] / pair[0]["ratio"] - 1) < 0.5
    report(10, "end-to-end report: exact counter agreement at 1e2..1e4, stable factors", t0)
