"""Bound levels: closed form vs. bisection, residual zeroing, anchors,
and the nonrelativistic limit."""

import math

import mpmath
import numpy as np
import pytest

from ptdrsc.bound import (
    bound_energy,
    bound_energy_bisection,
    bound_level,
    energy_equation_residual,
    nonrel_energy,
)
from ptdrsc.errors import DomainError, NoRoot


def test_ground_state_anchor():
    # M=1, delta=1, n_r=ell=0: Lambda=1, E = (1-4)/(1+4) = -3/5
    assert bound_energy(1.0, 1.0, 0, 0) == pytest.approx(-0.6, abs=1e-15)


def test_nonrel_anchor():
    # M=1, delta=0.1, n=0, ell=1: -8*0.01/9
    got = nonrel_energy(1.0, 0.1, 0, 1)
    assert got == pytest.approx(-0.0088888888888888889, rel=1e-14)
    # the exact binding energy E - M sits within the quadratic bound
    exact = bound_energy(1.0, 0.1, 0, 1)
    assert exact - 1.0 == pytest.approx(-0.0088495575221239, rel=1e-10)


def test_closed_form_zeroes_residual():
    for M in (0.5, 1.0, 2.0):
        for d in (0.05, 0.3, 1.0, 2.5):
            for n_r in range(4):
                for ell in range(4):
                    e = bound_energy(M, d, n_r, ell)
                    assert abs(e) < M
                    r = energy_equation_residual(e, M, d, n_r, ell)
                    assert abs(r) < 1e-12 * M


def test_bisection_matches_closed_form():
    for M in (0.5, 1.0, 3.0):
        for d in (0.1, 0.7, 2.0):
            for n_r in (0, 2):
                for ell in (0, 3):
                    closed = bound_energy(M, d, n_r, ell)
                    rooted = bound_energy_bisection(M, d, n_r, ell)
                    assert abs(closed - rooted) < 1e-12 * M


@pytest.mark.parametrize("M", [5e-324, 1e-310, 1e-300, 1e300, 1.7e308])
def test_bisection_at_extreme_mass(M):
    # the bisection runs in E/M, so M^2 never leaves double range
    for d in (0.1, 0.7, 2.0):
        for n_r, ell in ((0, 0), (2, 3)):
            closed = bound_energy(M, d, n_r, ell)
            rooted = bound_energy_bisection(M, d, n_r, ell)
            assert abs(closed - rooted) <= 1e-12 * M


@pytest.mark.parametrize("M", [1.0, 3.0, 1.7e308])
def test_closed_form_past_the_overflow_of_4_delta_squared(M):
    # 4δ² overflows from δ ≈ 6.7e153; the level is M(t − 1)/(t + 1) with
    # t = (Λ/2δ)², which is −M to double precision there
    for d in (6.71e153, 1e154, 1e160, 1e300, 1.7e308):
        for n_r, ell in ((0, 0), (3, 2), (10**6, 0)):
            lam = 2 * n_r + 1 + 2 * ell
            with mpmath.workdps(40):
                t = (mpmath.mpf(lam) / (2 * mpmath.mpf(d))) ** 2
                want = float(mpmath.mpf(M) * (t - 1) / (t + 1))
            assert bound_energy(M, d, n_r, ell) == want, (d, n_r, ell)
    # below the overflow the closed form keeps its direct evaluation
    d = 6.7e153
    lam2, d2 = 25, 4.0 * d * d
    assert math.isfinite(d2)
    assert bound_energy(M, d, 2, 0) == M * ((lam2 - d2) / (lam2 + d2))


@pytest.mark.parametrize("M,d,n,ell", [(1.7e308, 0.5, 2, 2), (1.0, 1e154, 2, 2),
                                       (1e300, 3.0, 0, 0), (2.0, 5e153, 0, 1)])
def test_nonrel_energy_near_the_top_of_double_range(M, d, n, ell):
    # 8Mδ² overflows before the division by Λ²; the level itself does not
    lam = 2 * n + 1 + 2 * ell
    with mpmath.workdps(40):
        want = float(-8 * mpmath.mpf(M) * mpmath.mpf(d) ** 2 / lam**2)
    got = nonrel_energy(M, d, n, ell)
    assert math.isfinite(got)
    assert abs(got - want) <= 4e-16 * abs(want)


def test_residual_sign_structure():
    # residual is positive left of the level and negative right of it
    # (to the right of its interior maximum)
    M, d, n_r, ell = 1.0, 0.8, 1, 2
    e0 = bound_energy(M, d, n_r, ell)
    lam = 2 * n_r + 1 + 2 * ell
    peak = -2.0 * d * M / math.sqrt(lam * lam + 4.0 * d * d)
    for e in np.linspace(peak, e0 - 1e-6, 40):
        assert energy_equation_residual(float(e), M, d, n_r, ell) > 0.0
    for e in np.linspace(e0 + 1e-6, M * (1.0 - 1e-9), 40):
        assert energy_equation_residual(float(e), M, d, n_r, ell) < 0.0


def test_level_ordering_and_limits():
    # energies increase with either quantum number and decrease with
    # coupling strength; all sit strictly inside (-M, M)
    M = 1.0
    for d in (0.2, 1.0, 3.0):
        energies = [bound_energy(M, d, n, 0) for n in range(6)]
        assert all(-M < e < M for e in energies)
        assert energies == sorted(energies)
    for n_r in (0, 1):
        e_weak = bound_energy(M, 0.1, n_r, 1)
        e_strong = bound_energy(M, 2.0, n_r, 1)
        assert e_strong < e_weak
    # ell enters only through Lambda: degenerate with 2n_r + 2ell fixed
    assert bound_energy(M, 0.7, 3, 1) == bound_energy(M, 0.7, 1, 3)
    assert bound_energy(M, 0.7, 2, 0) == bound_energy(M, 0.7, 0, 2)


def test_nonrel_limit_error_is_quadratic_in_coupling():
    # |E_exact - M - E_nr| / |E_nr| = 4 delta^2 / (Lambda^2 + 4 delta^2)
    M = 1.0
    for d in (0.01, 0.05, 0.1):
        for n in (0, 1):
            for ell in (0, 1, 2):
                lam = 2 * n + 1 + 2 * ell
                e_nr = nonrel_energy(M, d, n, ell)
                gap = bound_energy(M, d, n, ell) - M
                rel = abs(gap - e_nr) / abs(e_nr)
                u = 4.0 * d * d / (lam * lam)
                # the subtraction E - M cancels ~5 digits, so the exact
                # identity rel = u/(1+u) is only observable to ~1e-7
                assert rel == pytest.approx(u / (1.0 + u), rel=1e-6)
                assert rel <= u


def test_bound_level_record():
    lv = bound_level(2.0, 0.5, 1, 2)
    assert (lv.n_r, lv.ell) == (1, 2)
    assert lv.energy == bound_energy(2.0, 0.5, 1, 2)
    assert lv.nonrel_energy == nonrel_energy(2.0, 0.5, 1, 2)


def test_domain_errors():
    with pytest.raises(DomainError):
        energy_equation_residual(1.0, 1.0, 0.5, 0, 0)  # |E| = M
    with pytest.raises(DomainError):
        energy_equation_residual(-1.5, 1.0, 0.5, 0, 0)
    with pytest.raises(DomainError):
        bound_energy(-1.0, 0.5, 0, 0)
    with pytest.raises(DomainError):
        bound_energy(1.0, 0.0, 0, 0)
    with pytest.raises(DomainError):
        bound_energy(1.0, 0.5, -1, 0)
    with pytest.raises(DomainError):
        bound_energy(1.0, 0.5, 0, -2)
    with pytest.raises(DomainError):
        nonrel_energy(0.0, 0.5, 0, 0)


def test_bisection_reports_unbracketable_root():
    # for delta/Lambda below ~1e-7 the root hugs E = M too closely for
    # the double-precision bracket
    with pytest.raises(NoRoot):
        bound_energy_bisection(1.0, 1e-9, 0, 0)
