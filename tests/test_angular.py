"""Angular Poschl-Teller well: branch inversion, eigenvalues, normalized
eigenfunctions (checked directly against the differential operator),
degeneracies, and the coupling maps."""

import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.integrate

from ptdrsc.angular import (
    azimuthal_m_squared,
    degenerate_eigenvalue,
    degenerate_solution,
    map_azimuthal,
    map_polar,
    polar_eigenvalue,
    polar_solution,
    pt_parameter_from_strength,
)
from ptdrsc.errors import ComplexBranch, DomainError


def test_branch_inversion_exact_points():
    assert pt_parameter_from_strength(2.0) == pytest.approx(2.0, abs=1e-15)
    assert pt_parameter_from_strength(6.0) == pytest.approx(3.0, abs=1e-14)
    assert pt_parameter_from_strength(0.0) == 1.0
    # 1 + 4c overflows above c = 4.5e307, chi itself does not
    for c in (0.3, 1.7, 12.0, 4.5e307, 1e308):
        chi = pt_parameter_from_strength(c)
        assert chi * (chi - 1.0) == pytest.approx(c, rel=1e-13)


def test_branch_boundary_warns():
    with pytest.warns(RuntimeWarning):
        chi = pt_parameter_from_strength(-0.25)
    assert chi == pytest.approx(0.5, abs=1e-8)
    with pytest.warns(RuntimeWarning):
        pt_parameter_from_strength(-0.1)


def test_branch_complex_rejected():
    with pytest.raises(ComplexBranch):
        pt_parameter_from_strength(-0.26)
    with pytest.raises(ComplexBranch):
        pt_parameter_from_strength(-5.0)


def test_polar_eigenvalues():
    # (zeta^2/2)(chi + lam + 2 n_r)^2
    assert polar_eigenvalue(2.0, 3.0, 0) == pytest.approx(12.5, abs=1e-12)
    assert polar_eigenvalue(2.0, 3.0, 1) == pytest.approx(24.5, abs=1e-12)
    assert polar_eigenvalue(1.5, 2.5, 2, zeta=2.0) == pytest.approx(2.0 * 64.0,
                                                                    rel=1e-14)
    # spacing grows linearly with n_r: second difference is 4 zeta^2
    e = [polar_eigenvalue(2.0, 2.0, n) for n in range(5)]
    gaps = np.diff(e)
    assert np.allclose(np.diff(gaps), 4.0, atol=1e-10)


def test_only_polar_solution_warns_below_the_regular_branch():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert polar_eigenvalue(0.7, 3.0, 1) == pytest.approx(0.5 * 5.7 ** 2, rel=1e-14)
        assert azimuthal_m_squared(0.7, 3.0, 1, 1) == pytest.approx(0.5 * 5.7 ** 2 + 0.5,
                                                                   rel=1e-14)
    with pytest.warns(RuntimeWarning, match="below the regular branch") as record:
        polar_solution(0.7, 3.0, 1)
    assert record[0].filename == __file__  # points at the caller's line


def _ode_residual(fn, q, e_ode, chi, lam, zeta, h=1e-3):
    hpp = (-fn(q + 2 * h) + 16 * fn(q + h) - 30 * fn(q)
           + 16 * fn(q - h) - fn(q - 2 * h)) / (12.0 * h * h)
    s, c = math.sin(zeta * q), math.cos(zeta * q)
    pot = 0.5 * zeta * zeta * (chi * (chi - 1.0) / (s * s)
                               + lam * (lam - 1.0) / (c * c))
    return -0.5 * hpp + pot * fn(q) - e_ode * fn(q)


@pytest.mark.parametrize("chi,lam,n_r", [
    (2.0, 3.0, 0),
    (2.0, 3.0, 2),
    (1.5, 2.5, 1),
    (3.0, 1.0, 2),
])
def test_polar_eigenfunction_satisfies_ode(chi, lam, n_r):
    sol = polar_solution(chi, lam, n_r)
    e = sol.eigenvalue
    for q in np.linspace(0.2, 0.5 * math.pi - 0.2, 17):
        res = _ode_residual(sol.evaluator, float(q), e, chi, lam, 1.0)
        assert abs(res) < 1e-6 * max(abs(e), 1.0)


def test_polar_eigenfunction_with_zeta():
    zeta = 2.0
    sol = polar_solution(2.0, 2.0, 1, zeta=zeta)
    upper = math.pi / (2.0 * zeta)
    for q in np.linspace(0.1, upper - 0.1, 9):
        res = _ode_residual(sol.evaluator, float(q), sol.eigenvalue,
                            2.0, 2.0, zeta, h=5e-4)
        assert abs(res) < 1e-6 * max(abs(sol.eigenvalue), 1.0)
    norm, _ = scipy.integrate.quad(lambda q: sol.evaluator(q) ** 2, 0.0, upper,
                                   epsabs=0.0, epsrel=1e-11)
    assert norm == pytest.approx(1.0, rel=1e-9)


def test_polar_eigenfunction_boundary_zeros():
    for chi, lam, n_r in ((2.0, 3.0, 0), (1.5, 2.5, 3), (4.0, 1.0, 1)):
        sol = polar_solution(chi, lam, n_r)
        assert abs(sol.evaluator(0.0)) < 1e-10
        assert abs(sol.evaluator(0.5 * math.pi)) < 1e-10


def test_polar_eigenfunction_normalized_value_oracle():
    # chi=2, lam=3, n_r=1 at q=0.7; mpmath quadrature norm, 50 dps
    got = polar_solution(2.0, 3.0, 1).evaluator(0.7)
    assert got == pytest.approx(0.012120570665743484679, rel=1e-9)


def _mp_polar_level(q, chi, lam, n_r, zeta=1.0):
    """mpmath level: Jacobi polynomial over its closed-form norm.

    With u = cos 2ζq the level is ((1-u)/2)^(chi/2) ((1+u)/2)^(lam/2)
    P_n^(a,b)(u) / P_n^(a,b)(1), a = chi - 1/2, b = lam - 1/2, and its
    squared norm is 2^-(chi+lam) h_n^(a,b) / (2 ζ P_n^(a,b)(1)^2).
    """
    n = n_r
    a, b = mpmath.mpf(chi) - 0.5, mpmath.mpf(lam) - 0.5
    h = (2 ** (a + b + 1) / (2 * n + a + b + 1) * mpmath.gamma(n + a + 1)
         * mpmath.gamma(n + b + 1) / (mpmath.factorial(n) * mpmath.gamma(n + a + b + 1)))
    p1 = mpmath.binomial(n + a, n)
    norm2 = 2 ** (-(a + b + 1)) * h / (2 * zeta * p1 * p1)
    x = zeta * mpmath.mpf(q)
    raw = (mpmath.sin(x) ** chi * mpmath.cos(x) ** lam
           * mpmath.jacobi(n, a, b, mpmath.cos(2 * x)) / p1)
    return raw / mpmath.sqrt(norm2)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # chi or lam below 1
def test_angular_contract_against_mpmath():
    # the angular docstring's contract, against 30-digit mpmath: for n <= 30,
    # chi = 0 or 1/2 <= chi <= 30, 1/2 <= lam <= 30 and 0.1 <= zeta <= 10, the
    # eigenvalue within 1e-15 relative and the normalized level within 1e-12
    # of its peak, taken over the sampled q
    rng = np.random.default_rng(20261119)
    for i in range(80):
        n = int(rng.integers(0, 31))
        zeta = 10 ** rng.uniform(-1.0, 1.0)
        lam = 10 ** rng.uniform(math.log10(0.5), math.log10(30.0))
        chi = 0.0 if i % 4 == 0 else 10 ** rng.uniform(math.log10(0.5), math.log10(30.0))
        if chi:
            sol = polar_solution(chi, lam, n, zeta)
            with mpmath.workdps(30):
                want = mpmath.mpf(zeta) ** 2 / 2 * (mpmath.mpf(chi) + lam + 2 * n) ** 2
                assert abs(sol.eigenvalue / want - 1) <= 1e-15, (chi, lam, n, zeta)
        else:
            sol = degenerate_solution(lam, n, zeta)
        qs = rng.uniform(0.0, math.pi / (2.0 * zeta), 24)
        with mpmath.workdps(30):
            want = [float(_mp_polar_level(q, chi, lam, n, zeta)) for q in qs]
        peak = max(abs(w) for w in want)
        worst = max(abs(sol.evaluator(float(q)) - w) for q, w in zip(qs, want))
        assert worst <= 1e-12 * peak, (chi, lam, n, zeta, worst / peak)


@pytest.mark.parametrize("chi,lam", [(2.0, 3.0), (1.5, 2.5)])
@pytest.mark.parametrize("n_r", range(11, 20))
def test_high_polar_levels_match_mpmath(chi, lam, n_r):
    sol = polar_solution(chi, lam, n_r)
    qs = np.linspace(0.0, 0.5 * math.pi, 61)
    with mpmath.workdps(30):
        want = [float(_mp_polar_level(q, chi, lam, n_r)) for q in qs]
    peak = max(abs(w) for w in want)
    worst = max(abs(sol.evaluator(float(q)) - w) for q, w in zip(qs, want))
    assert worst <= 1e-10 * peak, worst / peak


def _norm_by_quad(sol):
    """Second route to the closed-form norm: integral of H^2 by quad."""
    upper = math.pi / (2.0 * sol.zeta)
    val, _ = scipy.integrate.quad(lambda q: sol.evaluator(q) ** 2, 0.0, upper,
                                  epsabs=0.0, epsrel=1e-12, limit=200)
    return val


# (chi, lam, zeta): the regular well, chi = lam = 1/2, chi = 1/2 with zeta != 1,
# and wide and narrow wells
WELLS = [(2.0, 3.0, 1.0), (0.5, 0.5, 1.0), (0.5, 2.0, 2.0), (3.7, 1.5, 0.5),
         (6.0, 0.5, 3.0)]


@pytest.mark.filterwarnings("ignore::UserWarning")  # quad roundoff on ~0 integrals
def test_polar_levels_are_orthonormal():
    for chi, lam, zeta in WELLS:
        if chi < 1.0 or lam < 1.0:
            with pytest.warns(RuntimeWarning):
                sols = [polar_solution(chi, lam, n, zeta) for n in range(31)]
        else:
            sols = [polar_solution(chi, lam, n, zeta) for n in range(31)]
        for sol in sols:
            assert abs(_norm_by_quad(sol) - 1.0) < 1e-10, (chi, lam, zeta, sol.n_r)
        upper = math.pi / (2.0 * zeta)
        for i in range(4):
            for j in range(i + 1, 4):
                val, _ = scipy.integrate.quad(
                    lambda q: sols[i].evaluator(q) * sols[j].evaluator(q),
                    0.0, upper, epsabs=0.0, epsrel=1e-11, limit=200)
                assert abs(val) < 1e-8, (chi, lam, zeta, i, j)


def test_degenerate_family():
    # chi = 0 levels: 2 zeta^2 (lam/2 + n)^2 - zeta^2/2
    assert degenerate_eigenvalue(3.0, 1) == pytest.approx(12.0, abs=1e-12)
    assert degenerate_eigenvalue(2.0, 0, zeta=2.0) == pytest.approx(6.0, abs=1e-12)
    sol = degenerate_solution(3.0, 1)
    # regular and nonzero at the origin, zero at the far wall
    assert abs(sol.evaluator(0.0)) > 0.1
    assert abs(sol.evaluator(0.5 * math.pi)) < 1e-10
    for lam in (0.5, 3.0, 7.5):
        for zeta in (1.0, 2.0):
            for n_r in range(31):
                norm = _norm_by_quad(degenerate_solution(lam, n_r, zeta))
                assert abs(norm - 1.0) < 1e-10, (lam, zeta, n_r)


def test_degenerate_eigenfunction_satisfies_ode():
    # the Schroedinger operator with the lam-only barrier has eigenvalue
    # shifted by +zeta^2/2 relative to the quoted level
    lam, n_r, zeta = 3.0, 2, 1.0
    sol = degenerate_solution(lam, n_r, zeta)
    e_ode = sol.eigenvalue + 0.5 * zeta * zeta
    for q in np.linspace(0.15, 0.5 * math.pi - 0.15, 13):
        res = _ode_residual(sol.evaluator, float(q), e_ode, 0.0, lam, zeta)
        assert abs(res) < 1e-6 * max(abs(e_ode), 1.0)


def test_degenerate_matches_convenience_wrapper():
    # one value of a chi = 0 level, against the mpmath Jacobi route
    with mpmath.workdps(30):
        want = float(_mp_polar_level(0.4, 0.0, 2.5, 1))
    assert degenerate_solution(2.5, 1).evaluator(0.4) == pytest.approx(want, rel=1e-14)


def test_domain_validation():
    with pytest.raises(DomainError):
        polar_eigenvalue(0.4, 2.0, 0)       # chi below branch floor
    with pytest.raises(DomainError):
        polar_eigenvalue(2.0, 2.0, -1)
    with pytest.raises(DomainError):
        polar_solution(2.0, 2.0, 0, zeta=0.0)
    sol = polar_solution(2.0, 2.0, 0)
    with pytest.raises(DomainError):
        sol.evaluator(-0.3)
    with pytest.raises(DomainError):
        sol.evaluator(0.5 * math.pi + 0.1)


def test_map_polar():
    # strengths c_chi = 2(E+M)B + m^2 - 1/4 and c_lam = 2(E+M)A(A-1)
    chi, lam = map_polar(A=2.0, B=1.0, m=1, E_plus_M=2.5)
    c_chi = 2.0 * 2.5 * 1.0 + 1.0 - 0.25
    c_lam = 2.0 * 2.5 * 2.0 * 1.0
    assert chi * (chi - 1.0) == pytest.approx(c_chi, rel=1e-13)
    assert lam * (lam - 1.0) == pytest.approx(c_lam, rel=1e-13)
    # A = 1 kills the lam coupling entirely
    _, lam1 = map_polar(A=1.0, B=1.0, m=0, E_plus_M=2.5)
    assert lam1 == 1.0
    # B -> 0 with m = 0 lands exactly on the branch boundary chi = 1/2
    with pytest.warns(RuntimeWarning):
        chi_b, _ = map_polar(A=2.0, B=0.0, m=0, E_plus_M=2.5)
    assert chi_b == pytest.approx(0.5, abs=1e-12)


def test_map_polar_complex_branch():
    # a sub-unit A drives c_lam below -1/4
    with pytest.raises(ComplexBranch):
        map_polar(A=0.5, B=1.0, m=0, E_plus_M=2.5)


def test_map_azimuthal():
    chi, lam = map_azimuthal(C=2.0, D=2.0, alpha=2, E_plus_M=2.5)
    want = 2.0 * 2.5 * 4.0 * 2.0  # both strengths coincide here
    assert chi == lam
    assert chi * (chi - 1.0) == pytest.approx(want, rel=1e-13)
    with pytest.raises(DomainError):
        map_azimuthal(C=2.0, D=2.0, alpha=0, E_plus_M=2.5)
    with pytest.raises(DomainError):
        map_azimuthal(C=-1.0, D=2.0, alpha=1, E_plus_M=2.5)


def test_azimuthal_m_squared_positive_grid():
    for C in (1.5, 3.0, 5.0):
        for D in (1.5, 3.0, 5.0):
            for alpha in (1, 2, 4):
                chi, lam = map_azimuthal(C, D, alpha, E_plus_M=2.2)
                for n_r in (0, 1):
                    m2 = azimuthal_m_squared(chi, lam, n_r, alpha)
                    assert m2 > 0.0
                    # level + alpha^2/2 by construction
                    want = polar_eigenvalue(chi, lam, n_r, zeta=float(alpha)) \
                        + 0.5 * alpha * alpha
                    assert m2 == pytest.approx(want, rel=1e-14)


def test_solution_record_fields():
    sol = polar_solution(2.5, 1.5, 3, zeta=0.5)
    assert (sol.chi, sol.lam, sol.zeta, sol.n_r) == (2.5, 1.5, 0.5, 3)
    assert sol.eigenvalue == polar_eigenvalue(2.5, 1.5, 3, zeta=0.5)
