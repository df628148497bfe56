"""Acceptance gate: ten end-to-end criteria, one test per criterion.

Each test prints a single `criterion NN [PASS|FAIL]` line with its
worst-case metric (visible with `pytest -s`, or per-test via
`pytest -v`) and then asserts.  Tolerances are part of the package
contract; do not loosen them to make a failure go away.
"""

import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from bound_routes import bound_energy_bisection, energy_equation_residual
from ptdrsc.angular import polar_solution
from ptdrsc.bound import bound_energy, nonrel_energy
from ptdrsc.radial import (
    coulomb_cross_section,
    make_context,
    phase_shift,
    radial_wavefunction,
    radial_wavefunction_with_derivative,
    scattering_amplitude,
)
from ptdrsc.special import log_gamma
from ptdrsc.thermo import (
    ThermoState,
    entropy,
    free_energy,
    log_partition_function,
    mean_energy,
    specific_heat,
)
from ptdrsc.xsec import (
    ScreenedRutherford,
    backward_probability,
    fit_screened,
    forward_probability,
    scatter_probability,
    screened_rutherford_dcs,
    screened_sigma_total,
    screened_sigma_transport,
    sigma_total,
    sigma_transport,
)
import scipy.integrate


def _report(number: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} [{status}] {label}: {detail}")
    assert ok, f"criterion {number:02d} {label}: {detail}"


# ---------------------------------------------------------------------------
# 1. Gamma-function moduli identities on the imaginary axis


def test_criterion_01_gamma_identities():
    ys = np.linspace(0.4, 20.0, 50)
    worst = 0.0
    for y in ys:
        m2_axis = math.exp(2.0 * log_gamma(complex(0.0, y)).real)
        lhs1 = m2_axis * y * math.sinh(math.pi * y)
        m2_half = math.exp(2.0 * log_gamma(complex(0.5, y)).real)
        lhs2 = m2_half * math.cosh(math.pi * y)
        worst = max(worst, abs(lhs1 - math.pi) / math.pi,
                    abs(lhs2 - math.pi) / math.pi)
    _report(1, "Gamma moduli identities", worst <= 1e-10,
            f"worst relative deviation {worst:.3e} over 50 ordinates (tol 1e-10)")


# ---------------------------------------------------------------------------
# 2. Continuum wavefunction satisfies the radial equation


def _context_with_eta(eta: float):
    # M = 1, E = 5/4 gives k = 3/4, so delta = eta/3 sets eta exactly
    return make_context(1.0, 1.25, eta / 3.0)


def test_criterion_02_radial_ode_residual():
    worst = 0.0
    for eta in (0.5, 1.0, 3.0):
        ctx = _context_with_eta(eta)
        k = ctx.wave_number
        coupling = 2.0 * (ctx.mass + ctx.energy) * ctx.coupling_delta
        for ell in range(6):
            candidates = np.geomspace(0.2 / k, 40.0 / k, 250)
            kept = [r for r in candidates
                    if abs(radial_wavefunction(ctx, ell, float(r))) >= 0.2][:100]
            for r in kept:
                r = float(r)
                h = min(0.03 / k, 0.015 * r)
                g = [radial_wavefunction(ctx, ell, r + i * h)
                     for i in (-2, -1, 0, 1, 2)]
                gpp = (-g[4] + 16.0 * g[3] - 30.0 * g[2]
                       + 16.0 * g[1] - g[0]) / (12.0 * h * h)
                coef = k * k + coupling / r - (ell * ell - 0.25) / (r * r)
                scale = abs(gpp) + (k * k + abs(coupling / r)
                                    + abs((ell * ell - 0.25) / (r * r))) * abs(g[2])
                worst = max(worst, abs(gpp + coef * g[2]) / scale)
    _report(2, "radial ODE residual", worst <= 1e-6,
            f"worst relative residual {worst:.3e} at 100 radii x 18 channels "
            "(tol 1e-6)")


# ---------------------------------------------------------------------------
# 3. Large-r asymptotic phase matches the closed-form phase shift


def test_criterion_03_asymptotic_phase():
    worst = 0.0
    for eta in (0.5, 3.0):
        ctx = _context_with_eta(eta)
        k = ctx.wave_number
        for ell in (0, 2, 5):
            rs = np.linspace(400.0 / k, 1200.0 / k, 500)
            g = np.empty_like(rs)
            gp = np.empty_like(rs)
            for i, r in enumerate(rs):
                g[i], gp[i] = radial_wavefunction_with_derivative(ctx, ell, float(r))
            local = np.unwrap(np.arctan2((k + eta / rs) * g, gp))
            drift = local - (k * rs + eta * np.log(2.0 * k * rs))
            basis = np.stack([np.ones_like(rs), 1.0 / rs, rs ** -2.0,
                              rs ** -3.0, rs ** -4.0], axis=1)
            coeffs, *_ = np.linalg.lstsq(basis, drift, rcond=None)
            expected = phase_shift(ctx, ell) - 0.5 * math.pi * ell + 0.25 * math.pi
            diff = (coeffs[0] - expected) % (2.0 * math.pi)
            worst = max(worst, min(diff, 2.0 * math.pi - diff))
    _report(3, "asymptotic phase extraction", worst <= 1e-4,
            f"worst extracted-phase error {worst:.3e} rad over 6 channels "
            "(tol 1e-4)")


# ---------------------------------------------------------------------------
# 4. Smoothed partial-wave sum reproduces the closed-form Coulomb shape


def test_criterion_04_amplitude_vs_coulomb():
    L = 2000
    worst = 0.0
    for alpha in (0.5, 1.0):
        ctx = _context_with_eta(alpha)
        k = ctx.wave_number
        shifts = [phase_shift(ctx, ell) for ell in range(L + 1)]
        for theta in (math.pi / 3.0, math.pi / 2.0, 2.0 * math.pi / 3.0, math.pi):
            dcs = abs(scattering_amplitude(shifts, theta, k, smoothing="abel")) ** 2
            ref = coulomb_cross_section(alpha, k, theta)
            worst = max(worst, abs(dcs / ref - 1.0))
    _report(4, "partial-wave sum vs Coulomb closed form", worst <= 0.02,
            f"worst relative deviation {worst:.3e} at 4 angles x 2 couplings "
            "(tol 2e-2)")


# ---------------------------------------------------------------------------
# 5. Bound levels: closed form zeroes the quantization residual and
#    agrees with independent bisection


def test_criterion_05_bound_levels():
    anchor = bound_energy(1.0, 1.0, 0, 0)
    ok_anchor = abs(anchor + 0.6) < 1e-14
    pairs = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0),
             (0, 2), (2, 1), (1, 2), (3, 0), (2, 2)]
    worst_res = 0.0
    worst_gap = 0.0
    for M in np.linspace(0.5, 5.0, 10):
        for d in np.geomspace(0.05, 2.5, 10):
            for n_r, ell in pairs:
                M_f, d_f = float(M), float(d)
                e = bound_energy(M_f, d_f, n_r, ell)
                res = energy_equation_residual(e, M_f, d_f, n_r, ell)
                worst_res = max(worst_res, abs(res) / M_f)
                e_b = bound_energy_bisection(M_f, d_f, n_r, ell)
                worst_gap = max(worst_gap, abs(e - e_b) / M_f)
    ok = ok_anchor and worst_res <= 1e-12 and worst_gap <= 1e-12
    _report(5, "bound-level closed form", ok,
            f"anchor E(1,1,0,0)={anchor:.15f}, worst residual {worst_res:.3e}, "
            f"worst closed-vs-bisection gap {worst_gap:.3e} over 1000 cases "
            "(tol 1e-12)")


# ---------------------------------------------------------------------------
# 6. Nonrelativistic limit with the quadratic error bound


def test_criterion_06_nonrel_limit():
    anchor_gap = bound_energy(1.0, 0.1, 0, 1) - 1.0
    anchor_nr = nonrel_energy(1.0, 0.1, 0, 1)
    ok_anchor = (abs(anchor_gap + 0.0088496) < 5e-8
                 and abs(anchor_nr + 0.0088889) < 5e-8)
    worst_excess = -1.0
    for M in (0.5, 1.0, 2.0):
        for n in (0, 1, 2):
            for ell in (0, 1, 3):
                lam = 2 * n + 1 + 2 * ell
                for d in np.linspace(0.01, 0.1 * lam, 8):
                    d = float(d)
                    gap = bound_energy(M, d, n, ell) - M
                    e_nr = nonrel_energy(M, d, n, ell)
                    rel = abs(gap - e_nr) / abs(e_nr)
                    bound = 8.0 * d * d / (lam * lam)
                    worst_excess = max(worst_excess, rel - bound)
    ok = ok_anchor and worst_excess <= 0.0
    _report(6, "nonrelativistic limit", ok,
            f"anchor gap {anchor_gap:.7f} vs limit {anchor_nr:.7f}; "
            f"worst (error - 8 d^2/L^2 bound) = {worst_excess:.3e} <= 0")


# ---------------------------------------------------------------------------
# 7. Thermodynamic closed forms vs finite differences and the beta -> 0 laws


def test_criterion_07_thermodynamics():
    worst_fd = 0.0
    for beta in (0.05, 0.5):
        for xi in (2.0, 6.0):
            for tau in (0.8, 1.6):
                st = ThermoState(beta=beta, xi=xi, tau=tau)
                h = 1e-4 * beta

                def lnz(b):
                    return log_partition_function(ThermoState(beta=b, xi=xi,
                                                              tau=tau))

                def u_of(b):
                    return mean_energy(ThermoState(beta=b, xi=xi, tau=tau))

                fd_u = -(-lnz(beta + 2 * h) + 8 * lnz(beta + h)
                         - 8 * lnz(beta - h) + lnz(beta - 2 * h)) / (12.0 * h)
                fd_c = -beta * beta * (-u_of(beta + 2 * h) + 8 * u_of(beta + h)
                                       - 8 * u_of(beta - h)
                                       + u_of(beta - 2 * h)) / (12.0 * h)
                worst_fd = max(worst_fd,
                               abs(mean_energy(st) / fd_u - 1.0),
                               abs(specific_heat(st) / fd_c - 1.0))
                ts = entropy(st) / (st.boltzmann_k * beta)
                worst_fd = max(worst_fd, abs(free_energy(st)
                                             - (mean_energy(st) - ts))
                               / max(abs(free_energy(st)), 1.0))
    xi, tau = 5.0, 2.0
    st0 = ThermoState(beta=1e-4 * (tau / xi) ** 2, xi=xi, tau=tau)
    u_lim = -xi * xi / (3.0 * tau * tau)
    dev_u = abs(mean_energy(st0) / u_lim - 1.0)
    dev_c = abs(specific_heat(st0))
    ok = worst_fd <= 1e-6 and dev_u <= 0.01 and dev_c <= 0.01
    _report(7, "thermodynamic closed forms", ok,
            f"worst closed-vs-FD deviation {worst_fd:.3e} (tol 1e-6); "
            f"beta->0: U within {dev_u:.3e} of -xi^2/(3 tau^2), |C| = {dev_c:.3e} "
            "(tol 1e-2)")


# ---------------------------------------------------------------------------
# 8. Angular eigenfunctions: ODE residual, boundary zeros, orthonormality


@pytest.mark.filterwarnings("ignore::UserWarning")  # quad roundoff on ~0 integrals
def test_criterion_08_angular_eigensolutions():
    chi, lam = 2.0, 3.0
    sols = [polar_solution(chi, lam, n) for n in range(4)]
    worst_ode = 0.0
    h = 1e-3
    for sol in sols:
        e = sol.eigenvalue
        for q in np.linspace(0.2, 0.5 * math.pi - 0.2, 15):
            q = float(q)
            f = sol.evaluator
            hpp = (-f(q + 2 * h) + 16.0 * f(q + h) - 30.0 * f(q)
                   + 16.0 * f(q - h) - f(q - 2 * h)) / (12.0 * h * h)
            s, c = math.sin(q), math.cos(q)
            pot = 0.5 * (chi * (chi - 1.0) / (s * s) + lam * (lam - 1.0) / (c * c))
            worst_ode = max(worst_ode, abs(-0.5 * hpp + (pot - e) * f(q)) / e)
    worst_boundary = max(max(abs(s.evaluator(0.0)),
                             abs(s.evaluator(0.5 * math.pi))) for s in sols)
    worst_ortho = 0.0
    for i in range(4):
        for j in range(i, 4):
            val, _ = scipy.integrate.quad(
                lambda q: sols[i].evaluator(q) * sols[j].evaluator(q),
                0.0, 0.5 * math.pi, epsabs=0.0, epsrel=1e-11, limit=200)
            worst_ortho = max(worst_ortho, abs(val - (1.0 if i == j else 0.0)))
    ok = worst_ode <= 1e-6 and worst_boundary <= 1e-10 and worst_ortho <= 1e-8
    _report(8, "angular eigensolutions", ok,
            f"ODE residual {worst_ode:.3e} (tol 1e-6), boundary "
            f"{worst_boundary:.3e} (tol 1e-10), orthonormality defect "
            f"{worst_ortho:.3e} (tol 1e-8) over 4 levels")


# ---------------------------------------------------------------------------
# 9. Cross-section quadratures vs closed forms, anchors, probabilities, fit


def test_criterion_09_cross_sections():
    worst_quad = 0.0
    worst_fit = 0.0
    for gamma in np.geomspace(1e-3, 1e3, 7):
        for phi in (0.1, 1.0, 10.0):
            m = ScreenedRutherford(phi=phi, gamma_screen=float(gamma))
            dcs = lambda t: screened_rutherford_dcs(m, t)
            tot_c, tr_c = screened_sigma_total(m), screened_sigma_transport(m)
            worst_quad = max(worst_quad,
                             abs(sigma_total(dcs) / tot_c - 1.0),
                             abs(sigma_transport(dcs) / tr_c - 1.0))
            f = fit_screened(tot_c, tr_c)
            worst_fit = max(worst_fit,
                            abs(screened_sigma_total(f) / tot_c - 1.0),
                            abs(screened_sigma_transport(f) / tr_c - 1.0))
    anchor_model = ScreenedRutherford(phi=1.0, gamma_screen=2.0)
    anchor_tot = screened_sigma_total(anchor_model)
    anchor_tr = screened_sigma_transport(anchor_model)
    # exact anchor is 2 pi (ln 2 - 1/2) = 1.2135795...; the rounded
    # quote 1.21355 is only honored as a loose band
    ok_anchor = (abs(anchor_tot - 0.5 * math.pi) < 1e-12
                 and abs(anchor_tr - 2.0 * math.pi * (math.log(2.0) - 0.5)) < 1e-12
                 and abs(anchor_tr - 1.21355) < 5e-5)
    dcs = lambda t: screened_rutherford_dcs(anchor_model, t)
    split = abs(forward_probability(dcs) + backward_probability(dcs) - 1.0)
    exact_one = scatter_probability(dcs, math.pi)
    ok = (worst_quad <= 1e-8 and worst_fit <= 1e-8 and ok_anchor
          and split <= 1e-10 and exact_one == 1.0)
    _report(9, "cross-section integrals and fit", ok,
            f"quad-vs-closed {worst_quad:.3e}, fit round-trip {worst_fit:.3e} "
            f"(tol 1e-8); anchors sigma_tot={anchor_tot:.12f}, "
            f"sigma_tr={anchor_tr:.6f}; P_F+P_B-1 = {split:.1e} (tol 1e-10)")


# ---------------------------------------------------------------------------
# 10. CLI golden files: every subcommand byte-identical across runs


def test_criterion_10_cli_determinism():
    golden = pathlib.Path(__file__).parent / "golden"
    cases = {
        "phase_shifts.csv": ["phase-shifts", "--mass", "1", "--energy", "1.5",
                             "--delta", "1", "--lmax", "10"],
        "wavefunction.csv": ["wavefunction", "--mass", "1", "--energy", "1.5",
                             "--delta", "1", "--ell", "1", "--r", "0.5:0.5:5.0"],
        "cross_section.csv": ["cross-section", "--mass", "1", "--energy", "1.5",
                              "--delta", "0.5", "--lmax", "300", "--theta",
                              "0.7853981633974483:0.7853981633974483:"
                              "3.141592653589793"],
        "bound_states.csv": ["bound-states", "--mass", "1", "--delta", "0.5",
                             "--nmax", "2", "--lmax", "2"],
        "thermo.csv": ["thermo", "--beta", "0.01:0.01:0.05", "--xi", "5",
                       "--tau", "1"],
        "angular.json": ["angular", "--chi", "2", "--lam", "3", "--zeta", "1",
                         "--nmax", "4", "--format", "json"],
        "screened_fit.json": ["screened-fit", "--phi", "1",
                              "--gamma-screen", "2", "--format", "json"],
    }
    mismatched = []
    for name, argv in sorted(cases.items()):
        runs = [subprocess.run([sys.executable, "-m", "ptdrsc"] + argv,
                               capture_output=True) for _ in range(2)]
        want = (golden / name).read_bytes()
        if not (runs[0].returncode == runs[1].returncode == 0
                and runs[0].stdout == runs[1].stdout == want):
            mismatched.append(name)
    _report(10, "CLI golden-file determinism", not mismatched,
            "all 7 subcommands byte-identical to frozen goldens across "
            "repeated runs" if not mismatched
            else f"mismatches: {', '.join(mismatched)}")
