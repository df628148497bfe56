"""Continuum radial solutions: phase shifts, normalization, wavefunction
reality and asymptotics, and the smoothed partial-wave amplitude.

Frozen numbers come from an independent mpmath route (50 dps): the
wavefunction assembled from mp.gamma / mp.hyp1f1, and phase shifts from
the argument of mp.gamma.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest

from ptdrsc import radial
from ptdrsc.errors import DomainError
from ptdrsc.radial import (
    coulomb_cross_section,
    log_normalization_constant,
    make_context,
    normalization_constant,
    phase_shift,
    radial_wavefunction,
    radial_wavefunction_with_derivative,
    scattering_amplitude,
    short_range_phase_shift,
)
from ptdrsc.special import hyp1f1, log_gamma


def test_context_kinematics():
    ctx = make_context(1.0, 1.5, 1.0)
    assert abs(ctx.wave_number - math.sqrt(1.25)) < 1e-15
    # eta = (M + E) delta / k
    assert abs(ctx.sommerfeld - 2.5 / math.sqrt(1.25)) < 1e-14


@pytest.mark.parametrize("M,E,d", [
    (1.0, 1.0 + 1e-10, 1.0),          # E^2 - M^2 cancels near threshold
    (1.0, 1.0 + 3e-8, 1.0),
    (1.0, 1e300, 1.0),                # E^2 overflows
    (1.0, 1.7e308, 1.0),
    (1e-300, 1.5e-300, 1.0),          # E^2 underflows
    (1.0, 1e10, 1e300),               # (M + E)·delta overflows, eta does not
])
def test_context_kinematics_against_mpmath(M, E, d):
    ctx = make_context(M, E, d)
    with mpmath.workdps(40):
        k = mpmath.sqrt(mpmath.mpf(E) ** 2 - mpmath.mpf(M) ** 2)
        eta = (mpmath.mpf(M) + E) * d / k
        assert abs(ctx.wave_number / k - 1) <= 4e-16, (E, ctx.wave_number)
        assert abs(ctx.sommerfeld / eta - 1) <= 8e-16, (E, ctx.sommerfeld)


@pytest.mark.parametrize("M,E,d", [
    (0.0, 1.5, 1.0),
    (1.0, 1.0, 1.0),
    (1.0, 0.5, 1.0),
    (1.0, 1.5, 0.0),
    (1.0, 1.5, -2.0),
])
def test_context_rejects_bad_parameters(M, E, d):
    with pytest.raises(DomainError):
        make_context(M, E, d)


def test_phase_shift_oracles():
    # M=1, E=5/3, delta=1/2 gives k=4/3 and eta exactly 1;
    # delta_0 = arg Gamma(0.5 - 1i) from mpmath at 50 dps
    ctx = make_context(1.0, 5.0 / 3.0, 0.5)
    assert abs(ctx.sommerfeld - 1.0) < 1e-14
    assert abs(phase_shift(ctx, 0) - 0.95500772434256911) < 1e-13
    # eta = 3 at M=1, E=5/4, delta=1: k=3/4, (M+E)delta/k = 3
    ctx3 = make_context(1.0, 1.25, 1.0)
    assert abs(ctx3.sommerfeld - 3.0) < 1e-14
    # delta_1 = arg Gamma(1.5 - 3i), wrapped into (-pi, pi]
    assert abs(phase_shift(ctx3, 1) - (-1.71546692046670895)) < 1e-13


def test_phase_shift_is_gamma_argument():
    ctx = make_context(1.0, 2.2, 0.7)
    eta = ctx.sommerfeld
    for ell in range(6):
        want = log_gamma(complex(ell + 0.5, -eta)).imag
        want = (want + math.pi) % (2.0 * math.pi) - math.pi
        got = phase_shift(ctx, ell)
        assert abs(got - want) < 1e-13
        assert -math.pi < got <= math.pi


def test_phase_shift_contract_against_mpmath():
    # the radial docstring's contract: wrapped error <= 2e-12 rad for
    # l <= 3000 and 0.01 <= eta <= 200, against mpmath.loggamma at 30 digits
    rng = np.random.default_rng(20261019)
    with mpmath.workdps(30):
        for _ in range(400):
            eta = 10 ** rng.uniform(-2.0, math.log10(200.0))
            ell = int(rng.integers(0, 3001))
            E = 1.0 + 10 ** rng.uniform(-3.0, 2.0)
            k = math.sqrt(E * E - 1.0)
            ctx = make_context(1.0, E, eta * k / (1.0 + E))
            raw = mpmath.im(mpmath.loggamma(mpmath.mpc(ell + 0.5, -ctx.sommerfeld)))
            want = float((raw + mpmath.pi) % (2 * mpmath.pi) - mpmath.pi)
            got = phase_shift(ctx, ell)
            err = abs((got - want + math.pi) % (2.0 * math.pi) - math.pi)
            assert err <= 2e-12, (ell, ctx.sommerfeld, err)


def _mp_coulomb_wave(ell, eta, k, kr):
    """g = 2·F_{l-1/2}(-eta, kr) and dg/dr from mpmath at 30 digits; F' by
    mpmath.diff, not by the l + 1 recurrence that the library uses."""
    with mpmath.workdps(30):
        L, eta = mpmath.mpf(ell) - 0.5, -mpmath.mpf(eta)

        def F(rho):
            return mpmath.coulombf(L, eta, rho)

        rho = mpmath.mpf(kr)
        return float(2 * F(rho)), float(2 * k * mpmath.diff(F, rho))


@pytest.mark.parametrize("seed,points,ell_max,kr_range", [
    (20261101, 96, 30, (0.05, 100.0)),
    (20261102, 24, 5, (100.0, 1200.0)),
    (20261119, 48, 30, (100.0, 1200.0)),
], ids=["ell<=30,kr<=100", "ell<=5,kr<=1200", "ell<=30,kr<=1200"])
def test_radial_wave_contract_against_mpmath(seed, points, ell_max, kr_range):
    # the radial docstring's contract: g within 1e-11·max(1, |g|) and
    # dg/dr within 1e-11·max(k, |dg/dr|) of 2·mpmath.coulombf(l - 1/2, -eta, kr),
    # for 0.1 <= eta <= 6 and l <= 30 up to kr = 1200, where the large-|z|
    # series rises before it falls from l ~ sqrt(2kr); points alternate
    # between the two entry points
    rng = np.random.default_rng(seed)
    lo, hi = (math.log10(v) for v in kr_range)
    for i in range(points):
        eta = 10 ** rng.uniform(-1.0, math.log10(6.0))
        ell = int(rng.integers(0, ell_max + 1))
        kr = 10 ** rng.uniform(lo, hi)
        k = 10 ** rng.uniform(-1.0, 1.0)
        E = math.sqrt(1.0 + k * k)
        ctx = make_context(1.0, E, eta * k / (1.0 + E))
        r = kr / ctx.wave_number
        want_g, want_dg = _mp_coulomb_wave(ell, ctx.sommerfeld, ctx.wave_number,
                                           ctx.wave_number * r)
        if i % 2:
            g, dg = radial_wavefunction_with_derivative(ctx, ell, r)
            assert abs(dg - want_dg) <= 1e-11 * max(ctx.wave_number, abs(want_dg)), (
                ell, ctx.sommerfeld, kr, dg, want_dg)
        else:
            g = radial_wavefunction(ctx, ell, r)
        assert abs(g - want_g) <= 1e-11 * max(1.0, abs(want_g)), (ell, ctx.sommerfeld, kr, g)


@pytest.mark.parametrize("eta,ell,kr", [
    (1.0, 27, 351.0), (1.0, 30, 444.0), (1.0, 45, 1000.0), (1.0, 100, 1000.0), (0.447, 35, 600.0),
])
def test_radial_wave_where_the_large_z_terms_rise_before_they_fall(eta, ell, kr):
    # from l ~ sqrt(2kr) the large-|z| series rises before it falls; past
    # |z| = 2kr = 700 no mpmath series rescues a rejected expansion, so it
    # must be summed through the rise, and g meets the radial contract
    E = 1.5
    k = math.sqrt(E * E - 1.0)
    ctx = make_context(1.0, E, eta * k / (1.0 + E))
    r = kr / ctx.wave_number
    with mpmath.workdps(30):
        want = float(2 * mpmath.coulombf(ell - 0.5, -ctx.sommerfeld, ctx.wave_number * r))
    g = radial_wavefunction(ctx, ell, r)
    assert abs(g - want) <= 1e-11 * max(1.0, abs(want)), (g, want)


def test_radial_wave_at_a_node_past_kr_25_needs_no_mpmath_rescue(monkeypatch):
    # at a node of g the large-|z| expansion's error estimate is large
    # relative to |F| but not to its Poincaré terms; past |z| = 2kr = 50 it
    # passes on the latter, so within 1e-9 of the node no mpmath series runs
    # and g still meets the radial contract
    from ptdrsc import special

    calls = []
    series_mp = special._series_mp
    monkeypatch.setattr(special, "_series_mp",
                        lambda *args: calls.append(args) or series_mp(*args))
    E, ell = 1.5, 2
    k = math.sqrt(E * E - 1.0)
    ctx = make_context(1.0, E, 1.118 * k / (1.0 + E))
    with mpmath.workdps(30):
        def F(rho):
            return mpmath.coulombf(ell - 0.5, -ctx.sommerfeld, rho)

        lo, hi = mpmath.mpf(300.5), mpmath.mpf(301.0)
        f_lo = F(lo)
        assert f_lo * F(hi) < 0
        for _ in range(60):
            mid = (lo + hi) / 2
            f_mid = F(mid)
            if (f_mid < 0) == (f_lo < 0):
                lo, f_lo = mid, f_mid
            else:
                hi = mid
        node = float(lo)
        for kr in (node - 1e-9, node, node + 1e-9):
            r = kr / ctx.wave_number
            want = float(2 * F(ctx.wave_number * r))
            g = radial_wavefunction(ctx, ell, r)
            assert abs(g - want) <= 1e-11 * max(1.0, abs(want)), (kr, g, want)
    assert calls == []


def test_radial_waves_call_only_the_coulomb_shape_of_hyp1f1(monkeypatch):
    # every 1F1 call of both entry points has b = 2·Re a and Re z = 0, the
    # case whose two large-|z| series are conjugate
    from ptdrsc import radial

    calls = []

    def spy(a, b, z):
        calls.append((a, b, z))
        return hyp1f1(a, b, z)

    monkeypatch.setattr(radial, "hyp1f1", spy)
    ctx = make_context(1.0, 1.8, 0.6)
    for ell in (0, 3, 12):
        for r in (0.3, 8.0, 500.0):
            radial_wavefunction(ctx, ell, r)
            radial_wavefunction_with_derivative(ctx, ell, r)
    assert len(calls) == 27
    for a, b, z in calls:
        assert b == 2.0 * a.real and z.real == 0.0, (a, b, z)


def test_phase_shift_gamma_ratio_identity():
    # e^{2i delta_l} = Gamma(l + 1/2 - i eta) / Gamma(l + 1/2 + i eta)
    ctx = make_context(1.0, 1.7, 1.3)
    eta = ctx.sommerfeld
    for ell in range(5):
        lhs = cmath.exp(2.0j * phase_shift(ctx, ell))
        rhs = cmath.exp(log_gamma(complex(ell + 0.5, -eta))
                        - log_gamma(complex(ell + 0.5, eta)))
        assert abs(lhs - rhs) < 1e-12


def test_short_range_phase_shift_offset():
    ctx = make_context(1.0, 1.5, 0.8)
    for ell in range(4):
        for ellp in (ell, ell + 1, ell + 3):
            got = short_range_phase_shift(ctx, ell, ellp)
            want = phase_shift(ctx, ell) + math.pi * (ellp - ell + 0.5) / 2.0
            assert abs(got - want) < 1e-14
    # default second index is the wave's own ell
    assert short_range_phase_shift(ctx, 2) == short_range_phase_shift(ctx, 2, 2)


def test_normalization_constant_closed_form():
    ctx = make_context(1.0, 1.5, 1.0)
    eta = ctx.sommerfeld
    for ell in range(4):
        ln_a = log_normalization_constant(ctx, ell)
        # 2^{l+1/2} |Gamma(l+1/2-i eta)| e^{pi eta/2} / Gamma(2l+1)
        want = ((ell + 0.5) * math.log(2.0)
                + log_gamma(complex(ell + 0.5, -eta)).real
                + 0.5 * math.pi * eta
                - math.lgamma(2 * ell + 1))
        assert abs(ln_a - want) < 1e-12
        assert abs(normalization_constant(ctx, ell) - math.exp(ln_a)) < 1e-12 * math.exp(ln_a)
    # ln A = 709.4 is past 709 but A = 1.226e308 is a double, so A is returned
    ctx = radial.RelativisticContext(1.0, 1.5, 1.0, 1.0, 3336782.4755672514)
    ln_a = log_normalization_constant(ctx, 100)
    assert 709.0 < ln_a < 709.78
    assert normalization_constant(ctx, 100) == math.exp(ln_a)


def test_log_normalization_constant_contract_against_mpmath():
    # the radial docstring's contract: ln A within 2e-11 absolute for
    # l <= 3000 and 1e-3 <= eta <= 1e4, against 40-digit mpmath.loggamma
    rng = np.random.default_rng(20261117)
    for _ in range(400):
        ell = int(10 ** rng.uniform(0.0, math.log10(3001.0))) - 1
        eta = 10 ** rng.uniform(-3.0, 4.0)
        ctx = make_context(1.0, 1.5, eta * math.sqrt(1.25) / 2.5)
        with mpmath.workdps(40):
            eta = mpmath.mpf(ctx.sommerfeld)
            want = ((ell + mpmath.mpf(0.5)) * mpmath.log(2)
                    + mpmath.re(mpmath.loggamma(mpmath.mpc(ell + 0.5, -eta)))
                    + mpmath.pi * eta / 2 - mpmath.loggamma(2 * ell + 1))
            got = log_normalization_constant(ctx, ell)
            assert abs(got - want) <= 2e-11, (ell, ctx.sommerfeld, got, want)


def test_normalization_survives_huge_sommerfeld_parameter():
    # eta ~ (M+E)delta/k diverges as E -> M+; the e^{pi eta/2} growth
    # cancels against the Gamma decay, so A stays finite even where a
    # naive product of the factors would overflow long before
    ctx = make_context(1.0, 1.0 + 5e-7, 300.0)
    eta = ctx.sommerfeld
    assert eta > 1e5
    for ell in (0, 1, 2):
        a = normalization_constant(ctx, ell)
        assert math.isfinite(a) and a > 0.0
        # |Gamma(l+1/2-i eta)| -> sqrt(2 pi) eta^l e^{-pi eta/2} at large eta
        want = (2.0 ** (ell + 0.5) * math.sqrt(2.0 * math.pi) * eta ** ell
                / math.gamma(2 * ell + 1))
        assert abs(a - want) < 1e-2 * want


# mpmath oracle: M=1, E=1.5, delta=1 (k = sqrt(5)/2, eta = sqrt(5))
WAVEFUNCTION_ORACLES = [
    (0, 2.0, 1.4563027980840531718),
    (2, 3.7, -1.2514175328436124838),
]


@pytest.mark.parametrize("ell,r,want", WAVEFUNCTION_ORACLES)
def test_radial_wavefunction_oracles(ell, r, want):
    ctx = make_context(1.0, 1.5, 1.0)
    got = radial_wavefunction(ctx, ell, r)
    assert abs(got - want) < 1e-10 * abs(want)


def test_radial_wavefunction_derivative_oracle():
    ctx = make_context(1.0, 1.5, 1.0)
    g, gp = radial_wavefunction_with_derivative(ctx, 0, 2.0)
    assert abs(g - 1.4563027980840531718) < 1e-10
    assert abs(gp - 0.95512984074688577983) < 1e-10


def test_radial_wavefunction_derivative_matches_finite_difference():
    ctx = make_context(1.0, 1.8, 0.6)
    h = 1e-6
    for ell in (0, 1, 3):
        for r in (0.8, 2.5, 7.0):
            _, gp = radial_wavefunction_with_derivative(ctx, ell, r)
            fd = (radial_wavefunction(ctx, ell, r + h)
                  - radial_wavefunction(ctx, ell, r - h)) / (2.0 * h)
            assert abs(gp - fd) < 1e-6 * max(1.0, abs(gp))


def test_radial_wavefunction_is_real_on_grid():
    # the exact solution is real for every r > 0; the implementation
    # must deliver it without complex residue
    ctx = make_context(1.0, 2.5, 1.5)
    for ell in (0, 1, 4):
        for r in np.geomspace(0.05, 30.0, 25):
            val = radial_wavefunction(ctx, ell, float(r))
            assert isinstance(val, float)


def test_radial_wavefunction_small_r_power_law():
    # g ~ A (kr)^{l+1/2} (1 + O(kr)) as r -> 0
    ctx = make_context(1.0, 1.5, 1.0)
    for ell in (0, 2):
        a = normalization_constant(ctx, ell)
        r = 1e-6
        want = a * (ctx.wave_number * r) ** (ell + 0.5)
        assert abs(radial_wavefunction(ctx, ell, r) - want) < 1e-4 * abs(want)
        # the half-odd power law itself, via a doubling ratio
        ratio = radial_wavefunction(ctx, ell, 2.0 * r) / radial_wavefunction(ctx, ell, r)
        assert abs(ratio - 2.0 ** (ell + 0.5)) < 1e-4


def test_radial_wavefunction_asymptotic_sine():
    # g -> 2 sin(kr + delta_l - l pi/2 + pi/4 + eta ln 2kr) at large kr
    ctx = make_context(1.0, 1.5, 0.5)
    k, eta = ctx.wave_number, ctx.sommerfeld
    for ell in (0, 1):
        d = phase_shift(ctx, ell)
        for r in (900.0 / k, 1400.0 / k):
            arg = k * r + d - 0.5 * math.pi * ell + 0.25 * math.pi \
                + eta * math.log(2.0 * k * r)
            got = radial_wavefunction(ctx, ell, r)
            assert abs(got - 2.0 * math.sin(arg)) < 5e-3


def test_radial_wavefunction_domain():
    ctx = make_context(1.0, 1.5, 1.0)
    with pytest.raises(DomainError):
        radial_wavefunction(ctx, 0, 0.0)
    with pytest.raises(DomainError):
        radial_wavefunction(ctx, 0, -1.0)
    with pytest.raises(DomainError):
        radial_wavefunction(ctx, -1, 1.0)


# ------------------------------------------------------ scattering amplitude

def _direct_sum(shifts, theta, k, weights):
    total = 0.0j
    L = len(shifts) - 1
    for m in range(-L, L + 1):
        s = cmath.exp(2.0j * shifts[abs(m)]) - 1.0
        total += weights[abs(m)] * s * cmath.exp(1.0j * m * theta)
    return -1.0j / math.sqrt(2.0 * math.pi * k) * total


def _fresh_amplitude(shifts, theta, k, smoothing="abel"):
    """scattering_amplitude with its table of θ-independent terms rebuilt."""
    radial._last_table = None
    return scattering_amplitude(shifts, theta, k, smoothing=smoothing)


def test_scattering_amplitude_matches_direct_sum():
    shifts = [0.3, -0.2, 0.11, 0.05, -0.01]
    k, L = 1.7, 4
    weights = {
        "abel": [math.exp(-(10.0 / L) * m) for m in range(L + 1)],
        "cesaro": [1.0 - m / (L + 1.0) for m in range(L + 1)],
        "none": [1.0] * (L + 1),
    }
    thetas = (0.4, 1.2, math.pi)
    for smoothing, w in weights.items():
        for theta in thetas:
            fresh = _fresh_amplitude(shifts, theta, k, smoothing)
            assert abs(fresh - _direct_sum(shifts, theta, k, w)) < 1e-14
            # the second call reuses the table, with the same bits
            assert scattering_amplitude(shifts, theta, k, smoothing=smoothing) == fresh
        got = scattering_amplitude(shifts, np.array(thetas), k, smoothing=smoothing)
        assert got.shape == (len(thetas),)
        for theta, f in zip(thetas, got):
            assert abs(f - _direct_sum(shifts, theta, k, w)) < 1e-14


def test_scattering_amplitude_matches_direct_sum_at_l2000():
    # the benchmark's size: Coulomb phases for l = 0..2000, Abel-smoothed
    ctx = make_context(1.0, 1.5, 1.0)
    L = 2000
    shifts = [phase_shift(ctx, ell) for ell in range(L + 1)]
    abel = [math.exp(-(10.0 / L) * m) for m in range(L + 1)]
    k = ctx.wave_number
    for theta in (0.1, 1.0, 2.5, math.pi):
        want = _direct_sum(shifts, theta, k, abel)
        got = scattering_amplitude(shifts, theta, k)
        assert abs(got - want) <= 1e-12 * abs(want)
        assert got == _fresh_amplitude(shifts, theta, k)


def test_scattering_amplitude_array_equals_scalar_calls():
    # 600 angles at L = 2000 fill more than one block of the cosine matrix
    rng = np.random.default_rng(7)
    shifts = rng.uniform(-1.5, 1.5, size=2001)
    thetas = np.linspace(0.05, math.pi, 600)
    for smoothing in ("none", "abel", "cesaro"):
        got = scattering_amplitude(shifts, thetas, 0.9, smoothing=smoothing)
        for theta, f in zip(thetas, got):
            want = scattering_amplitude(shifts, float(theta), 0.9, smoothing=smoothing)
            assert isinstance(want, complex)
            assert abs(f - want) <= 1e-14 * abs(want)


def test_scattering_amplitude_keeps_only_the_last_table(monkeypatch):
    # which inputs np.asarray converted, and how many tables were built
    converted, built = [], []
    asarray, build = np.asarray, radial._partial_wave_table

    def counting_asarray(a, *args, **kwargs):
        converted.append(a)
        return asarray(a, *args, **kwargs)

    def counting_build(*args):
        built.append(args[-1])
        return build(*args)

    def call(shifts, theta=1.2, k=1.7, smoothing="abel"):
        """(f, whether the shifts were converted, tables built) of one call."""
        converted.clear()
        built.clear()
        f = scattering_amplitude(shifts, theta, k, smoothing=smoothing)
        return f, any(a is shifts for a in converted), len(built)

    def fresh(shifts, theta=1.2, k=1.7, smoothing="abel"):
        """repr of f from a new table, with the slot left as it was."""
        kept = radial._last_table
        with monkeypatch.context() as m:
            m.setattr(np, "asarray", asarray)
            f = repr(_fresh_amplitude(shifts, theta, k, smoothing))
        radial._last_table = kept
        return f

    monkeypatch.setattr(np, "asarray", counting_asarray)
    monkeypatch.setattr(radial, "_partial_wave_table", counting_build)
    shifts = [0.3, -0.2, 0.11, 0.05, -0.01]
    radial._last_table = None
    f, was_converted, builds = call(shifts)
    assert was_converted and builds == 1 and repr(f) == fresh(shifts)
    table = radial._last_table
    assert table.shifts == shifts and table.shifts is not shifts
    # the same list, and an equal list of new float objects: a list hit,
    # which neither converts nor builds and leaves the slot as it was
    same = [float(repr(d)) for d in shifts]
    for other in (shifts, same):
        for theta in (1.2, 0.3):
            g, was_converted, builds = call(other, theta)
            assert not was_converted and builds == 0
            assert repr(g) == fresh(shifts, theta)
            assert radial._last_table is table
    # a list changed in place is a new table
    shifts[2] = 0.4
    g, was_converted, builds = call(shifts)
    assert was_converted and builds == 1
    assert repr(g) == fresh(shifts) != repr(f)
    # a NaN or inf written in after a hit is still checked
    for bad in (math.nan, math.inf, -math.inf):
        assert not call(shifts)[1]
        shifts[3] = bad
        with pytest.raises(DomainError):
            scattering_amplitude(shifts, 1.2, 1.7)
        shifts[3] = 0.05
    # a list of arrays, which compare to the kept floats without a truth
    # value, is checked
    with pytest.raises(DomainError):
        scattering_amplitude([np.array([d, d]) for d in shifts], 1.2, 1.7)
    # a tuple and an array of the same bits convert but reuse the table,
    # which keeps its list copy for the next list call
    table = radial._last_table
    for other in (tuple(shifts), np.array(shifts)):
        g, was_converted, builds = call(other)
        assert was_converted and builds == 0 and repr(g) == fresh(shifts)
        assert radial._last_table.terms is table.terms
        assert not call(shifts)[1]
    # elements that can change in place are not kept: an array cell written
    # after the call makes the next call convert the list again
    cells = [np.array(d) for d in shifts]
    radial._last_table = None
    call(cells)
    assert radial._last_table.shifts is None
    cells[1][()] = 0.25
    g, was_converted, builds = call(cells)
    assert was_converted and builds == 1
    assert repr(g) == fresh([float(c) for c in cells])
    call(shifts)
    # a changed smoothing is a new table, with the same list
    for smoothing in ("none", "cesaro", "abel"):
        g, was_converted, builds = call(shifts, smoothing=smoothing)
        assert was_converted and builds == 1
        assert repr(g) == fresh(shifts, smoothing=smoothing)
    # lists that hold ±0.0 never take the list path, and tables that differ
    # only in the sign of a zero are different tables
    for first, second in (([0.0, 0.2], [-0.0, 0.2]), ([-0.0], [0.0])):
        want = fresh(second, 0.7, 1.0)
        call(first, 0.7, 1.0)
        assert radial._last_table.shifts is None
        g, was_converted, builds = call(second, 0.7, 1.0)
        assert was_converted and builds == 1 and repr(g) == want
        g, was_converted, builds = call(second, 0.7, 1.0)
        assert was_converted and builds == 0 and repr(g) == want
    # the kept arrays cannot be changed by a caller
    assert not (radial._last_table.ell.flags.writeable
                or radial._last_table.terms.flags.writeable)


def test_scattering_amplitude_phase_conjugation():
    # flipping the sign of every phase shift conjugates and negates f
    rng = np.random.default_rng(3)
    shifts = list(rng.uniform(-1.0, 1.0, size=12))
    neg = [-s for s in shifts]
    for theta in (0.9, 2.0):
        f = scattering_amplitude(shifts, theta, 1.3)
        g = scattering_amplitude(neg, theta, 1.3)
        assert abs(g + f.conjugate()) < 1e-13


def test_scattering_amplitude_domain():
    with pytest.raises(DomainError):
        scattering_amplitude([0.1], 0.0, 1.0)
    with pytest.raises(DomainError):
        scattering_amplitude([0.1], 4.0, 1.0)
    with pytest.raises(DomainError):
        scattering_amplitude([0.1], 1.0, 0.0)
    with pytest.raises(DomainError):
        scattering_amplitude([], 1.0, 1.0)
    with pytest.raises(DomainError):
        scattering_amplitude([0.1], 1.0, 1.0, smoothing="boxcar")
    with pytest.raises(DomainError):
        scattering_amplitude([0.1], [0.5, 1.0, 4.0], 1.0)
    with pytest.raises(DomainError):
        scattering_amplitude([0.1], [[0.5, 1.0]], 1.0)
    with pytest.raises(DomainError):
        scattering_amplitude([0.1], math.nan, 1.0)
    with pytest.raises(DomainError):
        scattering_amplitude([0.1], [0.5, math.nan], 1.0)


def test_coulomb_cross_section_closed_form():
    # alpha tanh(pi alpha) / (2 k sin^2(theta/2))
    got = coulomb_cross_section(1.0, 2.0, math.pi)
    assert abs(got - math.tanh(math.pi) / 4.0) < 1e-15
    got = coulomb_cross_section(0.5, 1.0, 0.5 * math.pi)
    want = 0.5 * math.tanh(0.5 * math.pi) / (2.0 * math.sin(0.25 * math.pi) ** 2)
    assert abs(got - want) < 1e-15
    with pytest.raises(DomainError):
        coulomb_cross_section(1.0, 2.0, 0.0)
