"""Integrated cross sections: quadrature vs. closed forms, the cumulative
scattering probability, and inversion of the screened-Rutherford pair."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq

from ptdrsc.errors import DomainError, NonIntegrable, NoRoot, Overflow
from ptdrsc.xsec import _FIT_LOG_HI, _FIT_LOG_LO, _ratio_from_u
from ptdrsc.xsec import (
    ScreenedRutherford,
    backward_probability,
    fit_screened,
    forward_probability,
    mean_wide_angle_collisions,
    scatter_probability,
    screened_rutherford_dcs,
    screened_sigma_total,
    screened_sigma_transport,
    screened_transport_ratio,
    sigma_total,
    sigma_transport,
    transport_ratio,
)


def _model_dcs(model):
    return lambda theta: screened_rutherford_dcs(model, theta)


def test_anchor_values():
    # Phi=1, Gamma=2: sigma_tot = pi/2, sigma_tr = 2 pi (ln 2 - 1/2)
    m = ScreenedRutherford(phi=1.0, gamma_screen=2.0)
    assert screened_sigma_total(m) == pytest.approx(0.5 * math.pi, rel=1e-15)
    assert screened_sigma_transport(m) == pytest.approx(
        2.0 * math.pi * (math.log(2.0) - 0.5), rel=1e-14)
    assert screened_sigma_transport(m) == pytest.approx(1.2135795270174108,
                                                        rel=1e-13)


def test_quadrature_matches_closed_forms():
    # module contract: cross sections and P(theta) within 1e-8 relative of
    # the closed forms, for Gamma in [0.1, 1e3], Phi in [1e-2, 1e2] and
    # theta in [1e-3, pi]; P in the cancellation-free form
    # sin^2(t/2) (2 + G) / (2 sin^2(t/2) + G).  The fixed grid reaches
    # Gamma = 1e-3, below the contract; its points lie outside the narrow
    # windows where the quadrature misses the forward peak.
    rng = np.random.default_rng(20261019)
    models = [(phi, float(gamma)) for gamma in np.geomspace(1e-3, 1e3, 7)
              for phi in (0.1, 1.0, 10.0)]
    models += [(10.0 ** rng.uniform(-2.0, 2.0), 10.0 ** rng.uniform(-1.0, 3.0))
               for _ in range(300)]
    for phi, gamma in models:
        m = ScreenedRutherford(phi=phi, gamma_screen=gamma)
        dcs = _model_dcs(m)
        assert abs(sigma_total(dcs) / screened_sigma_total(m) - 1.0) < 1e-8, m
        assert abs(sigma_transport(dcs) / screened_sigma_transport(m) - 1.0) < 1e-8, m
        for theta in (10.0 ** rng.uniform(-3.0, math.log10(math.pi)),
                      rng.uniform(1e-3, math.pi)):
            s2 = math.sin(0.5 * theta) ** 2
            want = s2 * (2.0 + gamma) / (2.0 * s2 + gamma)
            assert abs(scatter_probability(dcs, theta) / want - 1.0) < 1e-8, (m, theta)


def test_transport_ratio_properties():
    # strictly increasing in Gamma, bounded by (0, 1)
    prev = 0.0
    for gamma in np.geomspace(1e-6, 1e9, 40):
        r = screened_transport_ratio(ScreenedRutherford(phi=1.0,
                                                        gamma_screen=float(gamma)))
        assert 0.0 < r < 1.0
        assert r > prev
        prev = r


def test_transport_ratio_consistency():
    m = ScreenedRutherford(phi=3.0, gamma_screen=0.7)
    assert screened_transport_ratio(m) == pytest.approx(
        screened_sigma_transport(m) / screened_sigma_total(m), rel=1e-12)
    assert transport_ratio(_model_dcs(m)) == pytest.approx(
        screened_transport_ratio(m), rel=1e-8)


def test_transport_closed_form_stable_at_strong_screening():
    # the printed form ln((G+2)/G) - 2/(G+2) cancels catastrophically by
    # G ~ 1e8; the implementation must keep full relative accuracy.
    # series oracle: sigma_tr -> 2 pi Phi * (u^2/2 - 2u^3/3), u = 2/G
    g = 1e10
    m = ScreenedRutherford(phi=1.0, gamma_screen=g)
    u = 2.0 / g
    want = 2.0 * math.pi * (0.5 * u * u - 2.0 * u ** 3 / 3.0)
    assert screened_sigma_transport(m) == pytest.approx(want, rel=1e-12)


def test_scatter_probability_normalization():
    # the ends are exact: an empty side counts as 0.0, so P(0) = 0/tot and
    # P(pi) = inner/inner
    for gamma in (1e-4, 0.4, 7.0, 1e3):
        dcs = _model_dcs(ScreenedRutherford(phi=2.0, gamma_screen=gamma))
        assert scatter_probability(dcs, math.pi) == 1.0
        assert scatter_probability(dcs, 0.0) == 0.0
        probs = [scatter_probability(dcs, float(t))
                 for t in np.linspace(0.1, math.pi, 12)]
        assert all(0.0 < p <= 1.0 for p in probs)
        assert probs == sorted(probs)


def test_scatter_probability_rejects_a_zero_dcs():
    for theta in (0.0, 1.0, math.pi):
        with pytest.raises(DomainError):
            scatter_probability(lambda t: 0.0, theta)


def test_hemisphere_split():
    for gamma in (0.05, 1.0, 20.0):
        dcs = _model_dcs(ScreenedRutherford(phi=1.0, gamma_screen=gamma))
        pf, pb = forward_probability(dcs), backward_probability(dcs)
        assert pf > 0.0 and pb > 0.0
        assert abs(pf + pb - 1.0) < 1e-10
    # small Gamma concentrates the scattering forward
    dcs = _model_dcs(ScreenedRutherford(phi=1.0, gamma_screen=1e-4))
    assert forward_probability(dcs) > 0.999


def test_scatter_probability_closed_form():
    # P(theta) = [1/G - 1/(1 - cos t + G)] / [1/G - 1/(2 + G)]
    g = 0.8
    dcs = _model_dcs(ScreenedRutherford(phi=1.0, gamma_screen=g))
    for theta in (0.3, 1.0, 2.2):
        mu = 1.0 - math.cos(theta)
        want = (1.0 / g - 1.0 / (mu + g)) / (1.0 / g - 1.0 / (2.0 + g))
        assert scatter_probability(dcs, theta) == pytest.approx(want, rel=1e-9)


def test_screened_closed_forms_match_mpmath_quad():
    # the defining integrals in theta at 30 digits, split where the
    # forward peak of width ~sqrt(Gamma) sits
    for gamma in np.geomspace(1e-6, 1e6, 25):
        m = ScreenedRutherford(phi=1.0, gamma_screen=float(gamma))
        with mpmath.workdps(30):
            g = mpmath.mpf(float(gamma))
            width = mpmath.sqrt(g)
            points = ([mpmath.mpf(0)] + [width * 10 ** k for k in range(-2, 4)
                                         if width * 10 ** k < mpmath.pi] + [mpmath.pi])
            tot = 2 * mpmath.pi * mpmath.quad(
                lambda t: mpmath.sin(t) / (1 - mpmath.cos(t) + g) ** 2, points)
            tr = 2 * mpmath.pi * mpmath.quad(
                lambda t: (1 - mpmath.cos(t)) * mpmath.sin(t) / (1 - mpmath.cos(t) + g) ** 2,
                points)
            for got, want in ((screened_sigma_total(m), tot),
                              (screened_sigma_transport(m), tr),
                              (screened_transport_ratio(m), tr / tot)):
                assert abs(mpmath.mpf(got) / want - 1) <= 1e-14, (gamma, got)
    # a dense seeded sweep over u = 2/Gamma from 0.005 to 0.1, where the
    # transport and the ratio cancel most, against the closed form at 40
    # digits that the quadratures above confirm
    rng = np.random.default_rng(20261501)
    with mpmath.workdps(40):
        for gamma in np.exp(rng.uniform(math.log(20.0), math.log(400.0), 2000)):
            m = ScreenedRutherford(phi=1.0, gamma_screen=float(gamma))
            u = 2 / mpmath.mpf(float(gamma))
            f = mpmath.log1p(u) - u / (1 + u)
            for got, want in ((screened_sigma_transport(m), 2 * mpmath.pi * f),
                              (screened_transport_ratio(m), 2 * (1 + u) * f / u ** 2)):
                assert abs(mpmath.mpf(got) / want - 1) <= 1e-14, (gamma, got)


@pytest.mark.parametrize("phi", [1e308, 1.7976931348623157e308])
@pytest.mark.parametrize("gamma", [10.0, 1e3, 1e6])
def test_screened_closed_forms_near_the_top_of_double_range(phi, gamma):
    # 4*pi*Phi and 2*pi*Phi overflow; the cross sections themselves do not
    m = ScreenedRutherford(phi=phi, gamma_screen=gamma)
    with mpmath.workdps(40):
        p, g = mpmath.mpf(phi), mpmath.mpf(gamma)
        tot = 4 * mpmath.pi * p / (g * (g + 2))
        tr = 2 * mpmath.pi * p * (mpmath.log((g + 2) / g) - 2 / (g + 2))
        for got, want in ((screened_sigma_total(m), tot),
                          (screened_sigma_transport(m), tr)):
            assert abs(mpmath.mpf(got) / want - 1) <= 1e-14, (gamma, got)


@pytest.mark.parametrize("phi,gamma", [
    (1.0, 1e-308),    # u = 2/Gamma overflows
    (1.0, 1e-306),    # 2(1+u)f and u^2 overflow
    (1.0, 1e-200),    # u^2 overflows
    (1e300, 5e161),   # f = u^2/2 is subnormal
    (1e308, 1e170),   # 2*pi*Phi overflows and f underflows to 0
    (1.0, 1e308),     # u^2 underflows to 0
])
def test_screened_closed_forms_at_the_ends_of_double_range(phi, gamma):
    # each value that double range holds is returned; the others raise Overflow
    m = ScreenedRutherford(phi=phi, gamma_screen=gamma)
    # 40 digits survive the cancellation in ln((G+2)/G) - 2/(G+2) at large G
    with mpmath.workdps(40 + int(2 * abs(math.log10(gamma)))):
        p, g = mpmath.mpf(phi), mpmath.mpf(gamma)
        tot = 4 * mpmath.pi * p / (g * (g + 2))
        tr = 2 * mpmath.pi * p * (mpmath.log((g + 2) / g) - 2 / (g + 2))
        for fn, want in ((screened_sigma_total, tot), (screened_sigma_transport, tr),
                         (screened_transport_ratio, tr / tot)):
            if not 2.2250738585072014e-308 <= want <= 1.7976931348623157e308:
                with pytest.raises(Overflow):
                    fn(m)
            else:
                got = fn(m)
                assert abs(mpmath.mpf(got) / want - 1) <= 1e-14, (fn.__name__, got)


def test_fit_round_trip():
    for gamma in np.geomspace(1e-3, 1e3, 9):
        for phi in (0.1, 1.0, 10.0):
            m = ScreenedRutherford(phi=phi, gamma_screen=float(gamma))
            tot, tr = screened_sigma_total(m), screened_sigma_transport(m)
            f = fit_screened(tot, tr)
            assert abs(f.gamma_screen / gamma - 1.0) < 1e-8
            assert abs(f.phi / phi - 1.0) < 1e-8
            assert abs(screened_sigma_total(f) / tot - 1.0) < 1e-8
            assert abs(screened_sigma_transport(f) / tr - 1.0) < 1e-8


def test_fit_matches_brentq_oracle():
    # the second route to Gamma: scipy's brentq on the same log10 bracket
    for gamma in np.geomspace(1e-6, 1e6, 49):
        for phi in (0.1, 1.0, 10.0):
            m = ScreenedRutherford(phi=phi, gamma_screen=float(gamma))
            tot, tr = screened_sigma_total(m), screened_sigma_transport(m)
            f = fit_screened(tot, tr)
            assert abs(screened_sigma_total(f) / tot - 1.0) <= 1e-13
            assert abs(screened_sigma_transport(f) / tr - 1.0) <= 1e-13
            ratio = tr / tot
            log10_gamma = brentq(lambda x: _ratio_from_u(2.0 * 10.0 ** -x) - ratio,
                                 _FIT_LOG_LO, _FIT_LOG_HI, xtol=1e-14, rtol=8.9e-16)
            assert abs(f.gamma_screen / 10.0 ** log10_gamma - 1.0) <= 1e-9


def test_fit_bracket_edges():
    # the ratios at the ends of the bracket are limits: reaching one is
    # NoRoot, one ulp inside still fits a Gamma within the bracket that
    # reproduces the ratio
    for log10_gamma, inward in ((_FIT_LOG_LO, math.inf), (_FIT_LOG_HI, -math.inf)):
        edge = _ratio_from_u(2.0 * 10.0 ** -log10_gamma)
        for outside in (edge, math.nextafter(edge, -inward)):
            with pytest.raises(NoRoot):
                fit_screened(1.0, outside)
        ratio = math.nextafter(edge, inward)
        fitted = fit_screened(1.0, ratio)
        assert 10.0 ** _FIT_LOG_LO <= fitted.gamma_screen <= 10.0 ** _FIT_LOG_HI
        assert abs(screened_transport_ratio(fitted) / ratio - 1.0) <= 1e-13


def test_fit_rejects_unattainable_ratio():
    with pytest.raises(NoRoot):
        fit_screened(1.0, 1.0)      # ratio 1 is a limit, never attained
    with pytest.raises(NoRoot):
        fit_screened(1.0, 1.5)      # ratio above 1
    with pytest.raises(DomainError):
        fit_screened(-1.0, 0.5)
    with pytest.raises(DomainError):
        fit_screened(1.0, 0.0)


def test_nonintegrable_dcs_is_reported():
    # the unscreened Rutherford shape diverges as theta^-4
    def bare(theta):
        return 1.0 / (1.0 - math.cos(theta)) ** 2

    with pytest.raises(NonIntegrable):
        sigma_total(bare)
    # the transport weight cancels one power but the weighted integrand
    # still goes like 1/theta, a logarithmic divergence
    with pytest.raises(NonIntegrable):
        sigma_transport(bare)
    # at theta = 0 the probability still integrates the whole sphere
    with pytest.raises(NonIntegrable):
        scatter_probability(bare, 0.0)


def test_wide_angle_collision_count():
    assert mean_wide_angle_collisions(2.0, 3.0, 0.25) == pytest.approx(1.5)
    assert mean_wide_angle_collisions(0.0, 3.0, 0.25) == 0.0
    with pytest.raises(DomainError):
        mean_wide_angle_collisions(-1.0, 1.0, 1.0)


def test_numpy_scalar_model_keeps_floats():
    # the model keeps the floats its checks return: numpy scalars give float
    # results, and no numpy warning leaks before the closed form's Overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = ScreenedRutherford(np.float64(2.0), np.float64(0.5))
        assert type(m.phi) is float and type(m.gamma_screen) is float
        for fn in (screened_sigma_total, screened_sigma_transport, screened_transport_ratio):
            assert type(fn(m)) is float, fn.__name__
        assert type(screened_rutherford_dcs(m, np.float64(0.3))) is float
        with pytest.raises(Overflow):
            screened_sigma_total(ScreenedRutherford(np.float64(1e308), np.float64(1e-3)))


def test_model_validation():
    with pytest.raises(DomainError):
        ScreenedRutherford(phi=0.0, gamma_screen=1.0)
    with pytest.raises(DomainError):
        ScreenedRutherford(phi=1.0, gamma_screen=-0.5)
    m = ScreenedRutherford(phi=1.0, gamma_screen=1.0)
    with pytest.raises(DomainError):
        screened_rutherford_dcs(m, -0.1)
    with pytest.raises(DomainError):
        scatter_probability(_model_dcs(m), 3.5)
