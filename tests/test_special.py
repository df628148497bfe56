"""Special-function layer: frozen high-precision oracles and identities.

Reference values were generated once with mpmath at 50 significant
digits (mp.loggamma / mp.hyp1f1 / mp.erfi) and are frozen here so the
suite never depends on the implementation under test.
"""

import cmath
import math
import struct
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special

from ptdrsc import special
from ptdrsc.errors import DomainError, NoConvergence, Overflow, ParameterPole, PoleError
from ptdrsc.special import dawson, hyp1f1, hyp2f1_terminating, log_gamma


def _rel(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


def _bits(x):
    """The IEEE bytes of a real or complex value, signed zeros included."""
    x = complex(x)
    return struct.pack("<dd", x.real, x.imag)


# ---------------------------------------------------------------- log_gamma

LOGGAMMA_ORACLES = [
    # (z, mpmath loggamma, 50 dps)
    (0.5 + 1.0j, complex(-0.652790644204372915, -0.95500772434256911)),
    (3.0 - 4.0j, complex(-1.75662678460378411, -4.74266443803465793)),
    (-2.5 + 0.5j, complex(-0.935085621298277479, -8.8709628852474592)),
    (-7.2 - 3.3j, complex(-16.7741981751533411, 17.3563867288478119)),
]


@pytest.mark.parametrize("z,want", LOGGAMMA_ORACLES)
def test_log_gamma_oracles(z, want):
    got = log_gamma(z)
    assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


def test_log_gamma_matches_mpmath_over_contract_box():
    # seeded grid over |Re z|, |Im z| <= 1000; mpmath shares the branch
    # convention (imaginary part not reduced mod 2 pi)
    rng = np.random.default_rng(20200905)
    pts = rng.uniform(-1000.0, 1000.0, size=(400, 2))
    with mpmath.workdps(30):
        for re, im in pts:
            want = complex(mpmath.loggamma(mpmath.mpc(re, im)))
            got = log_gamma(complex(re, im))
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (re, im)


def test_log_gamma_real_axis_matches_lgamma():
    for x in np.linspace(0.1, 40.0, 57):
        assert _rel(log_gamma(x).real, math.lgamma(x)) < 1e-13
        assert log_gamma(x).imag == 0.0


def test_log_gamma_recurrence():
    rng = np.random.default_rng(42)
    pts = rng.uniform(-8.0, 8.0, size=(60, 2))
    for re, im in pts:
        z = complex(re, im)
        if abs(im) < 0.05 and re <= 0.5:
            continue  # too close to the pole line for a clean ratio
        ratio = cmath.exp(log_gamma(z + 1.0) - log_gamma(z))
        assert abs(ratio - z) <= 1e-11 * max(1.0, abs(z))


def test_log_gamma_conjugation():
    for z in (1.3 + 2.7j, -4.2 + 0.9j, 0.5 + 19.0j):
        assert log_gamma(z.conjugate()) == log_gamma(z).conjugate()


def test_log_gamma_reflection_identity():
    # Gamma(z) Gamma(1-z) = pi / sin(pi z)
    for z in (0.3 + 0.4j, -1.2 + 2.0j, 2.7 - 1.1j):
        lhs = cmath.exp(log_gamma(z) + log_gamma(1.0 - z))
        rhs = math.pi / cmath.sin(math.pi * z)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_log_gamma_unitarity_identity():
    # |Gamma(iy)|^2 = pi / (y sinh(pi y))
    for y in (0.5, 2.0, 8.0, 19.5):
        val = 2.0 * log_gamma(complex(0.0, y)).real
        want = math.log(math.pi / (y * math.sinh(math.pi * y)))
        assert abs(val - want) <= 1e-11 * max(1.0, abs(want))


@pytest.mark.parametrize("z", [0.0, -1.0, -5.0, -3.0 + 1e-14j, -7.0 - 1e-13])
def test_log_gamma_poles(z):
    with pytest.raises(PoleError):
        log_gamma(z)


def test_log_gamma_near_pole_but_not_at_it():
    # half-integers on the negative axis are regular
    assert math.isfinite(log_gamma(-0.5).real)
    assert math.isfinite(log_gamma(-6.5).real)


def test_log_gamma_rejects_nan():
    with pytest.raises(DomainError):
        log_gamma(complex(float("nan"), 0.0))


# ------------------------------------------------------------------- hyp1f1

HYP1F1_ORACLES = [
    # (a, b, z, mpmath hyp1f1, 50 dps)
    (0.5 - 0.3j, 2.0, 1.0 + 1.0j,
     complex(1.4940622352412474572, 0.26309685952336930457)),
    (0.5 - 1.0j, 1.0, -12.0j,
     complex(-0.15641621812842322, -0.0455180879083585983)),
    (2.5 - 3.0j, 5.0, -24.0j,
     complex(-0.000460108022510610219, -0.000292564254370217623)),
    (1.5 - 0.5j, 3.0, -60.0j,
     complex(-0.000130016886843490011, -0.000832801221389435302)),
    (5.5 - 3.0j, 11.0, -45.0j,
     complex(1.06131835691119204e-6, -5.92058291409321179e-7)),
    (0.5 - 0.5j, 2.0, 29.5j,
     complex(-0.373811921102331332, 0.329548685921503294)),
    (1.5 - 2.0j, 4.0, 8.0 + 3.0j,
     complex(247.350831303261679, -282.15837036992108)),
]


@pytest.mark.parametrize("a,b,z,want", HYP1F1_ORACLES)
def test_hyp1f1_oracles(a, b, z, want):
    got = hyp1f1(a, b, z)
    assert _rel(got, want) < 1e-10


def test_hyp1f1_kummer_transform():
    # 1F1(a, b, z) = e^z 1F1(b - a, b, -z); ties together the two
    # half-planes of the asymptotic branch for the physical pure
    # imaginary arguments.
    cases = [
        (0.5 - 2.0j, 1.0, -70.0j),
        (2.5 - 1.0j, 5.0, -45.0j),
        (1.5 - 0.7j, 3.0, 120.0j),
        (3.5 - 4.0j, 7.0, -200.0j),
    ]
    for a, b, z in cases:
        lhs = hyp1f1(a, b, z)
        rhs = cmath.exp(z) * hyp1f1(b - a, b, -z)
        assert _rel(lhs, rhs) < 5e-10


def test_hyp1f1_polynomial_case():
    # a a non-positive integer terminates the series exactly
    a, b = -3.0, 2.0
    for z in (0.7 + 0.2j, -31.0j, 55.0 + 3.0j):
        want = 0.0j
        term = 1.0 + 0.0j
        poch_a, poch_b = a, b
        want = 1.0 + 0.0j
        term = 1.0 + 0.0j
        for k in range(3):
            term *= (a + k) / (b + k) * z / (k + 1)
            want += term
        assert _rel(hyp1f1(a, b, z), want) < 1e-12


@pytest.mark.parametrize("a,b,z", [(2, 2, 40), (1.5, 1.5, -33), (3, 2, 40), (3, 2, 35j),
                                   (2.5, 0.5, 45), (4, 1, -40)])
def test_hyp1f1_b_minus_a_nonpositive_integer_past_switch(a, b, z):
    # b − a = 0, −1, −2, −3 makes F e^z times a polynomial, and the
    # large-|z| expansion would take log Γ(b − a) at its pole
    with mpmath.workdps(40):
        want = complex(mpmath.hyp1f1(a, b, z))
    assert _rel(hyp1f1(a, b, z), want) <= 1e-10


def test_hyp1f1_small_z_against_scipy():
    rng = np.random.default_rng(7)
    for _ in range(40):
        a = complex(rng.uniform(-3, 4), 0.0)
        b = rng.uniform(0.5, 6.0)
        z = complex(rng.uniform(-8, 8), 0.0)
        want = scipy.special.hyp1f1(a.real, b, z.real)
        assert _rel(hyp1f1(a, b, z).real, want) < 1e-9


def test_hyp1f1_matches_mpmath_over_contract_disk():
    # seeded points with |z| <= 50: the physical Coulomb-wave arguments
    # a = l + 1/2 - i eta, b = 2l + 1, z = -2ikr, then generic complex ones
    rng = np.random.default_rng(20201005)
    points = []
    for _ in range(400):
        ell = int(rng.integers(0, 11))
        points.append((complex(ell + 0.5, -rng.uniform(-5.0, 5.0)),
                       complex(2 * ell + 1),
                       complex(0.0, -2.0 * rng.uniform(0.0, 25.0))))
    for _ in range(400):
        points.append((complex(*rng.uniform(-10.0, 10.0, 2)),
                       complex(rng.uniform(0.5, 10.0), rng.uniform(-10.0, 10.0)),
                       cmath.rect(rng.uniform(0.0, 50.0), rng.uniform(-math.pi, math.pi))))
    with mpmath.workdps(40):
        for a, b, z in points:
            want = complex(mpmath.hyp1f1(a, b, z))
            assert _rel(hyp1f1(a, b, z), want) <= 1e-10, (a, b, z)


def test_hyp1f1_mpmath_rescue_is_correctly_rounded(monkeypatch):
    # Coulomb-shape points with l <= 10, |eta| <= 5 and 12 <= |z| <= 30,
    # where the double-precision series cancels and _series falls through to
    # _series_mp: each part of the result is within one ulp of 50-digit mpmath
    rescued = []
    series_mp = special._series_mp
    monkeypatch.setattr(special, "_series_mp",
                        lambda *args: rescued.append(args) or series_mp(*args))
    rng = np.random.default_rng(20261104)
    checked = 0
    for _ in range(200):
        ell = int(rng.integers(0, 11))
        a, b = complex(ell + 0.5, -rng.uniform(-5.0, 5.0)), complex(2 * ell + 1)
        z = complex(0.0, rng.choice([-2.0, 2.0]) * rng.uniform(6.0, 15.0))
        rescued.clear()
        got = hyp1f1(a, b, z)
        if not rescued:
            continue
        checked += 1
        with mpmath.workdps(50):
            want = complex(mpmath.hyp1f1(a, b, z))
        for part, ref in ((got.real, want.real), (got.imag, want.imag)):
            assert abs(part - ref) <= math.ulp(ref), (a, b, z, got, want)
    assert checked >= 150


def _coulomb_points(rng, count):
    """(a, b, z) = (l + 1/2 - i eta, 2l + 1, -+2ikr) over l <= 200,
    +-eta in [1e-3, 300] and kr in [12, 1e4], both signs of Im z."""
    for _ in range(count):
        ell = int(rng.integers(0, 201))
        eta = rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-3.0, math.log10(300.0))
        kr = 10 ** rng.uniform(math.log10(12.0), 4.0)
        yield (complex(ell + 0.5, -eta), complex(2 * ell + 1),
               complex(0.0, rng.choice([-2.0, 2.0]) * kr))


def test_conjugate_poincare_series_equals_the_full_second_sum():
    # _asymptotic_eval takes (s2, e2) = (conj s1, e1) in the Coulomb case,
    # with a zero imaginary part kept +0.0; the second series summed in
    # full must give the same bits
    rng = np.random.default_rng(20261018)
    for a, b, z in _coulomb_points(rng, 4000):
        s1, e1 = special._asym_sum(b - a, 1.0 - a, z)
        s2, e2 = special._asym_sum(a, a - b + 1.0, -z)
        assert (_bits(complex(s1.real, 0.0 - s1.imag)), e1) == (_bits(s2), e2), (a, b, z)


def test_asymptotic_eval_sums_one_series_only_in_the_coulomb_case(monkeypatch):
    calls = []
    real_sum = special._asym_sum

    def counting_sum(p, q, w):
        calls.append(w)
        return real_sum(p, q, w)

    monkeypatch.setattr(special, "_asym_sum", counting_sum)
    rng = np.random.default_rng(11)
    for a, b, z in _coulomb_points(rng, 50):
        calls.clear()
        special._asymptotic_eval(a, b, z)
        assert calls == [z]
    for a, b, z in [(0.5 - 1j, 1.0 + 0.5j, -40j), (0.7 - 1j, 1.0, -40j),
                    (0.5 - 1j, 1.0, 1.0 - 40j)]:
        calls.clear()
        special._asymptotic_eval(a, b, z)
        assert calls == [z, -z]


def _full_asymptotic_eval(a, b, z):
    """The large-|z| expansion with both series summed and log Γ(b − a)
    evaluated, without the Coulomb-case conjugates of _asymptotic_eval."""
    sign = -1.0 if z.imag < 0.0 else 1.0
    lg_b = log_gamma(b)
    s1, e1 = special._asym_sum(b - a, 1.0 - a, z)
    s2, e2 = special._asym_sum(a, a - b + 1.0, -z)
    t1 = cmath.exp(lg_b - log_gamma(a) + z + (a - b) * cmath.log(z)) * s1
    t2 = cmath.exp(lg_b - log_gamma(b - a) + sign * 1j * math.pi * a
                   - a * cmath.log(z)) * s2
    scale = max(abs(t1), abs(t2))
    return t1 + t2, abs(t1) * e1 + abs(t2) * e2 + 5e-16 * scale, scale


def test_coulomb_asymptotic_eval_matches_the_full_evaluation_bit_for_bit():
    # the Coulomb case takes the second series and log Γ(b − a) as
    # conjugates; the value, error estimate and scale that hyp1f1 reads
    # must keep the bits of the full evaluation, also for real a (η = 0,
    # either sign of zero) and negative Re a, where scipy's log Γ is not
    # conjugate-symmetric on the real axis
    rng = np.random.default_rng(20261019)
    points = list(_coulomb_points(rng, 2000))
    for _ in range(200):
        z = complex(0.0, rng.choice([-2.0, 2.0]) * 10 ** rng.uniform(math.log10(12.0), 4.0))
        re = rng.uniform(-40.0, 40.0)
        im = rng.choice([0.0, -0.0, -1.0, 1.0]) * rng.choice([1.0, 10 ** rng.uniform(-3.0, 2.0)])
        points.append((complex(re, im), complex(2.0 * re), z))
        ell = int(rng.integers(0, 201))
        points.append((complex(ell + 0.5, rng.choice([0.0, -0.0])), complex(2 * ell + 1), z))
    for a, b, z in points:
        try:
            want_val, want_err, want_scale = _full_asymptotic_eval(a, b, z)
        except OverflowError:
            with pytest.raises(Overflow):
                special._asymptotic_eval(a, b, z)
            continue
        val, err, scale = special._asymptotic_eval(a, b, z)
        assert ((_bits(val), err, scale)
                == (_bits(want_val), want_err, want_scale)), (a, b, z)


def test_hyp1f1_non_coulomb_large_z_matches_mpmath():
    # past the switch radius, inputs that miss the conjugate shortcut
    # by one condition each still agree with mpmath
    rng = np.random.default_rng(20261020)
    points = []
    for _ in range(100):
        ell = int(rng.integers(0, 11))
        eta = rng.uniform(-5.0, 5.0)
        points.append((complex(ell + 0.5, -eta), complex(2 * ell + 1, rng.uniform(-3.0, 3.0)),
                       complex(0.0, -2.0 * rng.uniform(15.5, 60.0))))
        points.append((complex(ell + 0.5 + rng.uniform(-2.0, 2.0), -eta), complex(2 * ell + 1),
                       complex(0.0, -2.0 * rng.uniform(15.5, 60.0))))
        points.append((complex(ell + 0.5, -eta), complex(2 * ell + 1),
                       cmath.rect(rng.uniform(31.0, 120.0), rng.uniform(-math.pi, math.pi))))
    with mpmath.workdps(40):
        for a, b, z in points:
            want = complex(mpmath.hyp1f1(a, b, z))
            assert _rel(hyp1f1(a, b, z), want) <= 1e-10, (a, b, z)


def test_hyp1f1_unit_value_at_origin():
    assert hyp1f1(0.5 - 1.0j, 1.0, 0.0) == 1.0 + 0.0j


@pytest.mark.parametrize("b", [0.0, -1.0, -6.0])
def test_hyp1f1_parameter_pole(b):
    with pytest.raises(ParameterPole):
        hyp1f1(0.5, b, 1.0)


def test_hyp1f1_rejects_nonfinite():
    with pytest.raises(DomainError):
        hyp1f1(complex(float("inf"), 0.0), 1.0, 1.0)


# ------------------------------------------------------- hyp2f1_terminating

def test_hyp2f1_terminating_exact_rational():
    # independent exact-rational evaluation of the finite sum
    n, b, c, x = 4, Fraction(5, 2), Fraction(7, 2), Fraction(3, 10)
    want = Fraction(0)
    term = Fraction(1)
    for k in range(n + 1):
        want += term
        term *= Fraction(-(n - k)) * (b + k) * x / ((c + k) * (k + 1))
    got = hyp2f1_terminating(4, 2.5, 3.5, 0.3)
    assert abs(got - float(want)) <= 1e-15 * abs(float(want))


def test_hyp2f1_terminating_exact_zero():
    # 1 - 4/3 + 1/3 cancels exactly in rational arithmetic
    assert abs(hyp2f1_terminating(2, 4.0, 1.5, 0.25)) <= 1e-15


def test_hyp2f1_terminating_n_zero_is_one():
    assert hyp2f1_terminating(0, 3.0, 1.5, 0.5) == 1.0
    with pytest.raises(DomainError):  # c < 1/2 is outside the contract
        hyp2f1_terminating(0, 3.0, -1.0, 0.5)


@pytest.mark.parametrize("chi,lam", [(2.0, 3.0), (1.5, 2.5), (0.0, 3.0)])
def test_hyp2f1_terminating_angular_levels_match_mpmath(chi, lam):
    # weighted level (sin q)^chi (cos q)^lam 2F1(-n, chi+lam+n; chi+1/2; sin^2 q),
    # whose alternating terms cancel badly in a term-by-term sum
    qs = np.linspace(0.0, 0.5 * math.pi, 41)
    with mpmath.workdps(40):
        for n in range(31):
            want, got = [], []
            for q in qs:
                s, c = math.sin(q), math.cos(q)
                weight = s ** chi * c ** lam
                ref = mpmath.hyp2f1(-n, chi + lam + n, chi + 0.5, mpmath.mpf(s * s))
                want.append(weight * float(ref))
                got.append(weight * hyp2f1_terminating(n, chi + lam + n, chi + 0.5, s * s))
            peak = max(abs(w) for w in want)
            worst = max(abs(g - w) for g, w in zip(got, want))
            assert worst <= 1e-12 * peak, (n, worst / peak)


def test_hyp2f1_terminating_parameter_pole():
    # the poles c = 0, -1, -2, ... lie below the contract's c >= 1/2
    with pytest.raises(DomainError):
        hyp2f1_terminating(3, 2.0, -1.0, 0.5)


def test_hyp2f1_terminating_domain():
    with pytest.raises(DomainError):
        hyp2f1_terminating(-1, 2.0, 3.0, 0.5)
    with pytest.raises(DomainError):
        hyp2f1_terminating(2, 2.0, 3.0, 1.5)


# ------------------------------------------------------------------- dawson

def test_dawson_oracles():
    assert _rel(dawson(1.0), 0.538079506912768419) < 1e-13
    assert _rel(dawson(0.1), 0.09933599239785286115) < 1e-13
    assert _rel(dawson(26.0), 0.019245024851840634084) < 1e-13


def test_dawson_is_odd_and_zero_at_origin():
    assert dawson(0.0) == 0.0
    for x in (0.3, 1.7, 9.0):
        assert dawson(-x) == -dawson(x)


def test_dawson_against_defining_integral():
    # D(x) = exp(-x^2) * int_0^x exp(t^2) dt
    for x in (0.25, 1.0, 2.5, 4.0):
        val, err = scipy.integrate.quad(lambda t: math.exp(t * t), 0.0, x,
                                        epsabs=0.0, epsrel=1e-12)
        assert _rel(dawson(x), math.exp(-x * x) * val) < 1e-10


def test_dawson_erfi_identity():
    # D(x) = (sqrt(pi)/2) exp(-x^2) erfi(x), with scipy's erfi as the oracle
    for x in (0.4, 1.3, 3.7):
        want = 0.5 * math.sqrt(math.pi) * math.exp(-x * x) * scipy.special.erfi(x)
        assert _rel(dawson(x), want) < 1e-12


def test_dawson_derivative_identity():
    # D'(x) = 1 - 2 x D(x)
    h = 1e-5
    for x in (0.5, 2.0, 6.0):
        fd = (dawson(x + h) - dawson(x - h)) / (2.0 * h)
        assert abs(fd - (1.0 - 2.0 * x * dawson(x))) < 1e-8



def test_dawson_contract_from_six_to_the_largest_double():
    # the dawson contract past |x| = 6, where thermo takes ln|D| at every x:
    # 400 x log-uniform on [6, DBL_MAX] with both signs, against 40-digit
    # mpmath, through erfi below 1e3 and the asymptotic series
    # D = (1/2x)·Σ (2n-1)!!/(2x²)ⁿ above (its first omitted term is < 1e-40)
    rng = np.random.default_rng(20261021)
    xs = 10 ** rng.uniform(math.log10(6.0), math.log10(sys.float_info.max), 400)
    for x in xs * rng.choice([1.0, -1.0], 400):
        x = float(x)
        with mpmath.workdps(40):
            X = mpmath.mpf(abs(x))
            if X < 1e3:
                want = mpmath.sqrt(mpmath.pi) / 2 * mpmath.exp(-X * X) * mpmath.erfi(X)
            else:
                s, term, total, n = 1 / (2 * X * X), mpmath.mpf(1), mpmath.mpf(1), 1
                while term > mpmath.mpf(10) ** -45:
                    term *= (2 * n - 1) * s
                    total += term
                    n += 1
                want = total / (2 * X)
            want = mpmath.sign(x) * want
            assert abs(dawson(x) - want) <= 5e-15 * abs(want), x


# ------------------------------------------------- scalar scipy entry points

def test_scalar_entry_points_match_the_scipy_ufuncs_bit_for_bit():
    # the module calls scipy.special.cython_special; the ufuncs are the
    # second route, swept over each function's contract domain
    rng = np.random.default_rng(20261021)
    for re, im in rng.uniform(-1000.0, 1000.0, size=(2000, 2)):
        z = complex(re, im)
        assert _bits(log_gamma(z)) == _bits(scipy.special.loggamma(z)), z
    for x in np.linspace(0.1, 40.0, 57):
        assert _bits(log_gamma(x)) == _bits(scipy.special.loggamma(complex(x))), x
    for _ in range(2000):
        chi, lam = rng.uniform(0.0, 8.0), rng.uniform(0.5, 8.0)
        n = int(rng.integers(0, 31))
        x = math.sin(rng.uniform(0.0, 0.5 * math.pi)) ** 2
        args = (n, chi + lam + n, chi + 0.5, x)
        assert _bits(hyp2f1_terminating(*args)) == _bits(scipy.special.hyp2f1(-n, *args[1:])), args
    for x in rng.uniform(-20.0, 20.0, 2000):
        assert _bits(dawson(x)) == _bits(scipy.special.dawsn(x)), x
    assert isinstance(log_gamma(2.5 - 1j), complex)
    assert all(type(v) is float for v in (hyp2f1_terminating(3, 2.5, 3.5, 0.3),
                                          hyp2f1_terminating(3, 2.5, 3.5, 1),
                                          dawson(1.0)))


def test_scalar_entry_points_keep_their_errors():
    with pytest.raises(NoConvergence):
        hyp2f1_terminating(10**6, 2.5, 3.5, 0.3)
