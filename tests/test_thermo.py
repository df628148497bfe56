"""Thermodynamic closed forms vs. quadrature, finite differences, the
discrete partition sum, and the small-beta limits.

Frozen constants come from mpmath at 50 dps via the Dawson/Erfi
identities (independent of the implementation's scipy route).
"""

import itertools
import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
import scipy.integrate

from ptdrsc.errors import DomainError, NumericalError, Overflow
from ptdrsc.thermo import (
    ThermoState,
    entropy,
    free_energy,
    log_partition_function,
    mean_energy,
    partition_function,
    partition_sum,
    specific_heat,
)


def _states():
    return [
        ThermoState(beta=0.1, xi=2.0, tau=1.0),
        ThermoState(beta=0.02, xi=5.0, tau=2.0),
        ThermoState(beta=1.3, xi=1.2, tau=0.7),
        ThermoState(beta=4.0, xi=1.0, tau=1.0),
    ]


def test_state_validation():
    with pytest.raises(DomainError):
        ThermoState(beta=0.0, xi=1.0, tau=1.0)
    with pytest.raises(DomainError):
        ThermoState(beta=1.0, xi=1.0, tau=-1.0)
    with pytest.raises(DomainError):
        ThermoState(beta=1.0, xi=float("inf"), tau=1.0)
    with pytest.raises(DomainError):
        ThermoState(beta=1.0, xi=1.0, tau=1.0, boltzmann_k=0.0)


def test_partition_function_oracle():
    # beta=0.1, xi=2, tau=1  ->  Z = tau sqrt(pi) Erfi(x)/(2 sqrt(beta))
    st = ThermoState(beta=0.1, xi=2.0, tau=1.0)
    assert partition_function(st) == pytest.approx(2.3019677584515482257, rel=1e-13)


def test_partition_function_matches_quadrature():
    # Z equals the continuum integral int_0^xi exp(((n-xi) sqrt(b)/tau)^2) dn
    for st in _states():
        val, _ = scipy.integrate.quad(
            lambda n: math.exp(((n - st.xi) * math.sqrt(st.beta) / st.tau) ** 2),
            0.0, st.xi, epsabs=0.0, epsrel=1e-12)
        assert partition_function(st) == pytest.approx(val, rel=1e-10)


def test_log_partition_function_consistency():
    for st in _states():
        assert log_partition_function(st) == pytest.approx(
            math.log(partition_function(st)), rel=1e-12)


def test_log_partition_function_far_regime():
    # beta=1, xi=30, tau=1: Z = e^(895.9) overflows, ln Z does not;
    # frozen mpmath value.  At beta = 1e300, xi = tau = 1e-300 (x = 1e150)
    # ln Z = 1e300 - 1382.2 is finite though tau*sqrt(pi)/(2 sqrt(beta))
    # underflows, and F = -ln Z/beta = -1
    st = ThermoState(beta=1.0, xi=30.0, tau=1.0)
    assert log_partition_function(st) == pytest.approx(895.90621176706161238,
                                                       rel=1e-13)
    st = ThermoState(beta=1e300, xi=1e-300, tau=1e-300)
    assert log_partition_function(st) == pytest.approx(1e300, rel=1e-13)
    assert free_energy(st) == pytest.approx(-1.0, rel=1e-13)


def test_partition_function_overflow_is_reported():
    # the second state is x = 30 at beta = 1e3, tau = 0.1: Z = e^(895.9)
    for st in (ThermoState(beta=1.0, xi=50.0, tau=1.0),
               ThermoState(beta=1e3, xi=30.0 * 0.1 / math.sqrt(1e3), tau=0.1)):
        with pytest.raises(Overflow):
            partition_function(st)
        assert math.isfinite(log_partition_function(st))


def test_mean_energy_oracles():
    # x = 2 sqrt(0.1) = 0.6324555...: 1 - x/D(x) from mpmath
    st = ThermoState(beta=0.1, xi=2.0, tau=1.0)
    want = -0.29612996721098103606 / (2.0 * 0.1)
    assert mean_energy(st) == pytest.approx(want, rel=1e-13)


def test_specific_heat_oracle():
    # x = 2 exactly: C/k from mpmath via Dawson derivatives
    st = ThermoState(beta=4.0, xi=1.0, tau=1.0)
    assert st.x == pytest.approx(2.0, abs=1e-15)
    assert specific_heat(st) == pytest.approx(1.1022877691628409691, rel=1e-12)


def test_small_x_series_oracles():
    # x = 0.005 exercises the cancellation-guarded series branch
    st = ThermoState(beta=2.5e-5, xi=1.0, tau=1.0)
    assert st.x == pytest.approx(0.005, rel=1e-15)
    assert mean_energy(st) == pytest.approx(
        -0.00001666677777804232716 / (2.0 * 2.5e-5), rel=1e-12)
    assert specific_heat(st) == pytest.approx(5.5555820104497341136e-11,
                                              rel=1e-10)


def test_mean_energy_matches_log_z_derivative():
    # U = -d(ln Z)/d(beta), five-point stencil
    for st in _states():
        b = st.beta
        h = 1e-4 * b

        def lnz(beta):
            return log_partition_function(
                ThermoState(beta=beta, xi=st.xi, tau=st.tau))

        fd = (-lnz(b + 2 * h) + 8 * lnz(b + h)
              - 8 * lnz(b - h) + lnz(b - 2 * h)) / (12.0 * h)
        assert mean_energy(st) == pytest.approx(-fd, rel=1e-8)


def test_specific_heat_matches_energy_derivative():
    # C = -k beta^2 dU/d(beta)
    for st in _states():
        b = st.beta
        h = 1e-4 * b

        def u(beta):
            return mean_energy(ThermoState(beta=beta, xi=st.xi, tau=st.tau))

        fd = (-u(b + 2 * h) + 8 * u(b + h) - 8 * u(b - h) + u(b - 2 * h)) / (12.0 * h)
        assert specific_heat(st) == pytest.approx(-b * b * fd, rel=1e-7)


def test_thermodynamic_identity():
    # F = U - T S with T = 1/(k beta), exactly as implemented
    for st in _states():
        t = 1.0 / (st.boltzmann_k * st.beta)
        lhs = free_energy(st)
        rhs = mean_energy(st) - t * entropy(st)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_boltzmann_constant_scaling():
    base = ThermoState(beta=0.3, xi=2.0, tau=1.0)
    scaled = ThermoState(beta=0.3, xi=2.0, tau=1.0, boltzmann_k=3.0)
    assert specific_heat(scaled) == pytest.approx(3.0 * specific_heat(base), rel=1e-14)
    assert entropy(scaled) == pytest.approx(3.0 * entropy(base), rel=1e-14)
    assert mean_energy(scaled) == mean_energy(base)


def test_high_temperature_limits():
    # beta -> 0: U -> -xi^2/(3 tau^2), C -> 0
    xi, tau = 5.0, 2.0
    beta = 1e-4 * (tau / xi) ** 2
    st = ThermoState(beta=beta, xi=xi, tau=tau)
    assert mean_energy(st) == pytest.approx(-xi * xi / (3.0 * tau * tau), rel=1e-3)
    assert abs(specific_heat(st)) < 1e-7


def test_partition_sum_agrees_with_integral():
    # summing the actual spectrum up to n ~ xi tracks the continuum Z
    st = ThermoState(beta=1e-6, xi=1500.5, tau=1.0)
    s = partition_sum(st, 1500)
    z = partition_function(st)
    assert abs(s - z) / z < 0.05


def test_partition_sum_small_cases():
    st = ThermoState(beta=0.5, xi=-1.5, tau=1.0)
    want = sum(math.exp(((n + 1.5) * math.sqrt(0.5)) ** 2) for n in range(4))
    assert partition_sum(st, 3) == pytest.approx(want, rel=1e-14)
    with pytest.raises(DomainError):
        partition_sum(st, -1)


def test_partition_sum_overflow():
    # a term overflows (e^900), or the sum does where no term does
    # (10001 terms, the largest e^708.9), or sqrt(beta)/tau does
    for st, n_max in ((ThermoState(beta=1.0, xi=-30.0, tau=1.0), 10),
                      (ThermoState(beta=1.0, xi=0.0, tau=1e4 / math.sqrt(708.9)), 10000),
                      (ThermoState(beta=1e300, xi=0.0, tau=5e-324), 0)):
        with pytest.raises(Overflow):
            partition_sum(st, n_max)
    # 1 + e^709.5 = 1.35e308 is a double, though its exponent is past 709
    st = ThermoState(beta=709.5, xi=0.0, tau=1.0)
    assert partition_sum(st, 1) == 1.0 + math.exp(709.5)


def test_negative_xi_rejected_where_log_is_needed():
    # Z is odd in xi (0.0 at x = 0), so ln Z is undefined for x <= 0
    for xi in (-2.0, 0.0):
        st = ThermoState(beta=0.5, xi=xi, tau=1.0)
        mirror = ThermoState(beta=0.5, xi=-xi, tau=1.0)
        assert partition_function(st) == -partition_function(mirror)
        # U and C are even in xi and stay defined
        assert math.isfinite(mean_energy(st))
        assert math.isfinite(specific_heat(st))
        for fn in (log_partition_function, free_energy, entropy):
            with pytest.raises(DomainError):
                fn(st)
    assert partition_function(ThermoState(beta=0.5, xi=0.0, tau=1.0)) == 0.0


def test_thermo_contract_against_mpmath():
    # the thermo docstring's contract, against the closed forms with
    # mpmath's erfi at 40 digits and D(x) = (sqrt(pi)/2) e^{-x^2} Erfi(x);
    # |x| is log-uniform on [1e-6, 1e4] with both signs, plus x on both
    # sides of |x| = 0.01, the series switch |x| = 0.45 and |x| = 6, a band
    # of 300 x log-uniform on [7, 1e4], where C meets its tightest bound,
    # and bands of 100 x of either sign across the series range, its switch
    # and the worst of the closed form below 6.  A last band of 300 x
    # log-uniform on [6, 1e153] checks S where ln Z and beta*U cancel two
    # terms of size x^2; there the closed forms need about 6 log10(x) + 120
    # digits (at 84 digits mpmath's erfi reads S = 914.3 at x = 1.5e22,
    # where S = -52.5)
    rng = np.random.default_rng(20261103)
    xs = [s * 0.01 * f for s in (1.0, -1.0) for f in (1 - 1e-12, 1 + 1e-12, 1.003, 1.03)]
    xs += list(10 ** rng.uniform(-6.0, 4.0, 800) * rng.choice([1.0, -1.0], 800))
    xs += [s * 6.0 * f for s in (1.0, -1.0) for f in (1 - 1e-15, 1.0, 1 + 1e-15)]
    xs += list(10 ** np.random.default_rng(20261116).uniform(math.log10(7.0), 4.0, 300))
    xs += [s * 0.45 * f for s in (1.0, -1.0) for f in (1 - 1e-15, 1.0, 1 + 1e-15)]
    band_rng = np.random.default_rng(20261118)
    for lo, hi in ((0.01, 0.02), (0.1, 0.3), (0.3, 0.6), (5.0, 6.0)):
        xs += list(band_rng.uniform(lo, hi, 100) * band_rng.choice([1.0, -1.0], 100))
    xs += list(10 ** np.random.default_rng(20261121).uniform(math.log10(6.0), 153.0, 300))
    for x in xs:
        beta, tau, kb = 10 ** rng.uniform([-3.0, -1.0, -1.0], [3.0, 1.0, 1.0])
        st = ThermoState(beta=beta, xi=x * tau / math.sqrt(beta), tau=tau, boltzmann_k=kb)
        with mpmath.workdps(40 if abs(x) <= 1e4 else int(6 * math.log10(x)) + 120):
            b, T, K = mpmath.mpf(beta), mpmath.mpf(tau), mpmath.mpf(kb)
            X = mpmath.mpf(st.xi) / T * mpmath.sqrt(b)
            erfi = mpmath.erfi(X)
            D = mpmath.sqrt(mpmath.pi) / 2 * mpmath.exp(-X * X) * erfi
            phi = X / D
            pre = T * mpmath.sqrt(mpmath.pi) / (2 * mpmath.sqrt(b))
            Z, U = pre * erfi, (1 - phi) / (2 * b)
            C = K * ((1 - phi) / 2 + X * (D - X * (1 - 2 * X * D)) / D ** 2 / 4)
            # (function, value, error scale)
            c_tol = 7e-13 if abs(x) < 6.0 else 5e-13 if abs(x) < 7.0 else 2e-15
            checks = [(mean_energy, U, 1e-14 * abs(U)), (specific_heat, C, c_tol * abs(C))]
            if abs(Z) <= 1.7976931348623157e308:
                checks.append((partition_function, Z, 1e-12 * abs(Z)))
            else:
                with pytest.raises(Overflow):
                    partition_function(st)
            if X > 0:
                lnZ = mpmath.log(pre) + mpmath.log(erfi)
                S = K * (lnZ + b * U)
                scale = 1e-13 * max(1, abs(lnZ))
                s_tol = 1e-14 * max(1, abs(S)) if x >= 6.0 else scale * K
                checks += [(log_partition_function, lnZ, scale),
                           (free_energy, -lnZ / b, scale / b),
                           (entropy, S, s_tol)]
            for fn, want, tol in checks:
                got = fn(st)
                assert abs(got - want) <= tol, (fn.__name__, x, got, float(want))


def test_partition_function_overflow_where_erfi_is_finite():
    # Erfi(26.6) is finite, but the prefactor takes Z past double range
    st = ThermoState(beta=1e-6, xi=26.6 * 10.0 / math.sqrt(1e-6), tau=10.0)
    with pytest.raises(Overflow):
        partition_function(st)


def test_partition_function_where_z_is_finite_and_e_x2_is_not():
    # x = ±26.7 at beta = 1e3, tau = 0.1: e^(x^2) leaves double range, and
    # tau/sqrt(beta) brings Z = ±2.382e305 back into it
    for x in (26.7, -26.7):
        st = ThermoState(beta=1e3, xi=x * 0.1 / math.sqrt(1e3), tau=0.1)
        with mpmath.workdps(40):
            X = mpmath.mpf(st.xi) / mpmath.mpf(st.tau) * mpmath.sqrt(mpmath.mpf(st.beta))
            want = st.tau * mpmath.sqrt(mpmath.pi) * mpmath.erfi(X) / (2 * mpmath.sqrt(st.beta))
        got = partition_function(st)
        assert abs(got - want) <= 1e-12 * abs(want), (x, got, float(want))
        if x > 0:
            assert got == pytest.approx(math.exp(log_partition_function(st)), rel=1e-12)


def test_mean_energy_where_x_over_dawson_overflows():
    # x/D(x) ~ 2x^2 overflows from x ~ 9.5e153; U = 1/(2 beta) - (xi/tau)^2/(1 - E)
    # with E = 1 - 2xD ~ -1/(2x^2), so U = -1 at xi = tau, and -r^2 for r = xi/tau;
    # S = k(ln Z + beta U) from mpmath's erfi at 740 digits, where ln Z and
    # beta U are 1.7e308 apart
    st = ThermoState(beta=1.7e308, xi=5e-324, tau=5e-324)
    assert st.x == pytest.approx(1.3038404810405297e154, rel=1e-15)
    assert mean_energy(st) == pytest.approx(-1.0, rel=1e-15)
    assert entropy(st) == pytest.approx(-1453.8600559951694487, rel=1e-13)
    st = ThermoState(beta=1e10, xi=1e150, tau=1.0)
    assert mean_energy(st) == pytest.approx(-1e300, rel=1e-15)
    for st in (ThermoState(beta=1.0, xi=1e155, tau=1.0),
               ThermoState(beta=5e-324, xi=0.3, tau=5e-324)):
        with pytest.raises(Overflow):
            mean_energy(st)


def test_x_where_xi_over_tau_leaves_double_range():
    # xi/tau = 1e-400 underflows and 1e400 overflows, x = 1e-250 and 1e250 do not
    for beta, xi, tau, want in ((1e300, 1e-200, 1e200, 1e-250),
                                (1e-300, 1e200, 1e-200, 1e250)):
        st = ThermoState(beta=beta, xi=xi, tau=tau)
        assert st.x == pytest.approx(want, rel=1e-15)
    # where x itself overflows, every function but C (which tends to k) overflows
    st = ThermoState(beta=1.0, xi=1e300, tau=1e-300)
    assert st.x == math.inf
    for fn in (partition_function, log_partition_function, mean_energy,
               free_energy, entropy):
        with pytest.raises(Overflow):
            fn(st)
    assert specific_heat(st) == 1.0


def test_partition_function_where_x_underflows():
    # x = 1e-600 underflows: Z = xi e^(x^2) D(x)/x = xi to double precision
    for beta, xi, tau in ((1.0, 1e-300, 1e300), (1.0, -1e-300, 1e300),
                          (1e-300, 0.3, 1e160), (1e-300, 2.5, 1e200)):
        st = ThermoState(beta=beta, xi=xi, tau=tau)
        assert abs(st.x) < 2.2250738585072014e-308
        assert partition_function(st) == xi
        if xi > 0:
            assert log_partition_function(st) == pytest.approx(math.log(xi), rel=1e-15)
            assert free_energy(st) == pytest.approx(-math.log(xi) / beta, rel=1e-15)
            assert entropy(st) == pytest.approx(math.log(xi), rel=1e-15)
        else:
            with pytest.raises(DomainError):
                log_partition_function(st)


def test_ends_of_range_regressions():
    # U where x^2 is subnormal (x = 1e-160): -(xi/tau)^2/3, not -0.333251;
    # S where ln Z and beta U cancel (x = 1e154): mpmath's erfi at 740 digits
    assert mean_energy(ThermoState(beta=1e-320, xi=1.0, tau=1.0)) == pytest.approx(
        -1.0 / 3.0, rel=1e-15)
    assert entropy(ThermoState(beta=1.0, xi=1e154, tau=1.0)) == pytest.approx(
        -354.29125150164298069, rel=1e-13)


_THERMO_FUNCTIONS = (partition_function, log_partition_function, mean_energy,
                     specific_heat, free_energy, entropy)


def test_numpy_scalar_inputs_give_floats_without_warnings():
    # the state keeps the floats its checks return, so numpy scalars never
    # reach the formulas: each result is a float, and no numpy warning leaks
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        st = ThermoState(beta=np.float64(0.3), xi=np.float64(2.0), tau=np.float64(1.0),
                         boltzmann_k=np.float64(1.5))
        assert all(type(v) is float for v in (st.beta, st.xi, st.tau, st.boltzmann_k))
        for fn in _THERMO_FUNCTIONS:
            assert type(fn(st)) is float, fn.__name__
        assert type(partition_sum(st, 3)) is float
        st = ThermoState(beta=np.float64(1e-300), xi=np.float64(1e300), tau=np.float64(1e-300))
        assert st.x == math.inf


def test_ends_of_double_range_grid():
    # every thermo function on a grid of beta, tau and +-xi at the ends of
    # double range: a finite float or a typed error, with warnings as errors
    grid = (5e-324, 1e-300, 1e-12, 0.3, 1.0, 2.5, 1e12, 1e300, sys.float_info.max)
    xis = (0.0,) + grid + tuple(-v for v in grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for beta, tau, xi in itertools.product(grid, grid, xis):
            st = ThermoState(beta=beta, xi=xi, tau=tau)
            for fn in _THERMO_FUNCTIONS:
                try:
                    got = fn(st)
                except (DomainError, NumericalError):
                    continue
                assert type(got) is float and math.isfinite(got), (fn.__name__, st, got)
