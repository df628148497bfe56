"""Typed errors at every entry point, and the package's public names.

Each public function that takes an integer index or a float parameter
is fed the bad values of that parameter's rule and must raise
DomainError: never a bare OverflowError or ValueError from int(), and
never a silent NaN or a wrong number.  Valid but extreme inputs whose
result cannot be computed in double precision raise NumericalError.
The tests' own bound-level routes (bound_routes) keep the same input
rules and are checked here alongside the library.
"""

import math

import pytest

import bound_routes
import ptdrsc
from ptdrsc import angular, bound, radial, special, thermo, xsec
from ptdrsc.errors import DomainError, NumericalError

INF = math.inf
NAN = math.nan

# Bad values per input rule.
BAD = {
    "index": (INF, NAN, 1.5, -1, 2**53 + 1),
    "index_from_1": (INF, NAN, 1.5, 0, 2**53 + 1),
    "phase": (NAN, INF, -INF, 1e308),
    "positive": (NAN, INF, -1.0),
    "finite": (NAN, INF, -INF),
    "interval": (NAN, INF),
}

CTX = radial.make_context(1.0, 1.5, 1.0)
STATE = thermo.ThermoState(beta=1.0, xi=2.0, tau=1.0)

# (label, rule, call): the call's default argument is a valid value, and
# each bad value of the rule is passed in its place.
CASES = [
    ("make_context.M", "positive", lambda v=1.0: radial.make_context(v, 1.5, 1.0)),
    ("make_context.E", "finite", lambda v=1.5: radial.make_context(1.0, v, 1.0)),
    ("make_context.delta", "positive", lambda v=1.0: radial.make_context(1.0, 1.5, v)),
    ("phase_shift.ell", "index", lambda v=1: radial.phase_shift(CTX, v)),
    # a whole float is an index too
    ("phase_shift.ell=3.0", "index", lambda v=3.0: radial.phase_shift(CTX, v)),
    # a hand-built context can carry any eta
    ("phase_shift.sommerfeld", "finite",
     lambda v=1.0: radial.phase_shift(radial.RelativisticContext(1.0, 1.5, 1.0, 1.0, v), 1)),
    ("short_range_phase_shift.ell", "index", lambda v=1: radial.short_range_phase_shift(CTX, v)),
    ("short_range_phase_shift.ell_prime", "index",
     lambda v=1: radial.short_range_phase_shift(CTX, 1, v)),
    ("log_normalization_constant.ell", "index",
     lambda v=1: radial.log_normalization_constant(CTX, v)),
    ("normalization_constant.ell", "index", lambda v=1: radial.normalization_constant(CTX, v)),
    ("radial_wavefunction.ell", "index", lambda v=1: radial.radial_wavefunction(CTX, v, 1.0)),
    ("radial_wavefunction.r", "positive", lambda v=1.0: radial.radial_wavefunction(CTX, 1, v)),
    ("radial_wavefunction_with_derivative.ell", "index",
     lambda v=1: radial.radial_wavefunction_with_derivative(CTX, v, 1.0)),
    ("radial_wavefunction_with_derivative.r", "positive",
     lambda v=1.0: radial.radial_wavefunction_with_derivative(CTX, 1, v)),
    ("scattering_amplitude.phase_shifts", "phase",
     lambda v=0.3: radial.scattering_amplitude([v, 0.1, 0.2], 1.0, 1.0)),
    ("scattering_amplitude.theta", "interval",
     lambda v=1.0: radial.scattering_amplitude([0.3, 0.1], v, 1.0)),
    ("scattering_amplitude.k", "positive",
     lambda v=1.0: radial.scattering_amplitude([0.3, 0.1], 1.0, v)),
    ("coulomb_cross_section.alpha", "finite",
     lambda v=1.0: radial.coulomb_cross_section(v, 1.0, 1.0)),
    ("coulomb_cross_section.k", "positive",
     lambda v=1.0: radial.coulomb_cross_section(1.0, v, 1.0)),
    ("coulomb_cross_section.theta", "interval",
     lambda v=1.0: radial.coulomb_cross_section(1.0, 1.0, v)),
    ("energy_equation_residual.E", "interval",
     lambda v=0.0: bound_routes.energy_equation_residual(v, 1.0, 0.5, 0, 0)),
    ("energy_equation_residual.M", "positive",
     lambda v=1.0: bound_routes.energy_equation_residual(0.0, v, 0.5, 0, 0)),
    ("energy_equation_residual.delta", "positive",
     lambda v=0.5: bound_routes.energy_equation_residual(0.0, 1.0, v, 0, 0)),
    ("energy_equation_residual.n_r", "index",
     lambda v=1: bound_routes.energy_equation_residual(0.0, 1.0, 0.5, v, 0)),
    ("energy_equation_residual.ell", "index",
     lambda v=1: bound_routes.energy_equation_residual(0.0, 1.0, 0.5, 0, v)),
    *((f"{fn.__name__}.{name}", rule, call)
      for fn in (bound.bound_energy, bound_routes.bound_energy_bisection,
                 bound.nonrel_energy, bound.bound_level)
      for name, rule, call in (
          ("M", "positive", lambda v=1.0, fn=fn: fn(v, 0.5, 1, 0)),
          ("delta", "positive", lambda v=0.5, fn=fn: fn(1.0, v, 1, 0)),
          ("n_r", "index", lambda v=1, fn=fn: fn(1.0, 0.5, v, 0)),
          ("ell", "index", lambda v=0, fn=fn: fn(1.0, 0.5, 1, v)),
      )),
    ("pt_parameter_from_strength.c", "finite",
     lambda v=2.0: angular.pt_parameter_from_strength(v)),
    *((f"{fn.__name__}.{name}", rule, call)
      for fn in (angular.polar_eigenvalue, angular.polar_solution)
      for name, rule, call in (
          ("chi", "interval", lambda v=2.0, fn=fn: fn(v, 3.0, 1)),
          ("lam", "interval", lambda v=3.0, fn=fn: fn(2.0, v, 1)),
          ("n_r", "index", lambda v=1, fn=fn: fn(2.0, 3.0, v)),
          ("zeta", "positive", lambda v=1.0, fn=fn: fn(2.0, 3.0, 1, v)),
      )),
    # an eigenfunction value is the solution's evaluator at q
    ("polar_eigenfunction.q", "interval",
     lambda v=0.5: angular.polar_solution(2.0, 3.0, 1).evaluator(v)),
    ("polar_eigenfunction.n_r", "index",
     lambda v=1: angular.polar_solution(2.0, 3.0, v).evaluator(0.5)),
    *((f"{fn.__name__}.{name}", rule, call)
      for fn in (angular.degenerate_eigenvalue, angular.degenerate_solution)
      for name, rule, call in (
          ("lam", "interval", lambda v=3.0, fn=fn: fn(v, 1)),
          ("n_r", "index", lambda v=1, fn=fn: fn(3.0, v)),
          ("zeta", "positive", lambda v=1.0, fn=fn: fn(3.0, 1, v)),
      )),
    ("degenerate_eigenfunction.q", "interval",
     lambda v=0.5: angular.degenerate_solution(3.0, 1).evaluator(v)),
    ("map_polar.A", "finite", lambda v=2.0: angular.map_polar(v, 1.0, 1.0, 2.0)),
    ("map_polar.B", "finite", lambda v=1.0: angular.map_polar(2.0, v, 1.0, 2.0)),
    ("map_polar.m", "finite", lambda v=1.0: angular.map_polar(2.0, 1.0, v, 2.0)),
    ("map_polar.E_plus_M", "finite", lambda v=2.0: angular.map_polar(2.0, 1.0, 1.0, v)),
    ("map_azimuthal.C", "finite", lambda v=2.0: angular.map_azimuthal(v, 2.0, 1, 2.0)),
    ("map_azimuthal.D", "finite", lambda v=2.0: angular.map_azimuthal(2.0, v, 1, 2.0)),
    ("map_azimuthal.alpha", "index_from_1", lambda v=1: angular.map_azimuthal(2.0, 2.0, v, 2.0)),
    ("map_azimuthal.E_plus_M", "finite", lambda v=2.0: angular.map_azimuthal(2.0, 2.0, 1, v)),
    ("azimuthal_m_squared.chi", "interval",
     lambda v=2.0: angular.azimuthal_m_squared(v, 3.0, 1, 1)),
    ("azimuthal_m_squared.n_r", "index", lambda v=1: angular.azimuthal_m_squared(2.0, 3.0, v, 1)),
    ("azimuthal_m_squared.alpha", "index_from_1",
     lambda v=1: angular.azimuthal_m_squared(2.0, 3.0, 1, v)),
    ("log_gamma.z", "finite", lambda v=1.5: special.log_gamma(v)),
    ("hyp1f1.a", "finite", lambda v=0.5: special.hyp1f1(v, 1.0, 1.0)),
    ("hyp1f1.b", "finite", lambda v=1.0: special.hyp1f1(0.5, v, 1.0)),
    ("hyp1f1.z", "finite", lambda v=1.0: special.hyp1f1(0.5, 1.0, v)),
    ("hyp2f1_terminating.n", "index", lambda v=1: special.hyp2f1_terminating(v, 2.5, 3.5, 0.3)),
    ("hyp2f1_terminating.b", "finite", lambda v=2.5: special.hyp2f1_terminating(3, v, 3.5, 0.3)),
    ("hyp2f1_terminating.c", "finite", lambda v=3.5: special.hyp2f1_terminating(3, 2.5, v, 0.3)),
    ("hyp2f1_terminating.x", "interval", lambda v=0.3: special.hyp2f1_terminating(3, 2.5, 3.5, v)),
    ("dawson.x", "finite", lambda v=1.0: special.dawson(v)),
    ("ThermoState.beta", "positive", lambda v=1.0: thermo.ThermoState(beta=v, xi=2.0, tau=1.0)),
    ("ThermoState.xi", "finite", lambda v=2.0: thermo.ThermoState(beta=1.0, xi=v, tau=1.0)),
    ("ThermoState.tau", "positive", lambda v=1.0: thermo.ThermoState(beta=1.0, xi=2.0, tau=v)),
    ("ThermoState.boltzmann_k", "positive",
     lambda v=1.0: thermo.ThermoState(beta=1.0, xi=2.0, tau=1.0, boltzmann_k=v)),
    ("partition_sum.n_max", "index", lambda v=1: thermo.partition_sum(STATE, v)),
    ("ScreenedRutherford.phi", "positive", lambda v=1.0: xsec.ScreenedRutherford(v, 0.5)),
    ("ScreenedRutherford.gamma_screen", "positive", lambda v=0.5: xsec.ScreenedRutherford(1.0, v)),
    ("fit_screened.sigma_tot", "positive", lambda v=2.0: xsec.fit_screened(v, 1.0)),
    ("fit_screened.sigma_tr", "positive", lambda v=1.0: xsec.fit_screened(2.0, v)),
    ("mean_wide_angle_collisions.number_density", "positive",
     lambda v=1.0: xsec.mean_wide_angle_collisions(v, 1.0, 1.0)),
    ("scatter_probability.theta", "interval",
     lambda v=1.0: xsec.scatter_probability(lambda t: 1.0, v)),
    ("screened_rutherford_dcs.theta", "interval",
     lambda v=1.0: xsec.screened_rutherford_dcs(xsec.ScreenedRutherford(1.0, 0.5), v)),
]


# Indices far past 2**53, which int() of a float or the float arithmetic
# behind them would meet with a bare OverflowError.
HUGE_INDEX_CASES = [
    ("bound_energy(n_r=1e300)", lambda: bound.bound_energy(1, 0.5, 1e300, 0)),
    ("phase_shift(ell=10**400)", lambda: radial.phase_shift(CTX, 10**400)),
    ("phase_shift(ell=10**5000)", lambda: radial.phase_shift(CTX, 10**5000)),
    ("polar_eigenvalue(n_r=10**400)", lambda: angular.polar_eigenvalue(2, 3, 10**400)),
    ("hyp2f1_terminating(n=10**400)",
     lambda: special.hyp2f1_terminating(10**400, 2.5, 3.5, 0.3)),
    # g at l + 1 enters dg/dr
    ("radial_wavefunction_with_derivative(ell=2**53)",
     lambda: radial.radial_wavefunction_with_derivative(CTX, 2**53, 1.0)),
]


@pytest.mark.parametrize("label,rule,call", CASES, ids=[case[0] for case in CASES])
def test_valid_arguments_pass(label, rule, call):
    # the valid call each bad-value case perturbs is itself accepted
    value = call()
    assert not (isinstance(value, float) and math.isnan(value))


@pytest.mark.parametrize(
    "label,value,call",
    [(label, v, call) for label, rule, call in CASES for v in BAD[rule]],
    ids=[f"{label}={v!r}" for label, rule, _ in CASES for v in BAD[rule]],
)
def test_bad_input_raises_domain_error(label, value, call):
    with pytest.raises(DomainError):
        call(value)


@pytest.mark.parametrize("label,call", HUGE_INDEX_CASES,
                         ids=[case[0] for case in HUGE_INDEX_CASES])
def test_huge_index_raises_domain_error(label, call):
    with pytest.raises(DomainError):
        call()


HUGE_X = thermo.ThermoState(beta=1.0, xi=1e155, tau=1.0)

# Valid inputs whose result scipy cannot evaluate or double range cannot hold.
EXTREME_CASES = [
    ("hyp2f1_terminating(n=10**6)", lambda: special.hyp2f1_terminating(10**6, 2.5, 3.5, 0.3)),
    ("degenerate_eigenvalue(zeta=1e308)", lambda: angular.degenerate_eigenvalue(3.0, 1, 1e308)),
    ("polar_eigenvalue(zeta=1e308)", lambda: angular.polar_eigenvalue(2.0, 3.0, 1, 1e308)),
    ("polar_solution(n_r=10**5).evaluator",
     lambda: angular.polar_solution(2.0, 3.0, 10**5).evaluator(0.7)),
    ("coulomb_cross_section(k=5e-324)", lambda: radial.coulomb_cross_section(1.0, 5e-324, 1.0)),
    ("coulomb_cross_section(theta=1e-300)",
     lambda: radial.coulomb_cross_section(1.0, 1.0, 1e-300)),
    # F beyond double range: the large-|z| expansion, and the series that
    # b - a = 0 forces (e^800)
    ("hyp1f1(0.5, 1, 720)", lambda: special.hyp1f1(0.5, 1.0, 720.0)),
    ("hyp1f1(0.5, 1, 800)", lambda: special.hyp1f1(0.5, 1.0, 800.0)),
    ("hyp1f1(2, 2, 800)", lambda: special.hyp1f1(2.0, 2.0, 800.0)),
    # g at eta = 1, l = 200, kr = 400: the large-|z| expansion fails its
    # estimate past |z| = 700, where no series rescue runs (NoConvergence)
    ("hyp1f1(200.5 - 1j, 401, -800j)", lambda: special.hyp1f1(200.5 - 1j, 401.0, -800j)),
    ("nonrel_energy(1, 1e308, 0, 0)", lambda: bound.nonrel_energy(1.0, 1e308, 0, 0)),
    ("screened_sigma_total(1e308, 1e-300)",
     lambda: xsec.screened_sigma_total(xsec.ScreenedRutherford(1e308, 1e-300))),
    ("screened_sigma_transport(1e308, 1e-300)",
     lambda: xsec.screened_sigma_transport(xsec.ScreenedRutherford(1e308, 1e-300))),
    # eta = (M + E)·delta/k leaves double range
    ("make_context(delta=1e308)", lambda: radial.make_context(1.0, 1.5, 1e308)),
    # M + E overflows
    ("make_context(M=1e308, E=1.7e308)", lambda: radial.make_context(1e308, 1.7e308, 1.0)),
    ("mean_wide_angle_collisions(1e300, 1e300, 1e300)",
     lambda: xsec.mean_wide_angle_collisions(1e300, 1e300, 1e300)),
    # x = 1e155: x² and so ln Z leave double range
    ("log_partition_function(xi=1e155)", lambda: thermo.log_partition_function(HUGE_X)),
    ("free_energy(xi=1e155)", lambda: thermo.free_energy(HUGE_X)),
    ("entropy(xi=1e155)", lambda: thermo.entropy(HUGE_X)),
]


@pytest.mark.parametrize("label,call", EXTREME_CASES, ids=[case[0] for case in EXTREME_CASES])
def test_extreme_input_raises_numerical_error(label, call):
    with pytest.raises(NumericalError):
        call()


def test_public_names():
    assert set(ptdrsc.__all__) == {
        "AngularSolution", "BoundLevel", "ComplexBranch", "DomainError",
        "NoConvergence", "NoRoot", "NonIntegrable", "NumericalError", "Overflow",
        "ParameterPole", "PoleError", "PtdrscError",
        "RealnessViolation", "RelativisticContext", "ScreenedRutherford",
        "ThermoState", "__version__", "azimuthal_m_squared",
        "backward_probability", "bound_energy", "bound_level",
        "coulomb_cross_section", "dawson", "degenerate_eigenvalue",
        "degenerate_solution", "entropy",
        "fit_screened", "forward_probability", "free_energy", "hyp1f1",
        "hyp2f1_terminating", "log_gamma", "log_normalization_constant",
        "log_partition_function", "make_context", "map_azimuthal", "map_polar",
        "mean_energy", "mean_wide_angle_collisions", "nonrel_energy",
        "normalization_constant", "partition_function", "partition_sum",
        "phase_shift", "polar_eigenvalue", "polar_solution",
        "pt_parameter_from_strength",
        "radial_wavefunction", "radial_wavefunction_with_derivative",
        "scatter_probability", "scattering_amplitude", "screened_rutherford_dcs",
        "screened_sigma_total", "screened_sigma_transport",
        "screened_transport_ratio", "short_range_phase_shift", "sigma_total",
        "sigma_transport", "specific_heat", "transport_ratio",
    }
    assert len(ptdrsc.__all__) == len(set(ptdrsc.__all__))
    for name in ptdrsc.__all__:
        assert hasattr(ptdrsc, name), name
