"""Integrated cross sections and the screened-Rutherford model.

Any differential cross section is represented as a plain callable
``dcs(theta) -> dsigma/dOmega`` on (0, pi].  Total and transport cross
sections are adaptive quadratures of it over the sphere, and the
cumulative scattering probability splits the sphere at theta and
integrates each side once; for the two-parameter screened-Rutherford shape

    dcs(theta) = Phi / (1 - cos(theta) + Gamma)^2

both integrals have closed forms, and the pair (sigma_tot, sigma_tr)
can be inverted back to (Phi, Gamma): a safeguarded Newton iteration on
log10 Gamma, in the standard ``math`` module, finds the Gamma whose
closed-form transport ratio matches, and bisection inside the bracket
backs it up.

Accuracy contract
-----------------
quadratures (sigma_total, sigma_transport, scatter_probability)
    on the screened shape with 0.1 <= Gamma <= 1e3, 1e-2 <= Phi <= 1e2
    and 1e-3 <= theta <= pi: within 1e-8 relative of the closed forms,
    P(theta) = [1/Gamma - 1/(1 - cos(theta) + Gamma)] / [1/Gamma - 1/(2 + Gamma)]
    for the probability.  That is ten times the quadrature's target
    _EPSREL; most values are within 1e-12, and the worst over 700,000
    scanned values of Gamma was 1.5e-9.  Below Gamma = 0.1, QUADPACK's
    error estimate misses the forward peak (width ~sqrt(Gamma)) in narrow
    windows of Gamma: by 2.9e-7 at Gamma = 0.042602444, 4.5e-5 at
    Gamma = 2.090751e-3 and 1e-3 at Gamma = 1.349672e-5.  No tolerance is
    stated there.
closed forms (screened_sigma_total, screened_sigma_transport,
screened_transport_ratio)
    within 1e-14 relative of the defining integrals for
    1e-6 <= Gamma <= 1e6.
"""

import math
import sys
from dataclasses import dataclass
from typing import Callable

from ._lazy import lazy_module
from .errors import DomainError, NonIntegrable, NoRoot, Overflow, check_positive

__all__ = [
    "ScreenedRutherford",
    "sigma_total",
    "sigma_transport",
    "transport_ratio",
    "mean_wide_angle_collisions",
    "scatter_probability",
    "forward_probability",
    "backward_probability",
    "screened_rutherford_dcs",
    "screened_sigma_total",
    "screened_sigma_transport",
    "screened_transport_ratio",
    "fit_screened",
]

integrate = lazy_module("scipy.integrate")

_EPSREL = 1e-9
# below u = 2/Gamma = 0.1 the ratio uses its alternating series
_RATIO_SERIES_U = 0.1
# log10 bracket for the ratio inversion
_FIT_LOG_LO = -14.0
_FIT_LOG_HI = 14.0
# stop once a step moves log10 Gamma by less than this
_FIT_XTOL = 1e-15
# a Newton step that leaves the bracket or fails to halve a Newton step
# below this has met the rounding of the ratio, and the solver stops
_FIT_FLOOR = 1e-6
_LN10 = math.log(10.0)


@dataclass(frozen=True)
class ScreenedRutherford:
    """Strength Phi and screening offset Gamma of the model shape."""

    phi: float
    gamma_screen: float

    def __post_init__(self):
        # keep the checked floats, so that numpy scalars do not reach the formulas
        for name in ("phi", "gamma_screen"):
            object.__setattr__(self, name, check_positive(getattr(self, name), name))


def _sphere_quad(integrand: Callable[[float], float], lo: float, hi: float) -> float:
    """2*pi * integral of integrand(theta) over [lo, hi]; the integrand
    carries the sin(theta) of the solid angle."""
    try:
        result = integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=_EPSREL,
                                limit=200, full_output=1)
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        raise NonIntegrable(f"cross-section quadrature failed: {exc}") from exc
    value, abserr = result[0], result[1]
    if len(result) > 3:
        raise NonIntegrable(
            f"cross-section quadrature did not converge: {result[3].strip()}"
        )
    if not math.isfinite(value):
        raise NonIntegrable(f"cross-section quadrature returned {value!r}")
    if abserr > _EPSREL * max(abs(value), 1e-300) * 10.0 and abserr > 1e-13:
        raise NonIntegrable(
            f"cross-section quadrature error estimate {abserr!r} too large "
            f"for value {value!r}"
        )
    return 2.0 * math.pi * value


def sigma_total(dcs: Callable[[float], float]) -> float:
    """Total cross section 2*pi * int_0^pi dcs(theta) sin(theta) dtheta."""
    return _sphere_quad(lambda theta: dcs(theta) * math.sin(theta), 0.0, math.pi)


def sigma_transport(dcs: Callable[[float], float]) -> float:
    """Transport cross section, weighted by the momentum-transfer factor
    (1 - cos(theta))."""
    return _sphere_quad(
        lambda theta: dcs(theta) * (1.0 - math.cos(theta)) * math.sin(theta),
        0.0, math.pi)


def transport_ratio(dcs: Callable[[float], float]) -> float:
    """sigma_transport / sigma_total; lies in (0, 2) for any positive dcs."""
    tot = sigma_total(dcs)
    if tot <= 0.0:
        raise DomainError(f"total cross section {tot!r} is not positive")
    return sigma_transport(dcs) / tot


def mean_wide_angle_collisions(number_density: float, path_length: float,
                               sigma_tr: float) -> float:
    """Expected number of transport-weighted collisions n*R*sigma_tr.

    Raises Overflow where the product leaves double range.
    """
    for name, v in (("number_density", number_density),
                    ("path_length", path_length), ("sigma_tr", sigma_tr)):
        if not (v >= 0.0 and math.isfinite(v)):
            raise DomainError(f"{name} must be non-negative and finite, got {v!r}")
    collisions = number_density * path_length * sigma_tr
    if collisions == math.inf:
        raise Overflow(f"n*R*sigma_tr = {number_density!r}*{path_length!r}*{sigma_tr!r} "
                       "exceeds double range")
    return collisions


def scatter_probability(dcs: Callable[[float], float], theta: float) -> float:
    """Cumulative probability of scattering into polar angles <= theta.

    The sphere is split at theta: [0, theta] and [theta, pi] are each
    integrated once, and the probability is inner / (inner + outer).  A
    side of zero width is not integrated and counts as exactly 0.0, so
    scatter_probability(dcs, 0) == 0.0 and scatter_probability(dcs, pi)
    == inner / inner == 1.0 exactly.  At theta = 0 the outer side is the
    whole sphere, so a dcs whose total diverges still raises
    NonIntegrable, and one whose total is not positive DomainError.
    """
    if not (0.0 <= theta <= math.pi):
        raise DomainError(f"theta must lie in [0, pi], got {theta!r}")

    def integrand(t):
        return dcs(t) * math.sin(t)

    inner = _sphere_quad(integrand, 0.0, theta) if theta > 0.0 else 0.0
    outer = _sphere_quad(integrand, theta, math.pi) if theta < math.pi else 0.0
    tot = inner + outer
    if tot <= 0.0:
        raise DomainError(f"total cross section {tot!r} is not positive")
    return inner / tot


def forward_probability(dcs: Callable[[float], float]) -> float:
    """Probability of scattering into the forward hemisphere."""
    return scatter_probability(dcs, 0.5 * math.pi)


def backward_probability(dcs: Callable[[float], float]) -> float:
    """Probability of scattering into the backward hemisphere."""
    return 1.0 - forward_probability(dcs)


def screened_rutherford_dcs(model: ScreenedRutherford,
                            theta: float) -> float:
    """Model differential cross section Phi/(1 - cos(theta) + Gamma)^2."""
    if not (0.0 <= theta <= math.pi):
        raise DomainError(f"theta must lie in [0, pi], got {theta!r}")
    denom = 1.0 - math.cos(theta) + model.gamma_screen
    return model.phi / (denom * denom)


def screened_sigma_total(model: ScreenedRutherford) -> float:
    """Closed form 4*pi*Phi / (Gamma*(Gamma + 2)); raises Overflow where
    it leaves double range, overflowing or underflowing to 0."""
    g = model.gamma_screen
    total = 4.0 * math.pi * model.phi / (g * (g + 2.0))
    if not 0.0 < total < math.inf:
        # 4*pi*Phi or Gamma*(Gamma + 2) alone leaves range where the total may not
        total = 4.0 * math.pi * (model.phi / g / (g + 2.0))
        if not 0.0 < total < math.inf:
            raise Overflow(f"sigma_tot of {model!r} leaves double range")
    return total


def _log_minus_fraction(u: float) -> float:
    """ln(1+u) - u/(1+u), stable at small u where the two terms cancel
    to O(u^2); an alternating series, to u^19 at most, takes over below
    u = 0.1."""
    if u < _RATIO_SERIES_U:
        # ln(1+u) - u/(1+u) = sum_{k>=2} (-1)^k (k-1) u^k / k
        term = u * u
        total = 0.5 * term
        for k in range(3, 20):
            term *= -u
            addend = (k - 1) * term / k
            if abs(addend) < 2.0 ** -54 * total:
                # below half an ulp of the total, as is every later term
                break
            total += addend
        return total
    return math.log1p(u) - u / (1.0 + u)


def _screened_f(g: float) -> float:
    """ln(1+u) - u/(1+u) at u = 2/Gamma; where u overflows, ln(1+u) is
    taken as ln(2+Gamma) - ln(Gamma)."""
    u = 2.0 / g
    if u == math.inf:
        return math.log(2.0 + g) - math.log(g) - 2.0 / (2.0 + g)
    return _log_minus_fraction(u)


def screened_sigma_transport(model: ScreenedRutherford) -> float:
    """Closed form 2*pi*Phi*[ln((Gamma+2)/Gamma) - 2/(Gamma+2)].

    Evaluated through the cancellation-free difference, so it stays
    accurate for arbitrarily strong screening (large Gamma).  Raises
    Overflow where it leaves double range, overflowing or underflowing
    to 0.
    """
    f = _screened_f(model.gamma_screen)
    if f < sys.float_info.min:
        # f = u^2/2 to double precision, but it is subnormal or 0
        u = 2.0 / model.gamma_screen
        transport = math.pi * (model.phi * u) * u
    else:
        transport = 2.0 * math.pi * model.phi * f
        if transport == math.inf:
            # 2*pi*Phi alone overflows where the transport may not
            transport = 2.0 * math.pi * (model.phi * f)
    if not 0.0 < transport < math.inf:
        raise Overflow(f"sigma_tr of {model!r} leaves double range")
    return transport


def _ratio_from_u(u: float) -> float:
    """Transport ratio 2(1+u)[ln(1+u) - u/(1+u)]/u^2 at u = 2/Gamma."""
    f = _log_minus_fraction(u)
    if f < sys.float_info.min:
        return 1.0  # f = u^2/2 is subnormal or 0; the ratio 1 - u/3 rounds to 1
    return 2.0 * (1.0 + u) * f / (u * u)


def screened_transport_ratio(model: ScreenedRutherford) -> float:
    """sigma_tr/sigma_tot for the model; strictly increasing in Gamma,
    with limits 0 as Gamma -> 0 and 1 as Gamma -> infinity."""
    g = model.gamma_screen
    u = 2.0 / g
    if u * u == math.inf:
        # 2(1+u)/u^2 = Gamma(Gamma+2)/2 where u or u^2 overflows
        return g * (0.5 * (g + 2.0) * _screened_f(g))
    return _ratio_from_u(u)


def fit_screened(sigma_tot: float, sigma_tr: float) -> ScreenedRutherford:
    """Invert (sigma_tot, sigma_tr) to the unique model reproducing them.

    The ratio sigma_tr/sigma_tot pins Gamma, after which Phi follows from
    the total.  Gamma is found in x = log10 Gamma, inside the bracket
    1e-14 <= Gamma <= 1e14, by Newton steps on logit R(x) - logit(ratio)
    for the closed-form ratio R; the logit is close to linear in x at
    both ends of the bracket, and R's own slope is
    dR/dln Gamma = ((2+u)R - 2)/(1+u) at u = 2/Gamma.  A step that would
    leave the bracket, or that fails to halve the Newton step before it,
    is replaced by bisection; right after a Newton step below 1e-6, such
    a step means the iterate has met the rounding of R, and the solver
    stops.
    Raises NoRoot when the ratio falls outside the attainable band.
    """
    sigma_tot = check_positive(sigma_tot, "sigma_tot")
    sigma_tr = check_positive(sigma_tr, "sigma_tr")
    ratio = sigma_tr / sigma_tot
    r_lo = _ratio_from_u(2.0 * 10.0 ** -_FIT_LOG_LO)
    r_hi = _ratio_from_u(2.0 * 10.0 ** -_FIT_LOG_HI)
    if not (r_lo < ratio < r_hi):
        raise NoRoot(
            f"transport ratio {ratio!r} outside the attainable range "
            f"({r_lo!r}, {r_hi!r}) of the model"
        )
    target = math.log(ratio / (1.0 - ratio))
    lo, hi = _FIT_LOG_LO, _FIT_LOG_HI
    x, last_step = 0.0, math.inf
    while True:
        u = 2.0 * 10.0 ** -x
        r = _ratio_from_u(u)
        g = math.log(r / (1.0 - r)) - target
        if g < 0.0:
            lo = x
        elif g > 0.0:
            hi = x
        else:
            break
        slope = _LN10 * ((2.0 + u) * r - 2.0) / ((1.0 + u) * r * (1.0 - r))
        step = g / slope if slope > 0.0 else math.inf
        inside = lo < x - step < hi
        if inside and abs(2.0 * step) <= last_step:
            last_step = abs(step)
        elif last_step <= _FIT_FLOOR:
            break
        else:
            step = x - 0.5 * (lo + hi)
            last_step = math.inf  # the next Newton step starts afresh
        x -= step
        if abs(step) <= _FIT_XTOL * max(1.0, abs(x)):
            break
    gamma = 10.0 ** x
    phi = sigma_tot * gamma * (gamma + 2.0) / (4.0 * math.pi)
    return ScreenedRutherford(phi=phi, gamma_screen=gamma)
