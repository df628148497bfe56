"""Special functions: complex log-Gamma, confluent hypergeometric ₁F₁,
terminating Gauss ₂F₁, Dawson function, and imaginary error function.

Accuracy contracts
------------------
log_gamma
    scipy's ``loggamma`` on the principal branch, the imaginary part not
    reduced mod 2π; error ≤ 1e-12·max(1, |log Γ|) for
    |Re z|, |Im z| ≤ 1e3.
hyp1f1
    relative accuracy ≤ 1e-10 for |z| ≤ 50; above the series/asymptotic
    switch radius the large-|z| expansion is used whenever its internal
    error estimate passes, with a high-precision series rescue otherwise.
hyp2f1_terminating
    scipy's ``hyp2f1`` at a = −n; on the angular levels
    (sin q)^χ (cos q)^λ ₂F₁(−n, χ+λ+n; χ+½; sin²q) the error is
    ≤ 1e-12 of the level's peak for n ≤ 30.
dawson / erfi
    relative accuracy ≤ 1e-12 for |x| ≤ 20.

Scalar entry points
-------------------
``log_gamma``, ``hyp2f1_terminating``, ``dawson`` and ``erfi`` call
``scipy.special.cython_special``, which takes and returns Python scalars,
so a call pays neither numpy-scalar boxing nor ufunc type resolution.  Its
values are those of the ``scipy.special`` ufuncs bit for bit.  The module
loads on the first call, so importing ``special`` loads no scipy.

Conjugate Poincaré series
-------------------------
The large-|z| expansion of ₁F₁ (DLMF §13.7) sums two series.  For the
Coulomb-wave arguments a = ℓ+½−iη, b = 2ℓ+1, z = −2ikr the second one has
the conjugate parameters and argument of the first, so its sum is taken
as the conjugate of the first, with the same bits as summing it; for
η ≠ 0, log Γ(b − a) = log Γ(ā) is likewise the conjugate of log Γ(a).

All operations are pure and hold no mutable state.
"""

import cmath
import math

from ._lazy import lazy_module
from .errors import (
    DomainError,
    NoConvergence,
    Overflow,
    ParameterPole,
    PoleError,
    check_finite,
    check_index,
)

__all__ = [
    "log_gamma",
    "hyp1f1",
    "hyp2f1_terminating",
    "dawson",
    "erfi",
]

cython_special = lazy_module("scipy.special.cython_special")

_POLE_TOL = 1e-12

# ₁F₁ evaluation policy.
_SWITCH_RADIUS = 30.0     # series below, asymptotic above
_MAX_TERMS = 100_000      # hard series cap
_SERIES_RTOL = 1e-13      # internal series accuracy target
_ASYM_ACCEPT = 1e-12      # accept asymptotic when claimed error is below this
_RESCUE_RADIUS = 700.0    # run the high-precision series rescue up to here
_F64_DIRECT_LIMIT = 600.0 # skip the double series beyond this (at |z| = 600
                          # an imaginary-z series peaks near 1e260)


def _require_finite_complex(z: complex, name: str) -> complex:
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"{name} must be finite, got {z!r}")
    return z


def log_gamma(z) -> complex:
    """Principal-branch log Γ(z) for complex z.

    Parameters
    ----------
    z : complex
        Any finite point at least 1e-12 away from the poles 0, −1, −2, …

    Returns
    -------
    complex
        log Γ(z); |Γ| = exp(result.real), and result.imag continues the
        argument analytically (it is not reduced mod 2π).

    Raises
    ------
    PoleError
        If z is within 1e-12 of a non-positive integer.
    """
    z = _require_finite_complex(z, "z")
    if z.real <= _POLE_TOL and _is_nonpositive_int(z):  # inline gate: no call on the hot path
        raise PoleError(f"log_gamma pole at z = {round(z.real)} (got {z!r})")
    return cython_special.loggamma(z)


def _is_nonpositive_int(w) -> bool:
    """True if w lies within _POLE_TOL of one of the poles 0, −1, −2, …"""
    return w.real <= _POLE_TOL and abs(w - round(w.real)) <= _POLE_TOL


def _series_f64(a: complex, b: complex, z: complex):
    """Kummer series in double precision.

    Returns (value, peak); peak = inf flags intermediate overflow.
    """
    term = complex(1.0)
    total = complex(1.0)
    peak = 1.0
    below = 0
    n = 0
    while n < _MAX_TERMS:
        term = term * (a + n) / (b + n) * z / (n + 1)
        total += term
        at = abs(term)
        if not at < 1e290:
            return total, math.inf
        mag = abs(total)
        if mag > peak:
            peak = mag
        if at > peak:
            peak = at
        n += 1
        if at <= 1e-16 * (mag if mag > 1e-300 else 1e-300):
            below += 1
            if below >= 3:
                return total, peak
        else:
            below = 0
    raise NoConvergence(
        f"1F1 series did not settle within {_MAX_TERMS} terms "
        f"(a={a!r}, b={b!r}, z={z!r})"
    )


def _series_mp(a: complex, b: complex, z: complex, dps: int) -> complex:
    """Arbitrary-precision Kummer series.

    Re-runs with more digits if the measured cancellation exceeds the
    provisioned precision (the double-precision estimate can be fooled
    when the returned value is itself below the cancellation noise).
    """
    # Imported here: only this rescue needs mpmath, whose import costs
    # every run ~0.1 s, while a rescue call costs milliseconds anyway.
    import mpmath

    for _ in range(4):
        with mpmath.workdps(dps):
            am, bm, zm = mpmath.mpc(a), mpmath.mpc(b), mpmath.mpc(z)
            term = mpmath.mpc(1)
            total = mpmath.mpc(1)
            peak = mpmath.mpf(1)
            below = 0
            n = 0
            while n < _MAX_TERMS:
                term = term * (am + n) / (bm + n) * zm / (n + 1)
                total += term
                at = abs(term)
                if at > peak:
                    peak = at
                n += 1
                if at <= mpmath.mpf(10) ** (-dps) * abs(total):
                    below += 1
                    if below >= 3:
                        break
                else:
                    below = 0
            else:
                raise NoConvergence(
                    f"1F1 high-precision series hit the {_MAX_TERMS}-term cap "
                    f"(a={a!r}, b={b!r}, z={z!r})"
                )
            lost = mpmath.log10(peak / abs(total)) if abs(total) > 0 else mpmath.mpf(dps)
            needed = int(lost) + 25
        if dps >= needed:
            return complex(total)
        dps = needed + 10
    return complex(total)


def _series(a: complex, b: complex, z: complex) -> complex:
    """Kummer series in double precision, or in mpmath when the terms
    overflow, cancellation eats the double budget, or |z| > _F64_DIRECT_LIMIT.
    """
    dps = int(0.4343 * abs(z)) + 35
    if abs(z) <= _F64_DIRECT_LIMIT:
        val, peak = _series_f64(a, b, z)
        if not math.isinf(peak):
            if peak * 2.2e-16 / max(abs(val), 1e-300) <= _SERIES_RTOL:
                return val
            dps = int(math.log10(peak)) + 30  # peak ≥ 1, the first term
    val = _series_mp(a, b, z, dps)
    if not cmath.isfinite(val):
        raise Overflow(f"1F1({a!r}; {b!r}; {z!r}) exceeds double range")
    return val


def _asym_sum(p: complex, q: complex, w: complex):
    """Σ (p)_n (q)_n / (n! wⁿ) truncated at its smallest term.

    Returns (sum, min_term/|sum|) — the second entry is the standard
    optimal-truncation error estimate for this divergent series.
    """
    term = complex(1.0)
    total = complex(1.0)
    at = 1.0  # |term|, carried from one step to the next
    min_ratio = 1.0
    n = 0
    while n < 500:
        nxt = term * (p + n) * (q + n) / ((n + 1) * w)
        a_nxt = abs(nxt)
        if a_nxt >= at:
            break
        term, at = nxt, a_nxt
        total += term
        n += 1
        mag = abs(total)
        ratio = at / (mag if mag > 1e-300 else 1e-300)
        if ratio < min_ratio:
            min_ratio = ratio
        if ratio <= 1e-17:
            break
    return total, min_ratio


def _asymptotic_eval(a: complex, b: complex, z: complex):
    """Large-|z| expansion of ₁F₁ with its two Poincaré series.

    The coefficient of the subdominant z^(−a) series carries e^(±iπa);
    the sign follows the half-plane of Im z.  On the ray arg z = −π/2
    (the physical case z = −2ikr) this reproduces the lower-sign choice
    of the re-expressed asymptotic form; inside |arg z| < π/2 the term is
    exponentially subdominant and the choice is numerically immaterial,
    except near the boundary where the half-plane rule is the one that
    matches the exact function.

    In the Coulomb case (z purely imaginary, b real and b = 2·Re a, as
    for every radial wave) the second series has the conjugate
    parameters and argument of the first (a = conj(b − a),
    a − b + 1 = conj(1 − a), −z = conj(z)), so it is the conjugate of the
    first sum and is not summed again.  There, off the real axis,
    log Γ(b − a) = log Γ(ā) is likewise taken as the conjugate of log Γ(a).
    """
    sign = -1.0 if z.imag < 0.0 else 1.0
    lg_b = log_gamma(b)
    lg_a = log_gamma(a)
    s1, e1 = _asym_sum(b - a, 1.0 - a, z)
    coulomb = z.real == 0.0 and b.imag == 0.0 and b.real == 2.0 * a.real
    if coulomb:
        # 0.0 − Im keeps a zero imaginary part +0.0, as the summed series has it
        s2, e2 = complex(s1.real, 0.0 - s1.imag), e1
    else:
        s2, e2 = _asym_sum(a, a - b + 1.0, -z)
    if coulomb and a.imag != 0.0:
        # scipy's log Γ(ā) is the conjugate of log Γ(a) off the real axis;
        # on it, a −0.0 imaginary part or the branch at negative a breaks it
        lg_ba = complex(lg_a.real, 0.0 - lg_a.imag)
    else:
        lg_ba = log_gamma(b - a)
    try:
        t1 = cmath.exp(lg_b - lg_a + z + (a - b) * cmath.log(z)) * s1
        t2 = cmath.exp(lg_b - lg_ba + sign * 1j * math.pi * a
                       - a * cmath.log(z)) * s2
    except OverflowError:
        raise Overflow(f"1F1({a!r}; {b!r}; {z!r}) exceeds double range") from None
    val = t1 + t2
    mag = max(abs(val), 1e-300)
    err = (abs(t1) * e1 + abs(t2) * e2) / mag + 5e-16 * max(abs(t1), abs(t2)) / mag
    return val, err


def hyp1f1(a, b, z) -> complex:
    """Confluent hypergeometric function ₁F₁(a; b; z) = F(a, b, z).

    Parameters
    ----------
    a, b, z : complex
        Series parameters and argument; b must not be a non-positive
        integer.

    Returns
    -------
    complex
        F(a; b; z), with relative accuracy ≤ 1e-10 for |z| ≤ 50.

    Raises
    ------
    ParameterPole
        If b is (within 1e-12 of) a non-positive integer.
    NoConvergence
        If neither the series nor the asymptotic branch meets tolerance.
    Overflow
        If F(a; b; z) exceeds the double-precision range.

    Notes
    -----
    The Taylor series is used for |z| ≤ 30 (terminating when three
    consecutive terms fall below 1e-16 of the running sum, 1e5-term cap)
    and upgrades itself to arbitrary precision when cancellation eats the
    double-precision budget.  Above the switch radius the large-|z|
    expansion is used whenever its optimal-truncation estimate passes,
    with the series as a cost-bounded rescue.  When a or b − a is a
    non-positive integer (F a polynomial, or e^z times one), the
    expansion would take log Γ at a pole, and the series is used.
    """
    a = _require_finite_complex(a, "a")
    b = _require_finite_complex(b, "b")
    z = _require_finite_complex(z, "z")
    if _is_nonpositive_int(b):
        raise ParameterPole(f"hyp1f1 undefined for b = {b!r} (non-positive integer)")

    if (abs(z) > _SWITCH_RADIUS
            and not (_is_nonpositive_int(a) or _is_nonpositive_int(b - a))):
        val, err = _asymptotic_eval(a, b, z)
        beyond_rescue = abs(z) > _RESCUE_RADIUS
        # Beyond the rescue radius, best effort up to 1e-6: near zeros of F
        # the relative estimate is dominated by benign cancellation.
        if err <= _ASYM_ACCEPT or (beyond_rescue and err <= 1e-6):
            return val
        if beyond_rescue:
            raise NoConvergence(
                f"1F1 asymptotic error estimate {err:.2e} too large at "
                f"a={a!r}, b={b!r}, z={z!r}"
            )
    return _series(a, b, z)


def hyp2f1_terminating(n: int, b: float, c: float, x: float) -> float:
    """Terminating Gauss series ₂F₁(−n, b; c; x), a polynomial of degree n.

    Parameters
    ----------
    n : int
        Non-negative polynomial degree.
    b, c : float
        Remaining parameters; for n > 0, c must not be a non-positive
        integer.
    x : float
        Argument in [0, 1].

    Returns
    -------
    float
        The polynomial value from ``scipy.special.hyp2f1``, which keeps
        the angular levels within the module contract where a
        term-by-term sum loses them to cancellation.

    Raises
    ------
    NoConvergence
        If scipy returns inf or NaN, as it does at very large n.
    """
    n = check_index(n, "n")
    b = check_finite(b, "b")
    c = check_finite(c, "c")
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"x must lie in [0, 1], got {x!r}")
    if n > 0 and _is_nonpositive_int(c):
        raise ParameterPole(f"hyp2f1_terminating: c = {c!r} is a non-positive integer")
    val = cython_special.hyp2f1(-n, b, c, float(x))  # its dispatch takes no int x
    if not math.isfinite(val):
        raise NoConvergence(f"hyp2f1_terminating({n!r}, {b!r}, {c!r}, {x!r}) came out {val!r}")
    return val


def dawson(x: float) -> float:
    """Dawson function F(x) = e^(−x²) ∫₀ˣ e^(t²) dt."""
    x = check_finite(x, "x")
    return cython_special.dawsn(x)


def erfi(x: float) -> float:
    """Imaginary error function Erfi(x) = (2/√π) ∫₀ˣ e^(t²) dt.

    Raises
    ------
    Overflow
        When e^(x²) exceeds the double-precision range; the error message
        carries the sign of the would-be infinity (Erfi is odd).
    """
    x = check_finite(x, "x")
    val = cython_special.erfi(x)
    if not math.isfinite(val):  # scipy returns ±inf from |x| ≈ 26.642
        sign = "+" if x > 0 else "-"
        raise Overflow(f"erfi({x!r}) overflows double range (sign {sign})")
    return val
