"""Special functions: complex log-Gamma, confluent hypergeometric ₁F₁,
terminating Gauss ₂F₁, and the Dawson function.

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
    Past |z| = 50 the expansion also passes when its absolute error
    estimate is ≤ 1e-12 of its larger Poincaré term, so near a zero of F
    the error is bounded by the envelope of F rather than by |F|.
hyp2f1_terminating
    scipy's ``hyp2f1`` at a = −n, for c ≥ ½ only (DomainError below:
    there scipy loses up to 1e-7 relative, and the angular levels, its
    one use, have c = χ + ½ ≥ ½); on the angular levels
    (sin q)^χ (cos q)^λ ₂F₁(−n, χ+λ+n; χ+½; sin²q) the error is
    ≤ 1e-12 of the level's peak for n ≤ 30.
dawson
    relative accuracy ≤ 1e-12 for |x| ≤ 20.

Scalar entry points
-------------------
``log_gamma``, ``hyp2f1_terminating`` and ``dawson`` call
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

High-precision rescue
---------------------
Where the double-precision Kummer series cancels, it is summed again in
mpmath with 25 digits more than the measured cancellation, re-running at
more digits if the first run lost more than it was given.  Each term is
t·((a + n)·z)/((b + n)(n + 1)), one division per term, and a real b (as
for every radial wave) is held as a real mpf, so that division is
complex by real; the stop tolerance 10^(−dps) is formed once per
precision.

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
]

cython_special = lazy_module("scipy.special.cython_special")

_POLE_TOL = 1e-12

# ₁F₁ evaluation policy.
_SWITCH_RADIUS = 30.0     # series below, asymptotic above
_MAX_TERMS = 100_000      # hard series cap
_SERIES_RTOL = 1e-13      # internal series accuracy target
_ASYM_ACCEPT = 1e-12      # accept asymptotic when claimed error is below this
_CONTRACT_RADIUS = 50.0   # past this, the expansion may also pass on its scale
_RESCUE_RADIUS = 700.0    # run the high-precision series rescue up to here


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
            am, zm = mpmath.mpc(a), mpmath.mpc(z)
            # a real b (2ℓ + 1 for every radial wave) stays an mpf, so each
            # term takes one complex-by-real division
            bm = mpmath.mpf(b.real) if b.imag == 0.0 else mpmath.mpc(b)
            tol = mpmath.mpf(10) ** (-dps)
            term = mpmath.mpc(1)
            total = mpmath.mpc(1)
            peak = mpmath.mpf(1)
            below = 0
            n = 0
            while n < _MAX_TERMS:
                term = term * ((am + n) * zm) / ((bm + n) * (n + 1))
                total += term
                at = abs(term)
                if at > peak:
                    peak = at
                n += 1
                if at <= tol * abs(total):
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
    overflow or cancellation eats the double budget.
    """
    val, peak = _series_f64(a, b, z)
    if math.isinf(peak):
        dps = int(0.4343 * abs(z)) + 35
    elif peak * 2.2e-16 / max(abs(val), 1e-300) <= _SERIES_RTOL:
        return val
    else:
        dps = int(math.log10(peak)) + 30  # peak ≥ 1, the first term
    val = _series_mp(a, b, z, dps)
    if not cmath.isfinite(val):
        raise Overflow(f"1F1({a!r}; {b!r}; {z!r}) exceeds double range")
    return val


def _asym_sum(p: complex, q: complex, w: complex):
    """Σ (p)_n (q)_n / (n! wⁿ) truncated at its smallest term.

    Returns (sum, min_term/|sum|) — the second entry is the standard
    optimal-truncation error estimate for this divergent series.  With
    large parameters the terms first rise (in the Coulomb case while
    ℓ ≳ √(2kr)); the sum runs through the rise, stops at the smallest term
    after the fall, and adds the rise's rounding, 2.2e-16 of its largest
    term, to the estimate.  A rise that leaves double range, or does not
    turn within the term cap, returns (1, 1.0): a rejected estimate.
    """
    term = complex(1.0)
    total = complex(1.0)
    at = 1.0  # |term|, carried from one step to the next
    n = 0
    while True:
        nxt = term * (p + n) * (q + n) / ((n + 1) * w)
        a_nxt = abs(nxt)
        if a_nxt < at:
            break
        if n == 499 or not a_nxt < math.inf:  # also catches NaN
            return complex(1.0), 1.0
        term, at = nxt, a_nxt
        total += term
        n += 1
    peak = at  # the largest term, 1.0 when the terms fall from the first
    min_ratio = 1.0
    while a_nxt < at:
        term, at = nxt, a_nxt
        total += term
        n += 1
        mag = abs(total)
        ratio = at / (mag if mag > 1e-300 else 1e-300)
        if ratio < min_ratio:
            min_ratio = ratio
        if ratio <= 1e-17 or n == 500:
            break
        nxt = term * (p + n) * (q + n) / ((n + 1) * w)
        a_nxt = abs(nxt)
    if peak > 1.0:
        mag = abs(total)
        min_ratio += min(1.0, 2.2e-16 * peak / (mag if mag > 1e-300 else 1e-300))
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

    Returns (value, abs_err, scale): t1 + t2, the optimal-truncation
    error estimate |t1|·e1 + |t2|·e2 plus 5e-16·scale of rounding, and
    scale = max(|t1|, |t2|), the size of the larger Poincaré term.
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
    scale = max(abs(t1), abs(t2))
    return t1 + t2, abs(t1) * e1 + abs(t2) * e2 + 5e-16 * scale, scale


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
    double-precision budget (see "High-precision rescue" in the module
    docstring).  Above the switch radius the large-|z| expansion is used
    when its optimal-truncation estimate is ≤ 1e-12 of |F|, or, past
    |z| = 50, ≤ 1e-12 of its larger Poincaré term: near a zero of F the
    first test fails on benign cancellation, and the rescue would take
    hundreds of digits for an error already bounded by the envelope.
    The expansion's series are summed through an initial rise of their
    terms (in the Coulomb case from ℓ ≈ √(2kr)) to the smallest term
    after it.  Otherwise the series is the rescue up to |z| = 700, and
    beyond that NoConvergence is raised.  When a or b − a is a non-positive integer
    (F a polynomial, or e^z times one), the expansion would take log Γ at
    a pole, and the series is used.
    """
    a = _require_finite_complex(a, "a")
    b = _require_finite_complex(b, "b")
    z = _require_finite_complex(z, "z")
    if _is_nonpositive_int(b):
        raise ParameterPole(f"hyp1f1 undefined for b = {b!r} (non-positive integer)")

    if (abs(z) > _SWITCH_RADIUS
            and not (_is_nonpositive_int(a) or _is_nonpositive_int(b - a))):
        val, abs_err, scale = _asymptotic_eval(a, b, z)
        if (abs_err <= _ASYM_ACCEPT * max(abs(val), 1e-300)
                or (abs(z) > _CONTRACT_RADIUS and abs_err <= _ASYM_ACCEPT * scale)):
            return val
        if abs(z) > _RESCUE_RADIUS:
            raise NoConvergence(
                f"1F1 asymptotic error estimate {abs_err:.2e} (scale {scale:.2e}) too "
                f"large at a={a!r}, b={b!r}, z={z!r}"
            )
    return _series(a, b, z)


def hyp2f1_terminating(n: int, b: float, c: float, x: float) -> float:
    """Terminating Gauss series ₂F₁(−n, b; c; x), a polynomial of degree n.

    Parameters
    ----------
    n : int
        Non-negative polynomial degree.
    b, c : float
        Remaining parameters, finite, with c ≥ ½.
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
    DomainError
        If c < ½, outside the stated contract.
    NoConvergence
        If scipy returns inf or NaN, as it does at very large n.
    """
    n = check_index(n, "n")
    b = check_finite(b, "b")
    c = check_finite(c, "c")
    if c < 0.5:
        raise DomainError(f"hyp2f1_terminating needs c >= 1/2, got {c!r}")
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"x must lie in [0, 1], got {x!r}")
    val = cython_special.hyp2f1(-n, b, c, float(x))  # its dispatch takes no int x
    if not math.isfinite(val):
        raise NoConvergence(f"hyp2f1_terminating({n!r}, {b!r}, {c!r}, {x!r}) came out {val!r}")
    return val


def dawson(x: float) -> float:
    """Dawson function F(x) = e^(−x²) ∫₀ˣ e^(t²) dt."""
    x = check_finite(x, "x")
    return cython_special.dawsn(x)

