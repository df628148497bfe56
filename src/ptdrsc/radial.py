"""Continuum radial solutions for the Coulomb-dominated radial equation.

The radial problem g″ + [k² + 2(M+E)δ/r − (ℓ² − 1/4)/r²] g = 0 admits the
exact regular solution

    g_{kℓ}(r) = A_{kℓ} (kr)^(ℓ+1/2) e^(ikr) ₁F₁(ℓ + 1/2 − iη; 2ℓ + 1; −2ikr),

real despite its complex building blocks.  On the k/2π scale the
asymptotic amplitude is exactly 2 and the phase shift is the argument of
Γ(ℓ + 1/2 − iη) with η = (M+E)δ/k.

Accuracy contract
-----------------
phase_shift
    error ≤ 2e-12 rad, taken after wrapping into (−π, π], for ℓ ≤ 3000
    and 0.01 ≤ η ≤ 200.
"""

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Optional

from .errors import (DomainError, Overflow, RealnessViolation, check_finite,
                     check_index, check_positive)
from .special import hyp1f1, log_gamma

__all__ = [
    "RelativisticContext",
    "PartialWave",
    "make_context",
    "phase_shift",
    "short_range_phase_shift",
    "normalization_constant",
    "log_normalization_constant",
    "partial_wave",
    "radial_wavefunction",
    "radial_wavefunction_with_derivative",
    "scattering_amplitude",
    "coulomb_cross_section",
]

_TWO_PI = 2.0 * math.pi
_REALNESS_TOL = 1e-8
_SMOOTHINGS = ("none", "abel", "cesaro")
# Largest |δ| for which 2δ, the argument of e^(2iδ), is still finite.
_MAX_PHASE = sys.float_info.max / 2.0
# Entries of the cos ℓθ matrix that scattering_amplitude holds at once.
_BLOCK_ELEMENTS = 2**20


@dataclass(frozen=True)
class RelativisticContext:
    """Scattering kinematics in natural units (ħ = c = 1).

    Attributes
    ----------
    mass : float
        Particle mass M > 0.
    energy : float
        Total energy E > M (continuum regime).
    coupling_delta : float
        Coulomb strength δ > 0 of the potential.
    wave_number : float
        k = √(E² − M²).
    sommerfeld : float
        η = (M + E)·δ/k, the strength parameter of the phase shifts.
    """

    mass: float
    energy: float
    coupling_delta: float
    wave_number: float
    sommerfeld: float


@dataclass(frozen=True)
class PartialWave:
    """One angular channel: phase shifts and normalization constant."""

    ell: int
    phase_shift: float
    short_range_shift: float
    norm_constant: float


def make_context(M: float, E: float, coupling_delta: float) -> RelativisticContext:
    """Build a scattering context, validating the continuum condition E > M.

    Raises
    ------
    DomainError
        If E ≤ M (bound regime — use the bound-state module), if E is
        not finite, or if the mass or coupling is not positive and finite.
    """
    M = check_positive(M, "mass")
    E = check_finite(E, "energy")
    coupling_delta = check_positive(coupling_delta, "coupling_delta")
    if not (E > M):
        raise DomainError(
            f"scattering requires energy > mass (got E = {E!r}, M = {M!r}); "
            "energies at or below the mass belong to the bound-state solver"
        )
    k = math.sqrt(E * E - M * M)
    eta = (M + E) * coupling_delta / k
    return RelativisticContext(M, E, coupling_delta, k, eta)


def phase_shift(ctx: RelativisticContext, ell: int) -> float:
    """Coulomb-like phase shift δ_ℓ = arg Γ(ℓ + 1/2 − iη), in (−π, π]."""
    ell = check_index(ell, "ell")
    raw = log_gamma(complex(ell + 0.5, -ctx.sommerfeld)).imag
    wrapped = (raw + math.pi) % _TWO_PI - math.pi
    if wrapped == -math.pi:
        wrapped = math.pi
    return wrapped


def short_range_phase_shift(ctx: RelativisticContext, ell: int,
                            ell_prime: Optional[int] = None) -> float:
    """Short-range shift δ′_ℓ = δ_ℓ + π(ℓ′ − ℓ + 1/2)/2, unreduced.

    ``ell_prime`` is the orbital index of the comparison-free wave and
    defaults to ``ell`` itself.
    """
    ell = check_index(ell, "ell")
    ell_prime = ell if ell_prime is None else check_index(ell_prime, "ell_prime")
    return phase_shift(ctx, ell) + math.pi * (ell_prime - ell + 0.5) / 2.0


def log_normalization_constant(ctx: RelativisticContext, ell: int) -> float:
    """ln A_{kℓ}; always representable, offered for large-η work."""
    ell = check_index(ell, "ell")
    eta = ctx.sommerfeld
    return (
        (ell + 0.5) * math.log(2.0)
        + log_gamma(complex(ell + 0.5, -eta)).real
        + 0.5 * math.pi * eta
        - log_gamma(complex(2 * ell + 1)).real
    )


def normalization_constant(ctx: RelativisticContext, ell: int) -> float:
    """k/2π-scale normalization A_{kℓ} = 2^(ℓ+1/2)|Γ(ℓ+1/2−iη)|e^(πη/2)/Γ(2ℓ+1).

    Raises
    ------
    Overflow
        When the exponential factor exceeds double range; callers needing
        that regime should use :func:`log_normalization_constant`.
    """
    ln_a = log_normalization_constant(ctx, ell)
    if ln_a > 709.0:
        raise Overflow(
            f"normalization constant exp({ln_a:.1f}) overflows; "
            "use log_normalization_constant instead"
        )
    return math.exp(ln_a)


def partial_wave(ctx: RelativisticContext, ell: int, ell_prime: int | None = None) -> PartialWave:
    """Assemble the PartialWave record for one channel (ℓ′ defaults to ℓ)."""
    ell = check_index(ell, "ell")
    lp = ell if ell_prime is None else check_index(ell_prime, "ell_prime")
    return PartialWave(
        ell=ell,
        phase_shift=phase_shift(ctx, ell),
        short_range_shift=short_range_phase_shift(ctx, ell, lp),
        norm_constant=normalization_constant(ctx, ell),
    )


def _regular_wave(ctx: RelativisticContext, ell: int, r: float, derivative: bool):
    """g_{kℓ}(r), and dg/dr from the ₁F₁ derivative if ``derivative``."""
    ell = check_index(ell, "ell")
    r = check_positive(r, "r")
    k = ctx.wave_number
    a = complex(ell + 0.5, -ctx.sommerfeld)
    b = complex(2 * ell + 1)
    z = complex(0.0, -2.0 * k * r)
    F = hyp1f1(a, b, z)
    ln_pre = log_normalization_constant(ctx, ell) + (ell + 0.5) * math.log(k * r)
    pre = cmath.exp(complex(ln_pre, k * r))
    g = pre * F
    # The normalized envelope is O(2); a pure ratio test would trip on
    # noise at the zeros of g, so the scale is floored at unity.
    scale = max(abs(g), 1.0)
    if abs(g.imag) > _REALNESS_TOL * scale:
        raise RealnessViolation(
            f"radial_wavefunction lost realness at r={r!r}, ell={ell}: "
            f"imag/scale = {abs(g.imag) / scale:.3e}"
        )
    if not derivative:
        return g.real
    Fp = (a / b) * hyp1f1(a + 1, b + 1, z)
    gp = pre * (((ell + 0.5) / r + 1j * k) * F - 2j * k * Fp)
    return g.real, gp.real


def radial_wavefunction(ctx: RelativisticContext, ell: int, r: float) -> float:
    """Normalized continuum radial function g_{kℓ}(r) on the k/2π scale.

    The analytic combination is exactly real; the implementation checks
    that the residual imaginary part is below 1e-8 of the local scale
    before discarding it.

    Raises
    ------
    DomainError
        If r ≤ 0.
    RealnessViolation
        If the imaginary residue is too large (a special-function bug).
    """
    return _regular_wave(ctx, ell, r, derivative=False)


def radial_wavefunction_with_derivative(
    ctx: RelativisticContext, ell: int, r: float
) -> tuple[float, float]:
    """g_{kℓ}(r) together with dg/dr (analytic, via the ₁F₁ derivative)."""
    return _regular_wave(ctx, ell, r, derivative=True)


def scattering_amplitude(
    phase_shifts,
    theta,
    k: float,
    smoothing: str = "abel",
):
    """Partial-wave amplitude f(θ) from channel phase shifts.

    Parameters
    ----------
    phase_shifts : sequence of float
        δ_ℓ for ℓ = 0 … L, each with |δ_ℓ| ≤ ``sys.float_info.max``/2;
        the sum runs over the symmetric integer index m ∈ [−L, L] with
        δ_m = δ_|m|.
    theta : float or 1-d array of float
        Scattering angle(s), each in (0, π].
    k : float
        Wave number (> 0), setting the 1/√(2πk) scale.
    smoothing : {"none", "abel", "cesaro"}
        Summation acceleration for the conditionally convergent sum.
        Abel damping uses w_ℓ = e^(−εℓ) with ε = 10/L, Cesàro
        w_ℓ = 1 − ℓ/(L + 1).

    Returns
    -------
    complex or ndarray of complex
        f(θ) = −(i/√(2πk)) Σ_m [e^(2iδ_m) − 1] e^(imθ) · w_|m|, summed as
        the half-sum −(i/√(2πk)) [s₀ + 2 Σ_{ℓ≥1} s_ℓ w_ℓ cos ℓθ] with
        s_ℓ = e^(2iδ_ℓ) − 1.  A scalar θ gives a complex, a 1-d array of
        angles an array of the same length.

    Raises
    ------
    DomainError
        At the forward singularity θ = 0 (or any θ outside (0, π]), for
        a θ array of more than one dimension, or for a phase shift that
        is not finite or so large that 2δ overflows.
    """
    # Imported here, its only user, so that importing ptdrsc loads no numpy.
    import numpy as np

    angles = np.asarray(theta, dtype=float)
    k = check_positive(k, "wave number")
    if angles.ndim > 1:
        raise DomainError(f"theta must be a scalar or a 1-d array, got shape {angles.shape}")
    if not ((angles > 0.0) & (angles <= math.pi)).all():
        raise DomainError(
            f"theta must lie in (0, pi]; the forward direction is singular (got {theta!r})"
        )
    if smoothing not in _SMOOTHINGS:
        raise DomainError(f"smoothing must be one of {_SMOOTHINGS}, got {smoothing!r}")
    deltas = np.asarray(phase_shifts, dtype=float)
    if deltas.ndim != 1 or deltas.size == 0:
        raise DomainError("phase_shifts must be a non-empty 1-d sequence")
    if not (np.abs(deltas) <= _MAX_PHASE).all():  # also rejects inf and NaN
        raise DomainError(f"phase_shifts must all be finite with |delta| <= {_MAX_PHASE!r}")
    L = deltas.size - 1
    ell = np.arange(L + 1)
    s = np.exp(2j * deltas) - 1.0
    if smoothing == "abel" and L > 0:
        w = np.exp(-(10.0 / L) * ell)
    elif smoothing == "cesaro" and L > 0:
        w = 1.0 - ell / (L + 1.0)
    else:
        w = np.ones(L + 1)
    terms = 2.0 * s[1:] * w[1:]
    flat = angles.reshape(-1)
    total = np.empty(flat.size, dtype=complex)
    # The cos ℓθ matrix is built for a block of angles at a time, so its
    # memory stays near _BLOCK_ELEMENTS floats for any number of angles.
    rows = max(1, _BLOCK_ELEMENTS // max(L, 1))
    for start in range(0, flat.size, rows):
        cosines = np.cos(np.multiply.outer(flat[start:start + rows], ell[1:]))
        # einsum sums each row alike whatever the number of rows (BLAS gemv
        # does not), so an array of angles gives the scalar calls' bits.
        real = np.einsum("ij,j->i", cosines, terms.real)
        imag = np.einsum("ij,j->i", cosines, terms.imag)
        total[start:start + rows] = s[0] + (real + 1j * imag)
    amplitude = -1j / math.sqrt(_TWO_PI * k) * total
    return complex(amplitude[0]) if angles.ndim == 0 else amplitude


def coulomb_cross_section(alpha: float, k: float, theta: float) -> float:
    """Closed-form point-Coulomb differential cross section.

    σ(θ) = α·tanh(πα) / (2k sin²(θ/2)), the analytic limit the
    partial-wave sum reproduces when fed phases arg Γ(|m|+1/2−iα).

    Raises
    ------
    Overflow
        When 2k·sin²(θ/2) underflows to 0 or σ exceeds double range.
    """
    alpha = check_finite(alpha, "alpha")
    k = check_positive(k, "wave number")
    theta = float(theta)
    if not (0.0 < theta <= math.pi):
        raise DomainError(f"theta must lie in (0, pi], got {theta!r}")
    s = math.sin(0.5 * theta)
    denominator = 2.0 * k * s * s
    sigma = alpha * math.tanh(math.pi * alpha) / denominator if denominator else math.inf
    if not math.isfinite(sigma):
        raise Overflow(
            f"Coulomb cross section at k = {k!r}, theta = {theta!r} exceeds double range"
        )
    return sigma
