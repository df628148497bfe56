"""Bound-state energies from the Gamma-pole condition.

The poles of Γ(ℓ + 1/2 − iη) continued below threshold give the
quantization condition

    (2n_r + 1 + 2ℓ)·√(M² − E²) = 2(E + M)·δ,

solved in closed form by E = M(Λ² − 4δ²)/(Λ² + 4δ²) with
Λ = 2n_r + 1 + 2ℓ.  A bisection solver (``scipy.optimize.bisect``) is
shipped alongside the closed form so the two can be confronted in tests.
"""

import math
from dataclasses import dataclass

from ._lazy import lazy_module
from .errors import DomainError, NoRoot, check_index, check_positive

__all__ = [
    "BoundLevel",
    "energy_equation_residual",
    "bound_energy",
    "bound_energy_bisection",
    "nonrel_energy",
    "bound_level",
]

scipy = lazy_module("scipy")


@dataclass(frozen=True)
class BoundLevel:
    n_r: int
    ell: int
    energy: float
    nonrel_energy: float


def _check_quantum_numbers(n_r, ell):
    return check_index(n_r, "n_r"), check_index(ell, "ell")


def _check_mass_coupling(M, coupling_delta):
    return check_positive(M, "mass"), check_positive(coupling_delta, "coupling_delta")


def _residual(E, M, coupling_delta, lam):
    return lam * math.sqrt(M * M - E * E) - 2.0 * (E + M) * coupling_delta


def energy_equation_residual(E: float, M: float, coupling_delta: float,
                             n_r: int, ell: int) -> float:
    """Residual (2n_r+1+2ℓ)√(M²−E²) − 2(E+M)δ of the pole condition.

    Vanishes exactly at a bound level.  Defined for |E| < M only.
    """
    n_r, ell = _check_quantum_numbers(n_r, ell)
    M, coupling_delta = _check_mass_coupling(M, coupling_delta)
    E = float(E)
    if not abs(E) < M:
        raise DomainError(f"bound energies satisfy |E| < M, got E = {E!r}")
    return _residual(E, M, coupling_delta, 2 * n_r + 1 + 2 * ell)


def bound_energy(M: float, coupling_delta: float, n_r: int, ell: int) -> float:
    """Closed-form level E = M(Λ² − 4δ²)/(Λ² + 4δ²), Λ = 2n_r + 1 + 2ℓ."""
    n_r, ell = _check_quantum_numbers(n_r, ell)
    M, coupling_delta = _check_mass_coupling(M, coupling_delta)
    lam = 2 * n_r + 1 + 2 * ell
    d2 = 4.0 * coupling_delta * coupling_delta
    if d2 == math.inf:
        # δ ≳ 6.7e153: the same ratio as (t − 1)/(t + 1), t = (Λ/2δ)² → 0
        t = (lam / (2.0 * coupling_delta)) ** 2
        return M * ((t - 1.0) / (t + 1.0))
    # the ratio first: M·(Λ² − 4δ²) alone overflows near the top of double range
    return M * ((lam * lam - d2) / (lam * lam + d2))


def bound_energy_bisection(M: float, coupling_delta: float, n_r: int, ell: int) -> float:
    """Root of the pole-condition residual by bisection on (−M, M).

    The residual is M times its value at mass 1 and ε = E/M, so the
    bisection runs in ε and returns M·ε; M² never forms, and the root is
    found for any M in double range.  In ε the residual touches zero at
    ε = −1, rises to a positive maximum at ε = −2δ/√(Λ²+4δ²), and
    decreases through the physical root to a negative value at ε = 1;
    bisecting to the right of the maximum brackets exactly one sign
    change.
    """
    n_r, ell = _check_quantum_numbers(n_r, ell)
    M, coupling_delta = _check_mass_coupling(M, coupling_delta)
    lam = 2 * n_r + 1 + 2 * ell
    lo = -2.0 * coupling_delta / math.hypot(lam, 2.0 * coupling_delta)
    hi = 1.0 - 1e-13
    flo = _residual(lo, 1.0, coupling_delta, lam)
    fhi = _residual(hi, 1.0, coupling_delta, lam)
    if not (flo > 0.0 > fhi):
        raise NoRoot(
            f"residual does not change sign on E/M in [{lo!r}, {hi!r}] "
            f"(f(lo) = {flo!r}, f(hi) = {fhi!r}); coupling too weak to bracket"
        )
    return M * scipy.optimize.bisect(_residual, lo, hi, args=(1.0, coupling_delta, lam),
                                     xtol=1e-15)


def nonrel_energy(M: float, coupling_delta: float, n: int, ell: int) -> float:
    """Nonrelativistic limit E_nℓ = −8Mδ²/(2n + 2ℓ + 1)².

    This is what expanding the closed form with E + M ≈ 2M actually
    yields (the Coulomb-like spectrum in the half-odd-integer principal
    index Λ = 2n + 2ℓ + 1).
    """
    n, ell = _check_quantum_numbers(n, ell)
    M, coupling_delta = _check_mass_coupling(M, coupling_delta)
    lam = 2 * n + 1 + 2 * ell
    # dividing before multiplying by M keeps every level that double
    # precision can hold; 8M·δ² alone overflows near the top of double range
    ratio = coupling_delta / lam
    return M * (-8.0 * ratio * ratio)


def bound_level(M: float, coupling_delta: float, n_r: int, ell: int) -> BoundLevel:
    """Assemble a BoundLevel with both the exact and limiting energies."""
    energy = bound_energy(M, coupling_delta, n_r, ell)  # validates
    return BoundLevel(
        n_r=int(n_r),
        ell=int(ell),
        energy=energy,
        nonrel_energy=nonrel_energy(M, coupling_delta, n_r, ell),
    )
