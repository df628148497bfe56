"""Bound-state energies from the Gamma-pole condition.

The poles of Γ(ℓ + 1/2 − iη) continued below threshold give the
quantization condition

    (2n_r + 1 + 2ℓ)·√(M² − E²) = 2(E + M)·δ,

solved in closed form by E = M(Λ² − 4δ²)/(Λ² + 4δ²) with
Λ = 2n_r + 1 + 2ℓ.  The closed form is the only route here; the tests
confront it with the residual of the condition and a bisection root.

Accuracy contract
-----------------
Against the closed forms at 40 digits, for 1e-300 ≤ M ≤ 1e300,
1e-6 ≤ δ ≤ 1e6 and n_r, ℓ < 1e6:

bound_energy
    ≤ 1e-15·M absolute (the level passes through 0 where Λ = 2δ, so the
    bound is on the scale of M, not of E).
nonrel_energy
    ≤ 1e-15 relative wherever the level is a normal double.
"""

import math
from dataclasses import dataclass

from .errors import Overflow, check_index, check_positive

__all__ = [
    "BoundLevel",
    "bound_energy",
    "nonrel_energy",
    "bound_level",
]


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


def nonrel_energy(M: float, coupling_delta: float, n: int, ell: int) -> float:
    """Nonrelativistic limit E_nℓ = −8Mδ²/(2n + 2ℓ + 1)².

    This is what expanding the closed form with E + M ≈ 2M actually
    yields (the Coulomb-like spectrum in the half-odd-integer principal
    index Λ = 2n + 2ℓ + 1).  Raises Overflow where the level leaves
    double range.
    """
    n, ell = _check_quantum_numbers(n, ell)
    M, coupling_delta = _check_mass_coupling(M, coupling_delta)
    lam = 2 * n + 1 + 2 * ell
    # dividing before multiplying by M keeps the levels of a large M;
    # 8M·δ² alone overflows near the top of double range
    ratio = coupling_delta / lam
    energy = M * (-8.0 * ratio * ratio)
    if energy == -math.inf:
        # 8·ratio² alone overflows where a small M brings the level back
        energy = -8.0 * ((M * ratio) * ratio)
        if energy == -math.inf:
            raise Overflow(f"nonrelativistic level ({n}, {ell}) at M = {M!r}, "
                           f"delta = {coupling_delta!r} exceeds double range")
    return energy


def bound_level(M: float, coupling_delta: float, n_r: int, ell: int) -> BoundLevel:
    """Assemble a BoundLevel with both the exact and limiting energies."""
    energy = bound_energy(M, coupling_delta, n_r, ell)  # validates
    return BoundLevel(
        n_r=int(n_r),
        ell=int(ell),
        energy=energy,
        nonrel_energy=nonrel_energy(M, coupling_delta, n_r, ell),
    )
