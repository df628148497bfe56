"""The second route to the bound levels, kept beside the tests.

``ptdrsc.bound`` computes each level by its closed form only.  The tests
confront it with the pole condition itself: the residual
(2n_r + 1 + 2ℓ)√(M² − E²) − 2(E + M)δ, which vanishes at a level, and a
root of that residual found by ``scipy.optimize.bisect``.  Both check
their inputs by the package's rules, so a bad case fails loudly instead
of producing a wrong reference value.
"""

import math

import scipy.optimize

from ptdrsc.errors import DomainError, NoRoot, check_index, check_positive


def _check(M, coupling_delta, n_r, ell):
    return (check_positive(M, "mass"), check_positive(coupling_delta, "coupling_delta"),
            2 * check_index(n_r, "n_r") + 1 + 2 * check_index(ell, "ell"))


def _residual(E, M, coupling_delta, lam):
    return lam * math.sqrt(M * M - E * E) - 2.0 * (E + M) * coupling_delta


def energy_equation_residual(E: float, M: float, coupling_delta: float,
                             n_r: int, ell: int) -> float:
    """Residual (2n_r+1+2ℓ)√(M²−E²) − 2(E+M)δ of the pole condition.

    Vanishes exactly at a bound level.  Defined for |E| < M only.
    """
    M, coupling_delta, lam = _check(M, coupling_delta, n_r, ell)
    E = float(E)
    if not abs(E) < M:
        raise DomainError(f"bound energies satisfy |E| < M, got E = {E!r}")
    return _residual(E, M, coupling_delta, lam)


def bound_energy_bisection(M: float, coupling_delta: float, n_r: int, ell: int) -> float:
    """Root of the pole-condition residual by bisection on (−M, M).

    The residual is M times its value at mass 1 and ε = E/M, so the
    bisection runs in ε and returns M·ε; M² never forms, and the root is
    found for any M in double range.  In ε the residual touches zero at
    ε = −1, rises to a positive maximum at ε = −2δ/√(Λ²+4δ²), and
    decreases through the physical root to a negative value at ε = 1;
    bisecting to the right of the maximum brackets exactly one sign
    change.  Where δ/Λ is below about 1e-7 the root lies closer to ε = 1
    than the bracket's right end, and NoRoot is raised.
    """
    M, coupling_delta, lam = _check(M, coupling_delta, n_r, ell)
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
