"""High-temperature thermodynamics of the bound spectrum.

In the high-temperature regime the partition sum over the principal
index is replaced by an integral, giving

    Z(β) = τ·√π·Erfi(x) / (2·√β),        x = (ξ/τ)·√β,

from which internal energy, specific heat, free energy and entropy all
follow by differentiating ln Z.  Every derived quantity is expressed
through the ratio φ(x) = x/D(x) with D the Dawson integral, which keeps
the formulas in ratio form and free of the e^{x²} growth of Erfi; the
log-partition function itself is offered separately for the regime
where Z overflows a double.

Accuracy contract
-----------------
Against the closed forms evaluated with mpmath's ``erfi`` at 40 digits,
D(x) = (√π/2)·e^{−x²}·Erfi(x), for 1e-3 ≤ β ≤ 1e3, 0.1 ≤ τ ≤ 10 and
1e-6 ≤ |x| ≤ 1e4, with x > 0 where ln Z enters:

partition_function
    ≤ 1e-12 relative; Overflow where Z leaves double range.
log_partition_function, free_energy, entropy
    ≤ 1e-13·max(1, |ln Z|), times 1/β for F and k for S; Overflow where
    ln Z leaves double range (from x ≈ 1.34e154).  S = k(ln Z + βU) is a
    difference of two terms of size ~x², so its error relative to S itself
    grows as x².
mean_energy
    ≤ 1e-14 relative.
specific_heat
    ≤ 7e-13 relative below |x| = 6, the worst just below it, where C is
    conditioned as ~x⁴ on D(x) and D's own rounding sets the error;
    ≤ 5e-13 for 6 ≤ |x| < 7, where the large-|x| series of D takes over;
    ≤ 2e-15 from |x| = 7.

Z and ln Z share one core, ln|Z| = x² + ln|D(x)| + ln τ − ½ ln β with
the logs taken apart, so Z is returned wherever it is a double.  U and C
share another: below |x| = 0.45, where 1 − φ and (1 − φ)/2 + xφ′/4
cancel, one table of the Taylor coefficients of 1 − φ in x²; then the
closed forms in D(x); and from |x| = 6 C takes the large-|x| series of D.
"""

import math
from dataclasses import dataclass, field

from .errors import DomainError, Overflow, check_finite, check_index, check_positive
from .special import dawson

__all__ = [
    "ThermoState",
    "partition_function",
    "log_partition_function",
    "partition_sum",
    "mean_energy",
    "specific_heat",
    "free_energy",
    "entropy",
]

# ln of the largest double: Z leaves double range past this ln Z
_LOG_MAX = 709.782712893384
# below this |x| U and C are summed from the Taylor series of 1 − x/D(x)
_SERIES_X = 0.45
# (c_n, c_n(1 − n)/2) for n = 14 down to 1, for Horner's rule in x²: c_n is the
# coefficient of x^(2n) in 1 − x/D(x), the exact rational from the reciprocal
# of D(x)/x = Σ (−2x²)^n/(2n+1)!!, and C/k = Σ c_n(1 − n)/2·x^(2n).  At
# |x| = 0.45 the last term is 1e-17 of the first (the series converges for
# |x| < 2.37, the first complex zero of D).
_TAYLOR = tuple((c, c * (1 - n) / 2) for n, c in reversed(list(enumerate((
    -2/3, -8/45, -16/945, 32/14175, 64/93555, -2944/638512875, -5888/273648375,
    -80384/44405668125, 99380224/194896477400625, 3306665984/32157918771103125,
    -1358606336/201717854109646875, -11619401703424/3028793579456347828125,
    -93731667968/698952364489926421875, 61221304303616/564653660170076273671875), 1))))
# from this |x| the specific heat takes the large-|x| series of D: measured
# against 50-digit mpmath it is 3.3e-13 relative at 6, where the closed form is
# 6.5e-13, and below 1e-15 past 7, where the closed form's error grows as x⁴
_ASYMPTOTIC_X = 6.0


@dataclass(frozen=True)
class ThermoState:
    """Inverse temperature β and the spectral parameters (ξ, τ).

    ``tau`` sets the density of the continuum approximation of the level
    index and ``xi`` its offset; ``boltzmann_k`` only rescales entropy
    and specific heat.
    """

    beta: float
    xi: float
    tau: float
    boltzmann_k: float = field(default=1.0)

    def __post_init__(self):
        check_positive(self.beta, "beta")
        check_positive(self.tau, "tau")
        check_finite(self.xi, "xi")
        check_positive(self.boltzmann_k, "boltzmann_k")

    @property
    def x(self) -> float:
        """Scaling variable x = (ξ/τ)·√β all quantities depend on."""
        return (self.xi / self.tau) * math.sqrt(self.beta)


def _log_z(state: ThermoState):
    """(D(x), ln|Z|) with ln|Z| = x² + ln|D(x)| + ln τ − ½ ln β.

    The logs are taken apart, so that no factor under- or overflows on its
    own; ln|Z| is −inf where D(x) = 0.  Raises Overflow where ln|Z| itself
    leaves double range.
    """
    x = state.x
    d = dawson(x)
    if d == 0.0:
        return d, -math.inf
    ln_z = x * x + math.log(abs(d)) + math.log(state.tau) - 0.5 * math.log(state.beta)
    if not math.isfinite(ln_z):
        raise Overflow(f"ln Z overflows double range at x = {x!r}")
    return d, ln_z


def partition_function(state: ThermoState) -> float:
    """Continuum partition function Z = τ√π·Erfi(x)/(2√β) = τ·e^(x²)·D(x)/√β.

    Taken as sign(D)·e^(ln|Z|), so Z stays finite wherever it is a double,
    also where e^(x²) alone is not.  Raises Overflow where Z itself leaves
    double range; use log_partition_function in that regime.
    """
    d, ln_z = _log_z(state)
    if ln_z > _LOG_MAX:
        raise Overflow(
            f"partition function overflows double range at x = {state.x!r}; "
            "use log_partition_function"
        )
    return math.copysign(math.exp(ln_z), d)


def log_partition_function(state: ThermoState) -> float:
    """ln Z, evaluated in log space, so it stays finite where Z overflows.

    Requires Z > 0, i.e. x > 0 (DomainError otherwise, since ln of a
    non-positive partition function is meaningless).  Raises Overflow where
    ln Z itself leaves double range.
    """
    x = state.x
    if x <= 0.0:
        raise DomainError(
            f"partition function is non-positive at x = {x!r}; ln Z undefined"
        )
    return _log_z(state)[1]


def partition_sum(state: ThermoState, n_max: int) -> float:
    """Direct spectral sum Σ_{n=0}^{n_max} exp(((n − ξ)√β/τ)²).

    The discrete counterpart of partition_function; agreement of the two
    is a consistency check on the continuum approximation.  Raises
    Overflow when any term exceeds double range.
    """
    n_max = check_index(n_max, "n_max")
    sb = math.sqrt(state.beta) / state.tau
    total = 0.0
    for n in range(n_max + 1):
        arg = (n - state.xi) * sb
        expo = arg * arg
        if expo > 709.0:
            raise Overflow(
                f"partition sum term n = {n} has exponent {expo!r} > 709; "
                "sum overflows double range"
            )
        total += math.exp(expo)
    return total


def _energy_and_heat(x: float):
    """(u, C/k) with u = 1 − φ, φ = x/D(x), and C/k = (1 − φ)/2 + xφ′/4.

    C/k is meant for |x| < 6: from there specific_heat takes the large-|x|
    series, so mean_energy does not pay for it.
    """
    if abs(x) < _SERIES_X:
        # both cancel totally at x = 0; the series keeps relative accuracy
        t = x * x
        u = cv = 0.0
        for cu, cc in _TAYLOR:
            u, cv = u * t + cu, cv * t + cc
        return u * t, cv * t
    d = dawson(x)
    u = 1.0 - x / d
    # φ' = (D − x·D')/D² with D' = 1 − 2xD
    return u, 0.5 * u + 0.25 * x * ((d - x + 2.0 * x * x * d) / (d * d))


def mean_energy(state: ThermoState) -> float:
    """Internal energy U = −∂_β ln Z = (1/2β)·(1 − x/D(x)).

    Tends to −ξ²/(3τ²) as β → 0 and to the ground level as β grows.
    Written through the Dawson ratio, so it is safe for arbitrarily
    large x even when Z itself overflows.
    """
    return _energy_and_heat(state.x)[0] / (2.0 * state.beta)


def specific_heat(state: ThermoState) -> float:
    """Heat capacity C = −k β² ∂U/∂β = k[(1 − φ)/2 + x φ'(x)/4].

    Vanishes ∝ β² as β → 0 (the leading (4/45)x⁴ term of the series)
    and approaches k from above as x → ∞.
    """
    x = state.x
    cv = _large_x_heat(x) if abs(x) >= _ASYMPTOTIC_X else _energy_and_heat(x)[1]
    return state.boltzmann_k * cv


def _large_x_heat(x: float) -> float:
    """C/k for |x| ≥ 6 from the large-x series of the Dawson integral.

    With R = Σ_{n≥1} (2n+1)!!/(2x²)ⁿ, E = 1 − 2xD = −(1 + R)/(2x²) and
    D = (1 − E)/(2x), C/k = [(1 − E)²/(2x²) + (R + E)/2]/(4D²), which is
    (1 − φ)/2 + xφ′/4 without its ½ − ½ cancellation.  In s = 1/(2x²) and
    T = R/s = Σ_{n≥1} (2n+1)!! s^(n−1) it reads ½ + (T(1 − s) − 1)/(4(1 − E)²),
    which stays finite where x² overflows (s = 0 gives C = k).  The series
    diverges; it is cut at its smallest term, about e^(−x²), or where a
    term would round away.
    """
    s = 0.5 / (x * x)
    term = total = 3.0
    n = 1
    while True:
        nxt = term * (2 * n + 3) * s
        if nxt >= term or nxt <= 2.0 ** -54 * total:
            break
        term = nxt
        total += term
        n += 1
    e = -s * (1.0 + s * total)
    return 0.5 + (total * (1.0 - s) - 1.0) / (4.0 * (1.0 - e) ** 2)


def free_energy(state: ThermoState) -> float:
    """Helmholtz free energy F = −(1/β)·ln Z (log-space evaluation)."""
    return -log_partition_function(state) / state.beta


def entropy(state: ThermoState) -> float:
    """Entropy S = k(ln Z + βU); satisfies F = U − TS identically."""
    return state.boltzmann_k * (
        log_partition_function(state) + state.beta * mean_energy(state)
    )
