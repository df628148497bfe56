"""High-temperature thermodynamics of the bound spectrum.

In the high-temperature regime the partition sum over the principal
index is replaced by an integral, giving

    Z(β) = τ·√π·Erfi(x) / (2·√β),        x = (ξ/τ)·√β,

from which internal energy, specific heat, free energy and entropy all
follow by differentiating ln Z.  None is formed from Erfi itself, which
grows as e^{x²}: ln Z and S are taken in log space through the Dawson integral
D(x) = (√π/2)·e^{−x²}·Erfi(x), and U and C through the ratio φ(x) = x/D(x),
or through a series where φ cancels or overflows.  The log-partition
function is offered separately for the regime where Z overflows a double.

Accuracy contract
-----------------
Against the closed forms evaluated with mpmath's ``erfi`` at 40 digits,
for 1e-3 ≤ β ≤ 1e3, 0.1 ≤ τ ≤ 10 and 1e-6 ≤ |x| ≤ 1e4, with x > 0 where
ln Z enters:

partition_function
    ≤ 1e-12 relative; Overflow where Z leaves double range.
log_partition_function, free_energy, entropy
    ≤ 1e-13·max(1, |ln Z|), times 1/β for F and k for S; Overflow where
    ln Z leaves double range (from x ≈ 1.34e154).  From x = 6, where ln Z
    and βU are both of size x², S is ≤ 1e-14·max(1, |S|) up to x = 1e153.
mean_energy
    ≤ 1e-14 relative.
specific_heat
    ≤ 7e-13 relative below |x| = 6, the worst just below it, where C is
    conditioned as ~x⁴ on D(x) and D's own rounding sets the error;
    ≤ 5e-13 for 6 ≤ |x| < 7, where the large-|x| series of D takes over;
    ≤ 2e-15 from |x| = 7.

At the ends of double range every function returns a finite value or raises
Overflow.  x is formed without ξ/τ where that ratio alone would leave the
normal range.  Where x underflows, Z = ξ·e^{x²}·D(x)/x is ξ.  Z, ln Z, U
and F raise Overflow where they, or x, leave double range, and k·C and k·S
where the Boltzmann constant takes them out of it; C/k tends to 1.

Every quantity comes from one core, ``_core``, which evaluates D(x) once
(``dawson``, at every x that does not underflow) and picks the regime once:
below |x| = 0.45, where 1 − φ and (1 − φ)/2 + xφ′/4 cancel, one table of
the Taylor coefficients of 1 − φ in x², with U = (ξ/τ)²·S(x²)/2 so that no
x² is divided by β; then the closed forms in D(x); and from |x| = 6 the
large-|x| series of D, E = 1 − 2xD, in which U = 1/(2β) − (ξ/τ)²/(1 − E)
stays finite where φ overflows (|x| ≳ 9.5e153).  ln|Z| = x² + ln|D| + ln τ
− ½ ln β takes the logs apart, so Z is returned wherever it is a double.
S/k = σ + ln|D| + ln τ − ½ ln β, where each regime forms σ = x² + βU with
no x² left to cancel: t(1 + u/2) from the Taylor table, with t = x² and u
its sum for 1 − φ; x² + (1 − φ)/2 from the closed form; and
½ + ½(1 + sT)/(1 − E) from the series.  So S never goes through U or β, and is finite where U
overflows (β = 5e-324, x = 3).
"""

import math
import sys
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
# from this |x| U, C and S take the large-|x| series of D: measured against
# 50-digit mpmath C is 3.3e-13 relative at 6, where the closed form is 6.5e-13,
# and below 1e-15 past 7, where the closed form's error grows as x⁴
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
        # keep the checked floats, so that numpy scalars do not reach the formulas
        for name, check in (("beta", check_positive), ("tau", check_positive),
                            ("xi", check_finite), ("boltzmann_k", check_positive)):
            object.__setattr__(self, name, check(getattr(self, name), name))

    @property
    def x(self) -> float:
        """Scaling variable x = (ξ/τ)·√β all quantities depend on.

        Where ξ/τ alone would under- or overflow, x is formed from the
        mantissas and exponents of ξ and τ apart; it is ±inf where x itself
        leaves double range.
        """
        ratio = self.xi / self.tau
        if sys.float_info.min <= abs(ratio) < math.inf or self.xi == 0.0:
            return ratio * math.sqrt(self.beta)
        (m, e), (n, f) = math.frexp(self.xi), math.frexp(self.tau)
        try:
            return math.ldexp(m / n * math.sqrt(self.beta), e - f)
        except OverflowError:
            return math.copysign(math.inf, self.xi)


def _core(state: ThermoState):
    """(a number with the sign of Z, ln|Z|, U, C/k, S/k): the one core of every quantity.

    Evaluates D(x) once and picks the regime once (see the module notes).
    ln|Z| = x² + ln|D| + ln τ − ½ ln β and S/k = σ + ln|D| + ln τ − ½ ln β,
    where each regime forms σ = x² + βU with no x² left to cancel, so S
    never goes through U or β.  Where x underflows, Z = ξ·e^(x²)·D(x)/x is
    ξ to double precision and S/k = ln|ξ|.  ln|Z| and S/k are inf where x
    is, and U is ±inf or nan where it leaves double range; the callers raise.
    """
    x = state.x
    ratio = state.xi / state.tau
    if abs(x) < sys.float_info.min:
        xi = state.xi
        ln_z = math.log(abs(xi)) if xi else -math.inf
        # the Taylor table at x² = 0: U = (ξ/τ)²·c₁/2, C = 0
        return xi, ln_z, ratio * ratio * (-2 / 3) / 2.0, 0.0, ln_z
    d = dawson(x) if math.isfinite(x) else x  # ln|D| = inf where x is
    t = x * x
    if abs(x) < _SERIES_X:
        # U and C cancel totally at x = 0; the series keeps relative accuracy
        u = cv = 0.0
        for cu, cc in _TAYLOR:
            u, cv = u * t + cu, cv * t + cc
        energy, heat, sigma = ratio * ratio * u / 2.0, cv * t, t * (1.0 + u / 2.0)
    elif abs(x) < _ASYMPTOTIC_X:
        u = 1.0 - x / d
        # φ' = (D − x·D')/D² with D' = 1 − 2xD; u/2/β, as 2β overflows past β = 8.99e307
        energy, heat, sigma = (u / 2.0 / state.beta,
                               0.5 * u + 0.25 * x * ((d - x + 2.0 * t * d) / (d * d)),
                               t + u / 2.0)
    else:
        s, total, e = _large_x_series(x)
        energy = 0.5 / state.beta - ratio * ratio / (1.0 - e)
        heat = 0.5 + (total * (1.0 - s) - 1.0) / (4.0 * (1.0 - e) ** 2)
        sigma = 0.5 + 0.5 * (1.0 + s * total) / (1.0 - e)
    ln_d, ln_tau, ln_beta = math.log(abs(d)), math.log(state.tau), math.log(state.beta)
    return (d, t + ln_d + ln_tau - 0.5 * ln_beta, energy, heat,
            sigma + ln_d + ln_tau - 0.5 * ln_beta)


def _ln_z_core(state: ThermoState):
    """The core where ln Z enters: DomainError unless Z > 0, Overflow where ln Z
    leaves double range."""
    if state.xi <= 0.0:  # x has the sign of ξ, also where it underflows
        raise DomainError(
            f"partition function is non-positive at x = {state.x!r}; ln Z undefined"
        )
    core = _core(state)
    _in_range(core[1], "ln Z", state)
    return core


def _in_range(value: float, name: str, state: ThermoState) -> float:
    """``value``; Overflow where it is inf or nan, outside double range."""
    if not math.isfinite(value):
        raise Overflow(f"{name} leaves double range at {state!r}")
    return value


def partition_function(state: ThermoState) -> float:
    """Continuum partition function Z = τ√π·Erfi(x)/(2√β) = τ·e^(x²)·D(x)/√β.

    Taken as sign(D)·e^(ln|Z|), so Z stays finite wherever it is a double,
    also where e^(x²) alone is not, and as ξ where x underflows.  Raises
    Overflow where Z itself leaves double range; use log_partition_function
    in that regime.
    """
    d, ln_z = _core(state)[:2]
    if ln_z > _LOG_MAX:
        raise Overflow(
            f"partition function overflows double range at x = {state.x!r}; "
            "use log_partition_function"
        )
    if abs(state.x) < sys.float_info.min:
        return d  # ξ itself, which e^(ln|ξ|) would round
    return math.copysign(math.exp(ln_z), d)


def log_partition_function(state: ThermoState) -> float:
    """ln Z, evaluated in log space, so it stays finite where Z overflows.

    Requires Z > 0, i.e. x > 0 (DomainError otherwise, since ln of a
    non-positive partition function is meaningless).  Raises Overflow where
    ln Z itself leaves double range.
    """
    return _ln_z_core(state)[1]


def partition_sum(state: ThermoState, n_max: int) -> float:
    """Direct spectral sum Σ_{n=0}^{n_max} exp(((n − ξ)√β/τ)²).

    The discrete counterpart of partition_function; agreement of the two
    is a consistency check on the continuum approximation.  Raises
    Overflow where a term or the sum exceeds double range, or where
    √β/τ does.
    """
    n_max = check_index(n_max, "n_max")
    sb = math.sqrt(state.beta) / state.tau
    total = 0.0
    try:
        for n in range(n_max + 1):
            arg = (n - state.xi) * sb
            total += math.exp(arg * arg)
    except OverflowError:
        total = math.inf
    if not total < math.inf:  # also nan, where √β/τ overflows and meets n − ξ = 0
        raise Overflow(f"partition sum up to n = {n_max} leaves double range at {state!r}")
    return total


def mean_energy(state: ThermoState) -> float:
    """Internal energy U = −∂_β ln Z = (1/2β)·(1 − x/D(x)).

    Tends to −ξ²/(3τ²) as β → 0 and to the ground level as β grows.
    Written through the Dawson ratio or its series, so it is finite where
    Z itself overflows.  Raises Overflow where U leaves double range.
    """
    # nan where 1/(2β) and (ξ/τ)² both overflow
    return _in_range(_core(state)[2], "mean energy", state)


def specific_heat(state: ThermoState) -> float:
    """Heat capacity C = −k β² ∂U/∂β = k[(1 − φ)/2 + x φ'(x)/4].

    Vanishes ∝ β² as β → 0 (the leading (4/45)x⁴ term of the series)
    and approaches k from above as x → ∞.  Raises Overflow where k·C
    leaves double range.
    """
    return _in_range(state.boltzmann_k * _core(state)[3], "specific heat", state)


def _large_x_series(x: float):
    """(s, T, E) of the large-x series of the Dawson integral, for |x| ≥ 6.

    With s = 1/(2x²), R = Σ_{n≥1} (2n+1)!!/(2x²)ⁿ and T = R/s =
    Σ_{n≥1} (2n+1)!! s^(n−1), E = 1 − 2xD = −s(1 + R) and D = (1 − E)/(2x);
    s = 0 where x² overflows.  The series diverges; it is cut at its
    smallest term, about e^(−x²), or where a term would round away.
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
    return s, total, -s * (1.0 + s * total)


def free_energy(state: ThermoState) -> float:
    """Helmholtz free energy F = −(1/β)·ln Z (log-space evaluation).

    Raises Overflow where F leaves double range.
    """
    return _in_range(-log_partition_function(state) / state.beta, "free energy", state)


def entropy(state: ThermoState) -> float:
    """Entropy S = k(ln Z + βU); satisfies F = U − TS identically.

    Taken as k[σ + ln D + ln τ − ½ ln β], σ = x² + βU formed in each regime
    with no x² left to cancel, so it is finite where U or βU overflows.
    Has ln Z's DomainError and Overflow, and raises Overflow where k·S
    leaves double range.
    """
    return _in_range(state.boltzmann_k * _ln_z_core(state)[4], "entropy", state)
