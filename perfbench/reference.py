"""Independent references for the benchmark's output checks.

Everything here is computed apart from ptdrsc: mpmath at raised precision,
closed forms written out again, and defining properties (pole conditions,
ODE residuals, thermodynamic identities).  The only frozen data are the
angular norms in ``angular_reference.json``; regenerate them with

    python3 perfbench/reference.py

which recomputes each norm by mpmath quadrature at 40 digits.
"""

import json
import math
from pathlib import Path

import mpmath
import numpy as np

DPS = 30
ANGULAR_REFERENCE = Path(__file__).with_name("angular_reference.json")


def wrapped_difference(a: float, b: float) -> float:
    """|a − b| for two angles, measured around the circle."""
    return abs((a - b + math.pi) % (2.0 * math.pi) - math.pi)


def coulomb_g(ell: int, eta: float, kr: float) -> float:
    """g_{kℓ}(r) = 2·F_{ℓ−½}(−η, kr), the regular Coulomb wave."""
    with mpmath.workdps(DPS):
        return float(2 * mpmath.coulombf(ell - 0.5, -eta, kr))


def coulomb_g_dg(ell: int, eta: float, k: float, kr: float) -> tuple:
    """(g, dg/dr) from mpmath's Coulomb wave and its numerical derivative."""
    with mpmath.workdps(DPS):
        f = lambda x: mpmath.coulombf(ell - 0.5, -eta, x)  # noqa: E731
        return float(2 * f(kr)), float(2 * k * mpmath.diff(f, kr))


def phase(ell: int, eta: float) -> float:
    """arg Γ(ℓ + ½ − iη), wrapped to (−π, π]."""
    with mpmath.workdps(DPS):
        raw = mpmath.im(mpmath.loggamma(mpmath.mpc(ell + 0.5, -eta)))
        x = raw % (2 * mpmath.pi)
        if x > mpmath.pi:
            x -= 2 * mpmath.pi
        return float(x)


def coulomb_dcs(eta: float, k: float, theta: float) -> float:
    """Point-Coulomb cross section η·tanh(πη)/(2k·sin²(θ/2))."""
    s = math.sin(0.5 * theta)
    return eta * math.tanh(math.pi * eta) / (2.0 * k * s * s)


def abel_dcs(eta: float, k: float, lmax: int, thetas) -> np.ndarray:
    """|f(θ)|² from mpmath phases, summed in the folded cosine form.

    f = −i/√(2πk)·[s₀ + 2Σ_{ℓ≥1} s_ℓ cos ℓθ] with s_ℓ = (e^{2iδ_ℓ} − 1)e^{−10ℓ/L}.
    """
    with mpmath.workdps(DPS):
        deltas = np.array([
            float(mpmath.im(mpmath.loggamma(mpmath.mpc(ell + 0.5, -eta))))
            for ell in range(lmax + 1)
        ])
    ell = np.arange(lmax + 1)
    s = (np.exp(2j * deltas) - 1.0) * np.exp(-(10.0 / lmax) * ell)
    total = s[0] + 2.0 * (np.cos(np.outer(np.asarray(thetas), ell[1:])) @ s[1:])
    return np.abs(total) ** 2 / (2.0 * math.pi * k)


# --- angular levels -------------------------------------------------------

def polar_raw(q, chi, lam, n):
    s, c = mpmath.sin(q), mpmath.cos(q)
    return s ** chi * c ** lam * mpmath.hyp2f1(-n, chi + lam + n, chi + mpmath.mpf(1) / 2, s * s)


def degenerate_raw(q, lam, n):
    s, c = mpmath.sin(q), mpmath.cos(q)
    return c ** lam * mpmath.hyp2f1(-n, lam + n, mpmath.mpf(1) / 2, s * s)


def level_key(kind: str, chi: float, lam: float, n: int) -> str:
    return f"{kind}:{chi!r}:{lam!r}:{n}"


def level_raw(kind, chi, lam, n):
    if kind == "polar":
        return lambda q: polar_raw(q, mpmath.mpf(chi), mpmath.mpf(lam), n)
    return lambda q: degenerate_raw(q, mpmath.mpf(lam), n)


def load_angular_reference() -> dict:
    return json.loads(ANGULAR_REFERENCE.read_text())


def level_values(entry: dict, kind, chi, lam, n, qs) -> list:
    """Normalized level values at qs, from the frozen mpmath norm."""
    raw = level_raw(kind, chi, lam, n)
    with mpmath.workdps(DPS):
        amp = 1 / mpmath.sqrt(mpmath.mpf(entry["norm2"]))
        return [float(amp * raw(mpmath.mpf(q))) for q in qs]


def pt_residual(q, chi, lam, n, zeta, energy) -> float:
    """Relative residual of −½H″ + V·H − E·H at q for the (χ, λ) level."""
    with mpmath.workdps(DPS):
        h = lambda x: polar_raw(zeta * x, mpmath.mpf(chi), mpmath.mpf(lam), n)  # noqa: E731
        q = mpmath.mpf(q)
        s2, c2 = mpmath.sin(zeta * q) ** 2, mpmath.cos(zeta * q) ** 2
        v = zeta ** 2 / 2 * (chi * (chi - 1) / s2 + lam * (lam - 1) / c2)
        hq = h(q)
        res = -mpmath.diff(h, q, 2) / 2 + (v - energy) * hq
        return float(abs(res) / (abs(energy * hq) + abs(v * hq)))


# --- screened Rutherford, thermodynamics, bound states ---------------------

def screened_closed_forms(phi: float, gamma: float) -> tuple:
    """(σ_tot, σ_tr, P_forward) of Φ/(1 − cos θ + Γ)²."""
    tot = 4.0 * math.pi * phi / (gamma * (gamma + 2.0))
    with mpmath.workdps(DPS):
        tr = float(2 * mpmath.pi * phi * (mpmath.log((gamma + 2) / mpmath.mpf(gamma))
                                          - 2 / (mpmath.mpf(gamma) + 2)))
    return tot, tr, (gamma + 2.0) / (2.0 * (gamma + 1.0))


def thermo_row(beta, xi, tau, kb) -> dict:
    """Z, U, C and F from ln Z = ln(τ√π·erfi(ξ√β/τ)/(2√β)) by mpmath."""
    with mpmath.workdps(DPS):
        def ln_z(b):
            return mpmath.log(tau * mpmath.sqrt(mpmath.pi) * mpmath.erfi(xi / tau * mpmath.sqrt(b))
                              / (2 * mpmath.sqrt(b)))
        b = mpmath.mpf(beta)
        return {
            "Z": float(mpmath.exp(ln_z(b))),
            "U": float(-mpmath.diff(ln_z, b)),
            "C": float(kb * b ** 2 * mpmath.diff(ln_z, b, 2)),
            "F": float(-ln_z(b) / b),
        }


def pole_residual(energy, mass, delta, n_r, ell) -> float:
    """(2n_r + 1 + 2ℓ)√(M² − E²) − 2(E + M)δ, zero at a bound level."""
    lam = 2 * n_r + 1 + 2 * ell
    return lam * math.sqrt(mass * mass - energy * energy) - 2.0 * (energy + mass) * delta


def regenerate(levels) -> dict:
    """Norms ∫ raw² over [0, π/2] at 40 digits, plus each level's peak."""
    out = {}
    with mpmath.workdps(40):
        for kind, chi, lam, n in levels:
            raw = level_raw(kind, chi, lam, n)
            norm2 = mpmath.quad(lambda q: raw(q) ** 2, mpmath.linspace(0, mpmath.pi / 2, 9))
            amp = 1 / mpmath.sqrt(norm2)
            grid = mpmath.linspace(0, mpmath.pi / 2, 1001)
            peak = max(abs(float(amp * raw(q))) for q in grid)
            out[level_key(kind, chi, lam, n)] = {"norm2": mpmath.nstr(norm2, 35), "peak": peak}
    return out


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from workloads import ANGULAR_LEVELS

    table = regenerate(ANGULAR_LEVELS)
    ANGULAR_REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} levels to {ANGULAR_REFERENCE}")
