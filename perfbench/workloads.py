"""The four workloads: inputs made from the seed, the timed ops and their checks.

A workload is the list of ops of one pass.  The seed draws one jittered
point in each stratum and the order of each pass; the strata, and so the
mix of branches and costs, are the same for every seed.  Each op returns
plain values; its check compares them with an independent computation
from ``reference``.
"""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

from ptdrsc import angular, cli, radial, xsec

import reference as ref

MASS = 1.0
G_TOL = 1e-10   # absolute, on the O(2) envelope of g (floored at 1)


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    expected_fault: bool = False   # fails every time, from a named program fault


@dataclass
class Workload:
    name: str
    ops: list
    tail_percentile: float         # of all ops in a run; fixed per workload (README)
    warm_up: list = field(default_factory=list)
    tracer: Any = None             # set by the worker during traced passes


def strata(rng, lo, hi, n):
    """One uniformly jittered point in each of n equal bins of [lo, hi)."""
    width = (hi - lo) / n
    return [lo + (i + rng.random()) * width for i in range(n)]


def context_for_eta(eta, energy):
    """Context at the given energy whose coupling δ gives Sommerfeld η."""
    k = math.sqrt(energy * energy - MASS * MASS)
    return radial.make_context(MASS, energy, eta * k / (MASS + energy))


def first_of_each_kind(ops):
    seen = {}
    for op in ops:
        seen.setdefault(op.kind, op)
    return list(seen.values())


# --- coulomb-waves ----------------------------------------------------------

COULOMB_ENERGY = 1.5
COULOMB_ETA = (0.5, 3.0, 5)           # η range and strata per (ℓ, region)
COULOMB_REGIONS = (                   # (kind, kr from, kr to, kr strata)
    ("series", 0.2, 2.0, 4),          # double-precision ₁F₁ series
    ("band", 6.0, 14.0, 4),           # series cancels; mpmath rescue
    ("asymptotic", 20.0, 40.0, 8),    # large-|z| expansion
    ("derivative", 400.0, 1200.0, 4), # (g, g′) pairs, two asymptotic ₁F₁ each
)


def _coulomb_op(kind, ctx, ell, r):
    eta, k = ctx.sommerfeld, ctx.wave_number
    if kind == "derivative":
        def run():
            return radial.radial_wavefunction_with_derivative(ctx, ell, r)

        def check(out):
            g, dg = ref.coulomb_g_dg(ell, eta, k, k * r)
            return (abs(out[0] - g) <= G_TOL * max(1.0, abs(g))
                    and abs(out[1] - dg) <= G_TOL * max(k, abs(dg)))
    else:
        def run():
            return radial.radial_wavefunction(ctx, ell, r)

        def check(out):
            g = ref.coulomb_g(ell, eta, k * r)
            return abs(out - g) <= G_TOL * max(1.0, abs(g))
    return Op(kind, run, check)


def coulomb_waves(rng, **_):
    ops = []
    for ell in range(6):
        for kind, lo, hi, n in COULOMB_REGIONS:
            for eta in strata(rng, *COULOMB_ETA):
                ctx = context_for_eta(eta, COULOMB_ENERGY)
                for kr in strata(rng, lo, hi, n):
                    ops.append(_coulomb_op(kind, ctx, ell, kr / ctx.wave_number))
    return Workload("coulomb-waves", ops, 90.0, first_of_each_kind(ops))


# --- partial-waves ----------------------------------------------------------

PW_DELTA = 0.1
PW_LMAX = 2000
PW_ETA = (0.15, 1.0, 12)       # η range and number of energies per pass
PW_ANGLES = 24                 # angle strata on [π/3, π]
PW_CHECKED_ELL = 16            # ℓ strata whose δ_ℓ is checked, plus 0 and L
DCS_TOL = 0.02                 # Abel-smoothed sum vs the Coulomb closed form


def energy_for_eta(eta, delta):
    """E with (M + E)δ/√(E² − M²) = η, for M = 1."""
    return (eta * eta + delta * delta) / (eta * eta - delta * delta)


def _table_op(ctx, thetas, ells):
    eta, k = ctx.sommerfeld, ctx.wave_number

    def run():
        shifts = [radial.phase_shift(ctx, ell) for ell in range(PW_LMAX + 1)]
        return shifts, [abs(radial.scattering_amplitude(shifts, t, k)) ** 2 for t in thetas]

    def check(out):
        shifts, dcs = out
        return (all(ref.wrapped_difference(shifts[ell], ref.phase(ell, eta)) <= 1e-12
                    for ell in ells)
                and all(abs(d / ref.coulomb_dcs(eta, k, t) - 1.0) <= DCS_TOL
                        for d, t in zip(dcs, thetas)))

    return Op("table", run, check)


def partial_waves(rng, **_):
    ops = []
    for eta in strata(rng, *PW_ETA):
        ctx = radial.make_context(MASS, energy_for_eta(eta, PW_DELTA), PW_DELTA)
        thetas = strata(rng, math.pi / 3, math.pi, PW_ANGLES)
        ells = {0, PW_LMAX, *(int(x) for x in strata(rng, 0, PW_LMAX + 1, PW_CHECKED_ELL))}
        ops.append(_table_op(ctx, thetas, sorted(ells)))
    return Workload("partial-waves", ops, 97.5, ops[:1])


# --- angular-transport ------------------------------------------------------

ANGULAR_PAIRS = ((2.0, 3.0), (1.5, 2.5))
ANGULAR_NR = (*range(0, 11), *range(15, 20))  # 11–14 straddle the tolerance
FAULT_FROM_NR = 15          # hyp2f1_terminating cancellation fails these levels
DEGENERATE = (3.0, (0, 1, 2, 3))
ANGULAR_LEVELS = (
    *(("polar", chi, lam, n) for chi, lam in ANGULAR_PAIRS for n in ANGULAR_NR),
    *(("degenerate", 0.0, DEGENERATE[0], n) for n in DEGENERATE[1]),
)
LEVEL_POINTS = 12           # q strata on [0, π/2] per level
LEVEL_TOL = 1e-8            # of the level's peak
SCREENED = (8, (-1.0, 1.0), (-2.0, 1.0))  # strata per axis, log10 Φ and log10 Γ
QUAD_TOL = 1e-8


def _level_op(entry, kind, chi, lam, n, qs):
    if kind == "polar":
        def solve():
            return angular.polar_solution(chi, lam, n)
    else:
        def solve():
            return angular.degenerate_solution(lam, n)

    def run():
        evaluate = solve().evaluator
        return [evaluate(q) for q in qs]

    def check(values):
        want = ref.level_values(entry, kind, chi, lam, n, qs)
        return max(abs(v - w) for v, w in zip(values, want)) <= LEVEL_TOL * entry["peak"]

    return Op("level", run, check, expected_fault=kind == "polar" and n >= FAULT_FROM_NR)


def _screened_op(phi, gamma):
    dcs = partial(xsec.screened_rutherford_dcs,
                  xsec.ScreenedRutherford(phi=phi, gamma_screen=gamma))

    def run():
        tot = xsec.sigma_total(dcs)
        tr = xsec.sigma_transport(dcs)
        fit = xsec.fit_screened(tot, tr)
        return (tot, tr, xsec.forward_probability(dcs), xsec.backward_probability(dcs),
                fit.phi, fit.gamma_screen)

    def check(out):
        tot, tr, p_f, p_b, phi_fit, gamma_fit = out
        want = (*ref.screened_closed_forms(phi, gamma), phi, gamma)
        return (all(abs(got / w - 1.0) <= QUAD_TOL
                    for got, w in zip((tot, tr, p_f, phi_fit, gamma_fit), want))
                and abs(p_f + p_b - 1.0) <= 1e-10)

    return Op("quadrature", run, check)


def angular_transport(rng, **_):
    table = ref.load_angular_reference()
    ops = [_level_op(table[ref.level_key(kind, chi, lam, n)], kind, chi, lam, n,
                     strata(rng, 0.0, math.pi / 2, LEVEL_POINTS))
           for kind, chi, lam, n in ANGULAR_LEVELS]
    per_axis, phi_range, gamma_range = SCREENED
    for log_phi in strata(rng, *phi_range, per_axis):
        for log_gamma in strata(rng, *gamma_range, per_axis):
            ops.append(_screened_op(10.0 ** log_phi, 10.0 ** log_gamma))
    return Workload("angular-transport", ops, 98.0, [ops[0], ops[-1]])


# --- cli-tables -------------------------------------------------------------

GOLDEN_ARGV = {  # the seven golden runs of tests/test_cli.py
    "phase-shifts": ["phase-shifts", "--mass", "1", "--energy", "1.5",
                     "--delta", "1", "--lmax", "10"],
    "wavefunction": ["wavefunction", "--mass", "1", "--energy", "1.5",
                     "--delta", "1", "--ell", "1", "--r", "0.5:0.5:5.0"],
    "cross-section": ["cross-section", "--mass", "1", "--energy", "1.5",
                      "--delta", "0.5", "--lmax", "300", "--theta",
                      "0.7853981633974483:0.7853981633974483:3.141592653589793"],
    "bound-states": ["bound-states", "--mass", "1", "--delta", "0.5",
                     "--nmax", "2", "--lmax", "2"],
    "thermo": ["thermo", "--beta", "0.01:0.01:0.05", "--xi", "5", "--tau", "1"],
    "angular": ["angular", "--chi", "2", "--lam", "3", "--zeta", "1",
                "--nmax", "4", "--format", "json"],
    "screened-fit": ["screened-fit", "--phi", "1", "--gamma-screen", "2",
                     "--format", "json"],
}
CLI_CASES = (*GOLDEN_ARGV, "cross-section-l2000", "wavefunction-kr40")
HEAVY_XS = (0.1, 2000, 301)   # δ, lmax and angle count of the heavy cross-section
HEAVY_WF = 100                # r points of the heavy wavefunction, kr 0.2 … 40


def parse_table(stdout: bytes) -> list:
    text = stdout.decode()
    if text.startswith("["):
        return json.loads(text)
    header, *rows = csv.reader(io.StringIO(text))
    return [dict(zip(header, map(float, row))) for row in rows]


def _sweep(start, step, count):
    """Values of a start:step:stop sweep with the given number of rows."""
    return [start + i * step for i in range(count)]


def _close(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _check_phase_shifts(rows, energy, delta):
    eta = (MASS + energy) * delta / math.sqrt(energy ** 2 - MASS ** 2)
    return (len(rows) == 11 and
            all(ref.wrapped_difference(row["delta_ell_rad"], ref.phase(int(row["ell"]), eta))
                <= 1e-11 for row in rows))


def _check_wavefunction(rows, energy, delta, ell, rs):
    k = math.sqrt(energy ** 2 - MASS ** 2)
    eta = (MASS + energy) * delta / k
    if len(rows) != len(rs):
        return False
    for row, r in zip(rows, rs):
        g = ref.coulomb_g(ell, eta, k * r)
        if not (_close(row["r"], r, 1e-11) and abs(row["g"] - g) <= G_TOL * max(1.0, abs(g))):
            return False
    return True


def _check_cross_section(rows, energy, delta, lmax, thetas, coulomb=False):
    """Against the mpmath-phase sum; with ``coulomb``, also within 2 % of the
    closed form on [π/3, π], which holds for η ≤ 1 at L = 2000."""
    k = math.sqrt(energy ** 2 - MASS ** 2)
    eta = (MASS + energy) * delta / k
    if len(rows) != len(thetas):
        return False
    want = ref.abel_dcs(eta, k, lmax, thetas)
    for row, theta, w in zip(rows, thetas, want):
        if not (_close(row["theta_rad"], theta, 1e-11) and _close(row["dcs"], w, 1e-9)):
            return False
        if (coulomb and theta >= math.pi / 3
                and abs(row["dcs"] / ref.coulomb_dcs(eta, k, theta) - 1) > DCS_TOL):
            return False
    return True


def _check_bound_states(rows):
    delta, pairs = 0.5, {(n, ell) for n in range(3) for ell in range(3)}
    if {(int(r["n_r"]), int(r["ell"])) for r in rows} != pairs or len(rows) != 9:
        return False
    for row in rows:
        lam = 2 * row["n_r"] + 1 + 2 * row["ell"]
        if abs(ref.pole_residual(row["energy"], MASS, delta, row["n_r"], row["ell"])) > 1e-8:
            return False
        if not _close(row["nonrel_energy"], -8.0 * MASS * delta ** 2 / lam ** 2, 1e-11):
            return False
    return True


def _check_thermo(rows):
    xi, tau, kb = 5.0, 1.0, 1.0
    betas = _sweep(0.01, 0.01, 5)
    if [round(r["beta"], 12) for r in rows] != [round(b, 12) for b in betas]:
        return False
    for row, beta in zip(rows, betas):
        want = ref.thermo_row(beta, xi, tau, kb)
        if not all(_close(row[key], want[key], 1e-9) for key in want):
            return False
        identity = row["U"] - row["S"] / (kb * beta)      # F = U − TS
        if not _close(row["F"], identity, 1e-9):
            return False
    return True


def _check_angular(rows):
    chi, lam, zeta = 2.0, 3.0, 1.0
    return (len(rows) == 5 and
            all(ref.pt_residual(q, chi, lam, row["n_r"], zeta, row["eigenvalue"]) <= 1e-9
                for row in rows for q in (0.3, 0.8, 1.2)))


def _check_screened_fit(rows):
    phi, gamma = 1.0, 2.0
    (row,) = rows
    tot, tr, _ = ref.screened_closed_forms(phi, gamma)
    return (_close(row["sigma_tot"], tot, 1e-11) and _close(row["sigma_tr"], tr, 1e-11)
            and _close(row["transport_ratio"], tr / tot, 1e-11)
            and _close(row["phi_fit"], phi, 1e-9) and _close(row["gamma_screen_fit"], gamma, 1e-9))


def cli_cases(rng):
    """(case, argv, check on the parsed rows) for the nine CLI runs."""
    cases = [
        ("phase-shifts", GOLDEN_ARGV["phase-shifts"],
         partial(_check_phase_shifts, energy=1.5, delta=1.0)),
        ("wavefunction", GOLDEN_ARGV["wavefunction"],
         partial(_check_wavefunction, energy=1.5, delta=1.0, ell=1, rs=_sweep(0.5, 0.5, 10))),
        ("cross-section", GOLDEN_ARGV["cross-section"],
         partial(_check_cross_section, energy=1.5, delta=0.5, lmax=300,
                 thetas=_sweep(math.pi / 4, math.pi / 4, 4))),
        ("bound-states", GOLDEN_ARGV["bound-states"], _check_bound_states),
        ("thermo", GOLDEN_ARGV["thermo"], _check_thermo),
        ("angular", GOLDEN_ARGV["angular"], _check_angular),
        ("screened-fit", GOLDEN_ARGV["screened-fit"], _check_screened_fit),
    ]
    delta, lmax, count = HEAVY_XS
    energy = energy_for_eta(rng.uniform(0.3, 1.0), delta)
    start = rng.uniform(0.02, 0.05)
    step = (math.pi - start) / (count - 0.5)
    cases.append(("cross-section-l2000",
                  ["cross-section", "--mass", "1", "--energy", repr(energy), "--delta",
                   repr(delta), "--lmax", str(lmax), "--theta",
                   f"{start!r}:{step!r}:{start + (count - 1) * step!r}"],
                  partial(_check_cross_section, energy=energy, delta=delta, lmax=lmax,
                          thetas=_sweep(start, step, count), coulomb=True)))
    ell = rng.randrange(6)
    k = math.sqrt(COULOMB_ENERGY ** 2 - MASS ** 2)
    delta = rng.uniform(1.0, 2.5) * k / (MASS + COULOMB_ENERGY)
    start, step = 0.2 / k, (40.0 - 0.2) / (HEAVY_WF - 1) / k
    cases.append(("wavefunction-kr40",
                  ["wavefunction", "--mass", "1", "--energy", repr(COULOMB_ENERGY), "--delta",
                   repr(delta), "--ell", str(ell), "--r",
                   f"{start!r}:{step!r}:{start + (HEAVY_WF - 0.75) * step!r}"],
                  partial(_check_wavefunction, energy=COULOMB_ENERGY, delta=delta, ell=ell,
                          rs=_sweep(start, step, HEAVY_WF))))
    return cases


def _cli_check(check_rows):
    def check(out):
        returncode, stdout = out
        return returncode == 0 and check_rows(parse_table(stdout))
    return check


def cli_tables(rng, root, in_process=False):
    """Subprocess runs of ``python -m ptdrsc``, or ``cli.main`` in-process when traced."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    wl = Workload("cli-tables", [], 90.0)  # under 40 ops a run: a weak tail

    def subprocess_run(argv):
        proc = subprocess.run([sys.executable, "-m", "ptdrsc", *argv],
                              capture_output=True, cwd=root, env=env, check=False)
        return proc.returncode, proc.stdout

    def in_process_run(case, argv):
        buf = io.StringIO()
        span = wl.tracer.span(f"cli.main.{case}") if wl.tracer else contextlib.nullcontext()
        with span, contextlib.redirect_stdout(buf):
            returncode = cli.main(argv)
        return returncode, buf.getvalue().encode()

    for case, argv, check_rows in cli_cases(rng):
        run = partial(in_process_run, case, argv) if in_process else partial(subprocess_run, argv)
        wl.ops.append(Op(case, run, _cli_check(check_rows)))
    return wl


BUILDERS = {
    "cli-tables": cli_tables,
    "coulomb-waves": coulomb_waves,
    "partial-waves": partial_waves,
    "angular-transport": angular_transport,
}
