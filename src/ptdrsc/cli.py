"""Command-line interface.

Seven subcommands expose the library over deterministic CSV/JSON
tables: phase-shifts, wavefunction, cross-section, bound-states,
thermo, angular, screened-fit.  Each flag is declared once, to argparse,
in ``_COMMANDS``.  Numeric flags accept either a single value or a
start:step:stop sweep where noted; counts are capped at 100 000, and
sweeps and tables at 100 000 rows.  Each "key = value" line of a
--config file becomes a --key=value flag placed after the command name
and before the command line's own flags, so it is checked like a flag
and the command line wins.

Exit codes: 0 success, 1 usage, 2 domain error, 3 numerical failure.
"""

import argparse
import csv
import io
import math
import sys
from typing import List, Optional, Sequence, Tuple

from . import angular, bound, radial, thermo, xsec
from .errors import DomainError, NumericalError

__all__ = ["main"]

_PROG = "ptdrsc"
_MAX_SWEEP_ROWS = 100_000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; route through exit code 1
    def error(self, message):
        raise _UsageError(message)


def _parse_sweep(text: str) -> List[float]:
    try:
        values = [float(p) for p in text.split(":")]
    except ValueError:
        values = []
    if len(values) == 1:
        return values
    if len(values) != 3:
        raise argparse.ArgumentTypeError(f"expected VALUE or START:STEP:STOP, got {text!r}")
    start, step, stop = values
    if step == 0.0 or (stop - start) * step < 0.0:
        raise argparse.ArgumentTypeError(f"sweep {text!r} does not advance from start to stop")
    span = (stop - start) / step + 1e-9
    if not span < _MAX_SWEEP_ROWS:  # also rejects inf and nan
        raise argparse.ArgumentTypeError(
            f"sweep {text!r} does not give a finite row count of at most {_MAX_SWEEP_ROWS}"
        )
    count = int(math.floor(span)) + 1
    return [start + i * step for i in range(count)]


def _count(text: str) -> int:
    try:
        count = int(text, 10)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a whole number, got {text!r}") from None
    if not 0 <= count <= _MAX_SWEEP_ROWS:
        raise argparse.ArgumentTypeError(
            f"expected a count from 0 to {_MAX_SWEEP_ROWS}, got {text!r}"
        )
    return count


def _check_rows(rows: int, flags: str) -> None:
    if rows > _MAX_SWEEP_ROWS:
        raise _UsageError(f"{flags} give {rows} rows, more than {_MAX_SWEEP_ROWS}")


def _fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.11e}"


def _render_csv(columns: Sequence[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


def _render_json(columns: Sequence[str], rows) -> str:
    lines = ["["]
    for i, row in enumerate(rows):
        cells = ", ".join(f'"{c}": {_fmt(v)}' for c, v in zip(columns, row))
        comma = "," if i + 1 < len(rows) else ""
        lines.append("  {" + cells + "}" + comma)
    lines.append("]")
    return "\n".join(lines) + "\n"


def _run_phase_shifts(args) -> Tuple[List[str], list]:
    energies = args.energy
    _check_rows(len(energies) * (args.lmax + 1), "--energy and --lmax")
    rows = []
    for energy in energies:
        ctx = radial.make_context(args.mass, energy, args.delta)
        for ell in range(args.lmax + 1):
            shift = radial.phase_shift(ctx, ell)
            rows.append((energy, ell, shift) if len(energies) > 1 else (ell, shift))
    if len(energies) > 1:
        return ["energy", "ell", "delta_ell_rad"], rows
    return ["ell", "delta_ell_rad"], rows


def _run_wavefunction(args) -> Tuple[List[str], list]:
    ctx = radial.make_context(args.mass, args.energy, args.delta)
    rows = [(r, radial.radial_wavefunction(ctx, args.ell, r)) for r in args.r]
    return ["r", "g"], rows


def _run_cross_section(args) -> Tuple[List[str], list]:
    ctx = radial.make_context(args.mass, args.energy, args.delta)
    shifts = [radial.phase_shift(ctx, ell) for ell in range(args.lmax + 1)]
    amps = radial.scattering_amplitude(shifts, args.theta, ctx.wave_number,
                                       smoothing=args.smoothing)
    rows = [(theta, abs(amp) ** 2) for theta, amp in zip(args.theta, amps)]
    return ["theta_rad", "dcs"], rows


def _run_bound_states(args) -> Tuple[List[str], list]:
    _check_rows((args.nmax + 1) * (args.lmax + 1), "--nmax and --lmax")
    rows = []
    for n_r in range(args.nmax + 1):
        for ell in range(args.lmax + 1):
            level = bound.bound_level(args.mass, args.delta, n_r, ell)
            rows.append((n_r, ell, level.energy, level.nonrel_energy))
    return ["n_r", "ell", "energy", "nonrel_energy"], rows


def _run_thermo(args) -> Tuple[List[str], list]:
    rows = []
    for beta in args.beta:
        state = thermo.ThermoState(beta=beta, xi=args.xi, tau=args.tau,
                                   boltzmann_k=args.kb)
        rows.append((
            beta,
            thermo.partition_function(state),
            thermo.mean_energy(state),
            thermo.specific_heat(state),
            thermo.free_energy(state),
            thermo.entropy(state),
        ))
    return ["beta", "Z", "U", "C", "F", "S"], rows


def _run_angular(args) -> Tuple[List[str], list]:
    rows = [(n_r, angular.polar_eigenvalue(args.chi, args.lam, n_r, args.zeta))
            for n_r in range(args.nmax + 1)]
    return ["n_r", "eigenvalue"], rows


def _run_screened_fit(args) -> Tuple[List[str], list]:
    model = xsec.ScreenedRutherford(phi=args.phi, gamma_screen=args.gamma_screen)
    tot = xsec.screened_sigma_total(model)
    tr = xsec.screened_sigma_transport(model)
    fitted = xsec.fit_screened(tot, tr)
    rows = [(tot, tr, tr / tot, fitted.phi, fitted.gamma_screen)]
    return ["sigma_tot", "sigma_tr", "transport_ratio",
            "phi_fit", "gamma_screen_fit"], rows


_COMMON = {
    "format": dict(default="csv", choices=("csv", "json")),
    "out": {},
    "config": {},
}

# command: (runner, {flag: argparse keyword arguments}); _COMMON is added to each
_COMMANDS = {
    "phase-shifts": (_run_phase_shifts, {
        "mass": dict(type=float, default=1.0),
        "energy": dict(type=_parse_sweep, required=True),
        "delta": dict(type=float, required=True),
        "lmax": dict(type=_count, default=10),
    }),
    "wavefunction": (_run_wavefunction, {
        "mass": dict(type=float, default=1.0),
        "energy": dict(type=float, required=True),
        "delta": dict(type=float, required=True),
        "ell": dict(type=int, default=0),
        "r": dict(type=_parse_sweep, required=True),
    }),
    "cross-section": (_run_cross_section, {
        "mass": dict(type=float, default=1.0),
        "energy": dict(type=float, required=True),
        "delta": dict(type=float, required=True),
        "lmax": dict(type=_count, default=2000),
        "theta": dict(type=_parse_sweep, required=True),
        "smoothing": dict(default="abel", choices=("abel", "cesaro", "none")),
    }),
    "bound-states": (_run_bound_states, {
        "mass": dict(type=float, default=1.0),
        "delta": dict(type=float, required=True),
        "nmax": dict(type=_count, default=3),
        "lmax": dict(type=_count, default=3),
    }),
    "thermo": (_run_thermo, {
        "beta": dict(type=_parse_sweep, required=True),
        "xi": dict(type=float, required=True),
        "tau": dict(type=float, default=1.0),
        "kb": dict(type=float, default=1.0),
    }),
    "angular": (_run_angular, {
        "chi": dict(type=float, required=True),
        "lam": dict(type=float, required=True),
        "zeta": dict(type=float, default=1.0),
        "nmax": dict(type=_count, default=5),
    }),
    "screened-fit": (_run_screened_fit, {
        "phi": dict(type=float, required=True),
        "gamma-screen": dict(type=float, required=True),
    }),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog=_PROG, description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (run, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        for flag, kwargs in {**flags, **_COMMON}.items():
            p.add_argument(f"--{flag}", **kwargs)
        p.set_defaults(run=run)
    return parser


def _config_flags(path: str, known) -> List[str]:
    """The ``key = value`` lines of a config file as ``--key=value`` flags."""
    flags = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                if "=" not in stripped:
                    raise _UsageError(
                        f"{path}:{lineno}: expected 'key = value', got {stripped!r}"
                    )
                key, _, value = stripped.partition("=")
                key = key.strip().replace("_", "-")
                if key not in known:
                    raise _UsageError(f"unknown config key {key!r}")
                flags.append(f"--{key}={value.strip()}")
    except OSError as exc:
        raise _UsageError(f"cannot read config {path!r}: {exc}") from exc
    return flags


def _with_config(argv: List[str]) -> List[str]:
    """``argv`` with its --config file's flags after the command name."""
    if not argv or argv[0] not in _COMMANDS:
        return argv  # the full parser reports a missing or unknown command
    known = {**_COMMANDS[argv[0]][1], **_COMMON}
    pre = _Parser(add_help=False)  # the command's flags, so prefixes resolve alike
    for flag in known:
        pre.add_argument(f"--{flag}")
    path = pre.parse_known_args(argv[1:])[0].config
    if path is None:
        return argv
    return argv[:1] + _config_flags(path, known) + argv[1:]


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        argv = list(sys.argv[1:] if argv is None else argv)
        args = _build_parser().parse_args(_with_config(argv))
        columns, rows = args.run(args)
        if args.format == "json":
            text = _render_json(columns, rows)
        else:
            text = _render_csv(columns, rows)
        if args.out is not None:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except _UsageError as exc:
        print(f"{_PROG}: usage error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"{_PROG}: domain error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"{_PROG}: numerical error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
