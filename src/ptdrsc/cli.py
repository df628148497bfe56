"""Command-line interface.

Seven subcommands expose the library over deterministic CSV/JSON
tables: phase-shifts, wavefunction, cross-section, bound-states,
thermo, angular, screened-fit.  Numeric flags accept either a single
value or a start:step:stop sweep where noted; a --config file of
"key = value" lines supplies defaults that explicit flags override.

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


class _Opt:
    def __init__(self, name, kind, default=None, required=False, choices=None):
        self.name = name            # long flag name, with dashes
        self.dest = name.replace("-", "_")
        self.kind = kind            # "float" | "int" | "count" | "sweep" | "str"
        self.default = default
        self.required = required
        self.choices = choices


def _parse_sweep(text: str) -> List[float]:
    parts = text.split(":")
    if len(parts) == 1:
        return [float(parts[0])]
    if len(parts) != 3:
        raise _UsageError(f"expected VALUE or START:STEP:STOP, got {text!r}")
    start, step, stop = (float(p) for p in parts)
    if step == 0.0 or (stop - start) * step < 0.0:
        raise _UsageError(f"sweep {text!r} does not advance from start to stop")
    span = (stop - start) / step + 1e-9
    if not span < _MAX_SWEEP_ROWS:  # also rejects inf and nan
        raise _UsageError(
            f"sweep {text!r} does not give a finite row count of at most {_MAX_SWEEP_ROWS}"
        )
    count = int(math.floor(span)) + 1
    return [start + i * step for i in range(count)]


def _convert(opt: _Opt, raw: str):
    try:
        if opt.kind == "float":
            return float(raw)
        if opt.kind == "int":
            return int(raw, 10)
        if opt.kind == "count":
            count = int(raw, 10)
            if count < 0:
                raise _UsageError(f"--{opt.name} must be non-negative, got {raw!r}")
            return count
        if opt.kind == "sweep":
            return _parse_sweep(raw)
    except ValueError as exc:
        raise _UsageError(f"bad value for --{opt.name}: {raw!r} ({exc})") from exc
    if opt.choices is not None and raw not in opt.choices:
        raise _UsageError(
            f"bad value for --{opt.name}: {raw!r} (choose from {opt.choices})"
        )
    return raw


def _read_config(path: str) -> dict:
    table = {}
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
                table[key.strip().replace("_", "-")] = value.strip()
    except OSError as exc:
        raise _UsageError(f"cannot read config {path!r}: {exc}") from exc
    return table


_COMMON = [
    _Opt("format", "str", default="csv", choices=("csv", "json")),
    _Opt("out", "str"),
    _Opt("config", "str"),
]

_SCHEMAS = {
    "phase-shifts": [
        _Opt("mass", "float", default=1.0),
        _Opt("energy", "sweep", required=True),
        _Opt("delta", "float", required=True),
        _Opt("lmax", "count", default=10),
    ],
    "wavefunction": [
        _Opt("mass", "float", default=1.0),
        _Opt("energy", "float", required=True),
        _Opt("delta", "float", required=True),
        _Opt("ell", "int", default=0),
        _Opt("r", "sweep", required=True),
    ],
    "cross-section": [
        _Opt("mass", "float", default=1.0),
        _Opt("energy", "float", required=True),
        _Opt("delta", "float", required=True),
        _Opt("lmax", "count", default=2000),
        _Opt("theta", "sweep", required=True),
        _Opt("smoothing", "str", default="abel", choices=("abel", "cesaro", "none")),
    ],
    "bound-states": [
        _Opt("mass", "float", default=1.0),
        _Opt("delta", "float", required=True),
        _Opt("nmax", "count", default=3),
        _Opt("lmax", "count", default=3),
    ],
    "thermo": [
        _Opt("beta", "sweep", required=True),
        _Opt("xi", "float", required=True),
        _Opt("tau", "float", default=1.0),
        _Opt("kb", "float", default=1.0),
    ],
    "angular": [
        _Opt("chi", "float", required=True),
        _Opt("lam", "float", required=True),
        _Opt("zeta", "float", default=1.0),
        _Opt("nmax", "count", default=5),
    ],
    "screened-fit": [
        _Opt("phi", "float", required=True),
        _Opt("gamma-screen", "float", required=True),
    ],
}


def _build_parser() -> _Parser:
    parser = _Parser(prog=_PROG, description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, opts in _SCHEMAS.items():
        p = sub.add_parser(name)
        for opt in opts + _COMMON:
            p.add_argument(f"--{opt.name}", dest=opt.dest, default=None)
    return parser


def _resolve(args, opts) -> dict:
    """Merge flags over config-file values over schema defaults."""
    config = _read_config(args.config) if args.config is not None else {}
    known = {o.name for o in opts} | {o.name for o in _COMMON}
    for key in config:
        if key not in known:
            raise _UsageError(f"unknown config key {key!r}")
    values = {}
    for opt in opts + _COMMON:
        raw = getattr(args, opt.dest)
        if raw is None:
            raw = config.get(opt.name)
        if raw is None:
            if opt.required:
                raise _UsageError(f"missing required option --{opt.name}")
            values[opt.dest] = opt.default
        else:
            values[opt.dest] = _convert(opt, raw)
    return values


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


def _run_phase_shifts(v) -> Tuple[List[str], list]:
    energies = v["energy"]
    rows = []
    for energy in energies:
        ctx = radial.make_context(v["mass"], energy, v["delta"])
        for ell in range(v["lmax"] + 1):
            shift = radial.phase_shift(ctx, ell)
            rows.append((energy, ell, shift) if len(energies) > 1 else (ell, shift))
    if len(energies) > 1:
        return ["energy", "ell", "delta_ell_rad"], rows
    return ["ell", "delta_ell_rad"], rows


def _run_wavefunction(v) -> Tuple[List[str], list]:
    ctx = radial.make_context(v["mass"], v["energy"], v["delta"])
    rows = [(r, radial.radial_wavefunction(ctx, v["ell"], r)) for r in v["r"]]
    return ["r", "g"], rows


def _run_cross_section(v) -> Tuple[List[str], list]:
    ctx = radial.make_context(v["mass"], v["energy"], v["delta"])
    shifts = [radial.phase_shift(ctx, ell) for ell in range(v["lmax"] + 1)]
    amps = radial.scattering_amplitude(shifts, v["theta"], ctx.wave_number,
                                       smoothing=v["smoothing"])
    rows = [(theta, abs(amp) ** 2) for theta, amp in zip(v["theta"], amps)]
    return ["theta_rad", "dcs"], rows


def _run_bound_states(v) -> Tuple[List[str], list]:
    rows = []
    for n_r in range(v["nmax"] + 1):
        for ell in range(v["lmax"] + 1):
            level = bound.bound_level(v["mass"], v["delta"], n_r, ell)
            rows.append((n_r, ell, level.energy, level.nonrel_energy))
    return ["n_r", "ell", "energy", "nonrel_energy"], rows


def _run_thermo(v) -> Tuple[List[str], list]:
    rows = []
    for beta in v["beta"]:
        state = thermo.ThermoState(beta=beta, xi=v["xi"], tau=v["tau"],
                                   boltzmann_k=v["kb"])
        rows.append((
            beta,
            thermo.partition_function(state),
            thermo.mean_energy(state),
            thermo.specific_heat(state),
            thermo.free_energy(state),
            thermo.entropy(state),
        ))
    return ["beta", "Z", "U", "C", "F", "S"], rows


def _run_angular(v) -> Tuple[List[str], list]:
    rows = [(n_r, angular.polar_eigenvalue(v["chi"], v["lam"], n_r, v["zeta"]))
            for n_r in range(v["nmax"] + 1)]
    return ["n_r", "eigenvalue"], rows


def _run_screened_fit(v) -> Tuple[List[str], list]:
    model = xsec.ScreenedRutherford(phi=v["phi"], gamma_screen=v["gamma_screen"])
    tot = xsec.screened_sigma_total(model)
    tr = xsec.screened_sigma_transport(model)
    fitted = xsec.fit_screened(tot, tr)
    rows = [(tot, tr, tr / tot, fitted.phi, fitted.gamma_screen)]
    return ["sigma_tot", "sigma_tr", "transport_ratio",
            "phi_fit", "gamma_screen_fit"], rows


_RUNNERS = {
    "phase-shifts": _run_phase_shifts,
    "wavefunction": _run_wavefunction,
    "cross-section": _run_cross_section,
    "bound-states": _run_bound_states,
    "thermo": _run_thermo,
    "angular": _run_angular,
    "screened-fit": _run_screened_fit,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        values = _resolve(args, _SCHEMAS[args.command])
        columns, rows = _RUNNERS[args.command](values)
        if values["format"] == "json":
            text = _render_json(columns, rows)
        else:
            text = _render_csv(columns, rows)
        if values["out"] is not None:
            with open(values["out"], "w", encoding="utf-8", newline="") as fh:
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
