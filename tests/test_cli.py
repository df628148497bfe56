"""End-to-end CLI checks: golden-file byte determinism for every
subcommand, exit-code contracts, config-file precedence, and format
agreement between the CSV and JSON renderers.

Most commands run through ``cli.main`` in this interpreter.  A child
``python -m ptdrsc`` runs where the process itself is under test: the
modules a cold start loads, byte-identity across interpreters, and one
case for each exit code 0 to 3.
"""

import contextlib
import io
import json
import pathlib
import subprocess
import sys

import pytest

from ptdrsc import cli

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

GOLDEN_CASES = {
    "phase_shifts.csv": ["phase-shifts", "--mass", "1", "--energy", "1.5",
                         "--delta", "1", "--lmax", "10"],
    "wavefunction.csv": ["wavefunction", "--mass", "1", "--energy", "1.5",
                         "--delta", "1", "--ell", "1", "--r", "0.5:0.5:5.0"],
    "cross_section.csv": ["cross-section", "--mass", "1", "--energy", "1.5",
                          "--delta", "0.5", "--lmax", "300",
                          "--theta",
                          "0.7853981633974483:0.7853981633974483:3.141592653589793"],
    "bound_states.csv": ["bound-states", "--mass", "1", "--delta", "0.5",
                         "--nmax", "2", "--lmax", "2"],
    "thermo.csv": ["thermo", "--beta", "0.01:0.01:0.05", "--xi", "5",
                   "--tau", "1"],
    "angular.json": ["angular", "--chi", "2", "--lam", "3", "--zeta", "1",
                     "--nmax", "4", "--format", "json"],
    "screened_fit.json": ["screened-fit", "--phi", "1", "--gamma-screen", "2",
                          "--format", "json"],
}


def run_cli(*argv, check=False, child=False):
    """Run ``ptdrsc argv``, through cli.main or, if ``child``, as
    ``python -m ptdrsc``; stdout and stderr are the bytes the process writes."""
    if child:
        result = subprocess.run([sys.executable, "-m", "ptdrsc", *argv],
                                capture_output=True)
    else:
        out, err = (io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="",
                                     write_through=True) for _ in range(2))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        result = subprocess.CompletedProcess(argv, code, out.buffer.getvalue(),
                                             err.buffer.getvalue())
    if check:
        assert result.returncode == 0, result.stderr.decode()
    return result


# Loaded on first use only; importing the package or running a command
# that needs none of them must leave them out of sys.modules.
HEAVY_MODULES = ("numpy", "scipy.special", "scipy.integrate", "scipy.optimize", "mpmath")


@pytest.mark.parametrize("argv", [
    None,
    GOLDEN_CASES["bound_states.csv"],
    GOLDEN_CASES["angular.json"],
    GOLDEN_CASES["screened_fit.json"],
], ids=["import", "bound-states", "angular", "screened-fit"])
def test_cold_start_leaves_heavy_modules_unloaded(argv):
    if argv is None:
        code = "import ptdrsc"
    else:
        code = ("import runpy\n"
                f"sys.argv = ['ptdrsc', *{argv!r}]\n"
                "try:\n"
                "    runpy.run_module('ptdrsc', run_name='__main__', alter_sys=True)\n"
                "except SystemExit as exc:\n"
                "    assert not exc.code, exc.code\n")
    code = ("import sys\n" + code
            + f"\nprint(sorted(set({HEAVY_MODULES!r}) & set(sys.modules)), file=sys.stderr)\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True)
    assert result.returncode == 0, result.stderr.decode()
    assert result.stderr.decode().splitlines()[-1] == "[]"


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_outputs_are_reproduced_byte_for_byte(name):
    want = (GOLDEN_DIR / name).read_bytes()
    got = run_cli(*GOLDEN_CASES[name], check=True).stdout
    assert got == want


def test_repeated_runs_are_deterministic():
    argv = GOLDEN_CASES["thermo.csv"]
    first = run_cli(*argv, check=True, child=True).stdout
    second = run_cli(*argv, check=True, child=True).stdout
    assert first == second


def test_out_file_matches_stdout(tmp_path):
    target = tmp_path / "table.csv"
    argv = GOLDEN_CASES["phase_shifts.csv"]
    streamed = run_cli(*argv, check=True).stdout
    run_cli(*argv, "--out", str(target), check=True)
    assert target.read_bytes() == streamed


def test_csv_is_rfc4180_crlf():
    out = run_cli(*GOLDEN_CASES["bound_states.csv"], check=True).stdout
    assert out.count(b"\r\n") == out.count(b"\n")
    header = out.split(b"\r\n", 1)[0]
    assert header == b"n_r,ell,energy,nonrel_energy"


def test_json_parses_and_matches_csv_numbers():
    csv_out = run_cli("bound-states", "--mass", "1", "--delta", "0.5",
                      "--nmax", "1", "--lmax", "1", check=True).stdout
    json_out = run_cli("bound-states", "--mass", "1", "--delta", "0.5",
                       "--nmax", "1", "--lmax", "1", "--format", "json",
                       check=True).stdout
    rows = json.loads(json_out)
    lines = csv_out.decode().strip().splitlines()
    header = lines[0].split(",")
    assert [set(r) == set(header) for r in rows]
    for line, row in zip(lines[1:], rows):
        for name, cell in zip(header, line.split(",")):
            assert float(cell) == pytest.approx(float(row[name]), rel=1e-11)


def test_twelve_significant_digits():
    out = run_cli(*GOLDEN_CASES["phase_shifts.csv"], check=True).stdout.decode()
    value = out.strip().splitlines()[1].split(",")[1]
    mantissa = value.split("e")[0].replace("-", "").replace(".", "")
    assert len(mantissa) == 12


def test_usage_errors_exit_1():
    r = run_cli("phase-shifts", "--mass", "1", "--delta", "1", child=True)
    assert r.returncode == 1
    assert b"energy" in r.stderr
    assert r.stdout == b""
    assert r.stderr.count(b"\n") == 1  # one-line diagnostic
    assert run_cli("no-such-command").returncode == 1
    assert run_cli("thermo", "--beta", "1:2", "--xi", "1").returncode == 1
    assert run_cli("thermo", "--beta", "abc", "--xi", "1").returncode == 1
    assert run_cli("cross-section", "--energy", "1.5", "--delta", "1",
                   "--theta", "1", "--smoothing", "boxcar").returncode == 1


def test_domain_errors_exit_2():
    r = run_cli("phase-shifts", "--mass", "1", "--energy", "0.5", "--delta", "1",
                child=True)
    assert r.returncode == 2
    assert r.stdout == b""
    assert r.stderr.count(b"\n") == 1
    assert run_cli("bound-states", "--delta", "-1").returncode == 2
    assert run_cli("angular", "--chi", "0.2", "--lam", "2").returncode == 2
    # a negative ell is physical input, not a count
    assert run_cli("wavefunction", "--energy", "1.5", "--delta", "1",
                   "--ell", "-1", "--r", "1").returncode == 2


def test_phase_shifts_at_an_energy_whose_square_overflows():
    # E^2 overflows at E = 1e300, while k = E and eta = 1 to double precision
    out = run_cli("phase-shifts", "--energy", "1e300", "--delta", "1", "--lmax", "0",
                  check=True).stdout.decode()
    assert out.splitlines()[1] == "0,9.55007724343e-01"


def test_numerical_errors_exit_3():
    for i, argv in enumerate((
        # partition function overflows double range at this xi
        ("thermo", "--beta", "1", "--xi", "50"),
        # k·C leaves double range
        ("thermo", "--beta", "1", "--xi", "3", "--kb", "1.7e308"),
        # the nonrelativistic level -8*delta^2 overflows
        ("bound-states", "--delta", "1e308"),
        # both screened closed forms overflow
        ("screened-fit", "--phi", "1e308", "--gamma-screen", "1e-300"),
        # the closed total underflows to 0
        ("screened-fit", "--phi", "1", "--gamma-screen", "1e308"),
        # eta = (M + E)·delta/k overflows
        ("phase-shifts", "--energy", "1.5", "--delta", "1e308"),
    )):
        r = run_cli(*argv, child=i == 0)
        assert r.returncode == 3, (argv, r.stderr.decode())
        assert r.stdout == b"", argv


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults for the sweep\nmass = 1.0\nenergy = 1.5\n"
                   "delta = 1\nlmax = 2\n")
    out = run_cli("phase-shifts", "--config", str(cfg), check=True).stdout
    direct = run_cli("phase-shifts", "--mass", "1.0", "--energy", "1.5",
                     "--delta", "1", "--lmax", "2", check=True).stdout
    assert out == direct


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mass = 1.0\nenergy = 9.9\ndelta = 1\nlmax = 2\n")
    out = run_cli("phase-shifts", "--config", str(cfg), "--energy", "1.5",
                  check=True).stdout
    direct = run_cli("phase-shifts", "--mass", "1.0", "--energy", "1.5",
                     "--delta", "1", "--lmax", "2", check=True).stdout
    assert out == direct


def test_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("masss = 1.0\n")
    r = run_cli("phase-shifts", "--config", str(cfg), "--energy", "1.5",
                "--delta", "1")
    assert r.returncode == 1
    assert b"masss" in r.stderr


def test_unreadable_config_is_a_usage_error(tmp_path):
    missing = tmp_path / "missing.cfg"
    r = run_cli("phase-shifts", "--config", str(missing), "--energy", "1.5", "--delta", "1")
    assert r.returncode == 1
    assert r.stdout == b""
    assert r.stderr.startswith(b"ptdrsc: usage error: cannot read config")
    assert r.stderr.count(b"\n") == 1


def test_phase_shift_energy_sweep_adds_an_energy_column():
    # more than one energy: one row per (energy, ell), each row the
    # single-energy table's row behind its energy
    argv = ["--delta", "1", "--lmax", "2"]
    out = run_cli("phase-shifts", "--energy", "1.5:0.5:2.0", *argv, check=True).stdout
    lines = out.decode().splitlines()
    assert lines[0] == "energy,ell,delta_ell_rad"
    want = []
    for energy in (1.5, 2.0):
        single = run_cli("phase-shifts", "--energy", str(energy), *argv, check=True).stdout
        want += [f"{energy:.11e},{row}" for row in single.decode().splitlines()[1:]]
    assert lines[1:] == want


def test_sweep_includes_endpoint():
    out = run_cli("wavefunction", "--energy", "1.5", "--delta", "1",
                  "--r", "1.0:0.25:2.0", check=True).stdout.decode()
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 5
    assert rows[-1].startswith("2.00000000000e+00")


@pytest.mark.parametrize("argv", [
    # negative counts
    ["phase-shifts", "--energy", "1.5", "--delta", "1", "--lmax", "-3"],
    ["bound-states", "--delta", "0.5", "--nmax", "-1"],
    ["bound-states", "--delta", "0.5", "--lmax", "-1"],
    ["angular", "--chi", "2", "--lam", "3", "--nmax", "-1"],
    # about 1e300 rows: rejected before any row is built
    ["wavefunction", "--energy", "1.5", "--delta", "1", "--r", "0:1e-300:1"],
    # one row past the cap
    ["thermo", "--beta", "0:1:100000", "--xi", "1"],
    # non-finite counts
    ["thermo", "--beta", "0.01:1:inf", "--xi", "1"],
    ["wavefunction", "--energy", "1.5", "--delta", "1", "--r", "0:1e-320:1"],
    # counts and tables just past the cap, rejected before any row is built
    ["cross-section", "--energy", "1.5", "--delta", "1", "--theta", "1",
     "--lmax", "100001"],
    ["phase-shifts", "--energy", "1.5", "--delta", "1", "--lmax", "100001"],
    ["bound-states", "--delta", "0.5", "--nmax", "100001"],
    ["bound-states", "--delta", "0.5", "--nmax", "400", "--lmax", "400"],
    ["phase-shifts", "--energy", "1.5:0.01:2.5", "--delta", "1", "--lmax", "1000"],
    # sweeps that do not advance from start to stop
    ["thermo", "--beta", "1:0:2", "--xi", "1"],
    ["thermo", "--beta", "2:0.5:1", "--xi", "1"],
])
def test_out_of_bound_counts_are_usage_errors(argv):
    r = run_cli(*argv)
    assert r.returncode == 1
    assert r.stdout == b""
    assert r.stderr.startswith(b"ptdrsc: usage error:")
    assert r.stderr.count(b"\n") == 1


CROSS_SECTION = ["--energy", "1.5", "--delta", "1", "--theta", "1"]


@pytest.mark.parametrize("line, argv", [
    ("format = xml", CROSS_SECTION),
    ("smoothing = boxcar", CROSS_SECTION),
    ("lmax = -1", CROSS_SECTION),
    ("energy = abc", ["--delta", "1", "--theta", "1"]),
    ("lmax 2", CROSS_SECTION),
    ("lmax = abc", CROSS_SECTION + ["--lmax", "2"]),  # converted though the flag wins
])
def test_config_values_are_checked_like_flags(tmp_path, line, argv):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    r = run_cli("cross-section", "--config", str(cfg), *argv)
    assert r.returncode == 1
    assert r.stdout == b""
    assert r.stderr.startswith(b"ptdrsc: usage error:")
    assert r.stderr.count(b"\n") == 1
    assert line.partition("=")[0].strip().encode() in r.stderr
