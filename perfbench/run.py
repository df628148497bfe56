"""Benchmark of ptdrsc, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Untraced runs (--trace 0) report the
end-to-end metrics: set-up is timed in five fresh interpreters (two before
the measured process, its own, two after) and reported as their median.
Traced runs (--trace 1) report the per-layer metrics.  Every run prints a
host-speed line, then one JSON object as its last line.  Raw per-run
results and span dumps go to perfbench/out/.  See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("cli-tables", "coulomb-waves", "partial-waves", "angular-transport")
SETUP_BEFORE = SETUP_AFTER = 2   # set-up samples around the measured process
CLI_SAMPLES = 3                  # bare-interpreter and import samples in a traced run
WORKER_SLACK_S = 120


class BenchError(Exception):
    pass


def host_loop_ms():
    """Median time of a fixed pure-Python loop: a gauge of the host's speed now."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def start_worker(args):
    """Launch worker.py and wait for ``ready``; returns (process, set-up seconds)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *args],
                            stdout=subprocess.PIPE, cwd=ROOT, env=child_env(), text=True,
                            start_new_session=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        stop(proc)
        raise BenchError(f"worker did not get ready (exit {proc.returncode})")
    return proc, ready


def stop(proc):
    """Kill the worker and anything it started, then reap it."""
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()


def setup_sample(worker_args):
    proc, ready = start_worker([*worker_args, "--setup-only"])
    try:
        proc.communicate(timeout=WORKER_SLACK_S)
    finally:
        stop(proc)
    if proc.returncode != 0:
        raise BenchError(f"set-up sample exited {proc.returncode}")
    return ready


def measured_run(worker_args, seconds):
    proc, ready = start_worker(worker_args)
    try:
        out, _ = proc.communicate(timeout=seconds + WORKER_SLACK_S)
    finally:
        stop(proc)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    return ready, json.loads(out.strip().splitlines()[-1])


def command_ms(code):
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                   check=True, capture_output=True)
    return (time.perf_counter() - start) * 1e3


def run(args):
    if not (ROOT / "src" / "ptdrsc" / "__init__.py").is_file():
        raise BenchError(f"no ptdrsc sources under {ROOT / 'src'}")
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    worker_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
    speed_start = host_loop_ms()
    if args.trace:
        _, result = measured_run(
            [*worker_args, "--dump", str(OUT / f"trace-{args.workload}.csv")], args.seconds)
        bare, imports = [], []
        for _ in range(CLI_SAMPLES):
            bare.append(command_ms("pass"))
            imports.append(command_ms("import ptdrsc"))
        result["metrics"]["cli.interpreter_ms"] = {"value": statistics.median(bare), "unit": "ms"}
        result["metrics"]["cli.import_ms"] = {"value": statistics.median(imports), "unit": "ms"}
    else:
        setups = [setup_sample(worker_args) for _ in range(SETUP_BEFORE)]
        ready, result = measured_run(worker_args, args.seconds)
        setups.append(ready)
        setups += [setup_sample(worker_args) for _ in range(SETUP_AFTER)]
        result["setup_samples_s"] = setups
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    speed_end = host_loop_ms()
    result["host_loop_ms"] = [speed_start, speed_end]
    (OUT / f"{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(f"host-speed: fixed loop {speed_start:.2f} ms at start, {speed_end:.2f} ms at end")
    summary = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        run(args)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
