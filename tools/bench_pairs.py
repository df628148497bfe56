"""Alternating parent/change pairs of the benchmark, summarized into one BENCH file.

    python3 tools/bench_pairs.py --base PARENT_REV --out BENCH_N.json

Run from the root of a checkout.  The committed files of ``PARENT_REV`` and
of ``HEAD`` are exported with ``git archive`` into a fresh temporary
directory, so both sides run the benchmark exactly as committed and the
working tree is not touched.  For each of ``PAIRS`` pairs and every workload,
``python3 perfbench/run.py`` runs once on each side with the same seed; the
side that runs first alternates from pair to pair.  Pair ``i`` uses seed
``FIRST_SEED + i``.  The workloads, the run length and the metric names with
their better direction come from the parent's BENCHMARK.json, so both sides
run the one benchmark definition.

The output holds every run's end-to-end metrics, its ``correct``,
``attempted`` and ``failed`` counts, and per workload and metric each side's
median and quartiles, the median and quartiles of the change/parent ratio
within each pair, and the number of pairs the change wins (ties count for
neither side).  The within-pair ratio cancels the host's drift between pairs,
which moves both sides of a pair alike; the side medians do not.

Each pair also runs the tier-1 test suite (``TIER1``, with ``src`` on
``PYTHONPATH``) once per side, after the workloads and in the same order.
Its runs record the wall seconds and the passed and failed counts, and its
summary the same medians, ratio and wins for the wall time.

The file is rewritten after every pair, so an interrupted session keeps the
pairs it finished.
"""

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
HEAD = "HEAD"
PAIRS = 10
FIRST_SEED = 1
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev, dest):
    """Extract the committed files of ``rev`` into ``dest``."""
    dest.mkdir()
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_once(checkout, workload, seed, seconds):
    """One untraced benchmark run; returns its summary line as a dict."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {checkout} exited "
                           f"{proc.returncode}: {proc.stderr.strip()}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: m["value"] for name, m in summary["metrics"].items()},
    }


def run_tier1(checkout):
    """One run of the tier-1 suite: wall seconds and the outcome counts of
    pytest's last line."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in ("src", os.environ.get("PYTHONPATH")) if p)}
    start = time.monotonic()
    proc = subprocess.run([sys.executable, *TIER1], cwd=checkout, env=env,
                          capture_output=True, text=True)
    wall = time.monotonic() - start
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {kind: int(n) for n, kind in re.findall(r"(\d+) (passed|failed|error)", last)}
    return {
        "returncode": proc.returncode,
        "passed": counts.get("passed", 0),
        "failed": counts.get("failed", 0) + counts.get("error", 0),
        "metrics": {"wall_s": wall},
    }


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs, metrics):
    """Per metric: each side's median and quartiles, the same for the
    change/parent ratio within each pair, and the change's pair wins."""
    out = {}
    for name, better in metrics.items():
        pairs = [(r["parent"]["metrics"][name], r["change"]["metrics"][name]) for r in runs]
        if len(pairs) < 2:
            continue
        sign = 1.0 if better == "higher" else -1.0
        out[name] = {
            "better": better,
            "parent": spread([p for p, _ in pairs]),
            "change": spread([c for _, c in pairs]),
            # None where a parent run reads 0 and the ratio has no value
            "ratio": spread([c / p for p, c in pairs]) if all(p for p, _ in pairs) else None,
            "change_wins": sum(sign * (c - p) > 0 for p, c in pairs),
            "ties": sum(c == p for p, c in pairs),
            "pairs": len(pairs),
        }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="parent revision")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    revs = {"parent": git("rev-parse", args.base), "change": git("rev-parse", HEAD)}
    tmp = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    try:
        checkouts = {side: tmp / side for side in SIDES}
        for side in SIDES:
            export(revs[side], checkouts[side])
        spec = json.loads((checkouts["parent"] / "BENCHMARK.json").read_text())
        metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
        workloads = [w["name"] for w in spec["workloads"]]
        seconds = spec["run_seconds"]
        result = {
            "revisions": revs,
            "seconds": seconds,
            "host": {"python": platform.python_version(), "machine": platform.machine(),
                     "cpus": len(os.sched_getaffinity(0))},
            "workloads": {w: {"runs": [], "summary": {}} for w in workloads},
            "tier1": {"command": ["python", *TIER1], "runs": [], "summary": {}},
        }
        for pair in range(PAIRS):
            seed = FIRST_SEED + pair
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for workload in workloads:
                run = {"pair": pair, "seed": seed, "first": order[0]}
                for side in order:
                    start = time.monotonic()
                    run[side] = run_once(checkouts[side], workload, seed, seconds)
                    print(f"pair {pair} {workload} {side}: {time.monotonic() - start:.0f} s",
                          file=sys.stderr, flush=True)
                entry = result["workloads"][workload]
                entry["runs"].append(run)
                entry["summary"] = summarize(entry["runs"], metrics)
            run = {"pair": pair, "first": order[0]}
            for side in order:
                run[side] = run_tier1(checkouts[side])
                print(f"pair {pair} tier-1 {side}: {run[side]['metrics']['wall_s']:.0f} s, "
                      f"{run[side]['passed']} passed, {run[side]['failed']} failed",
                      file=sys.stderr, flush=True)
            entry = result["tier1"]
            entry["runs"].append(run)
            entry["summary"] = summarize(entry["runs"], {"wall_s": "lower"})
            args.out.write_text(json.dumps(result, indent=1) + "\n")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
