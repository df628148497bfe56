"""One benchmark process: set up, print ``ready``, time whole passes, check.

Started by ``run.py`` in a fresh interpreter from the root of a checkout.
With ``--setup-only`` it stops after ``ready``, so that the parent can time
set-up again.  Otherwise it prints one JSON object as its last line.
"""

import argparse
import functools
import json
import math
import random
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


class Tally:
    """Latencies, outputs and pass counts over whole passes of one workload."""

    INPUT_QUANTILE = 75   # an input's latency: upper quartile over the passes

    def __init__(self, n_ops):
        self.first = [None] * n_ops      # output of each op in the first pass
        self.mismatches = 0              # outputs that differ from the first pass
        self.latencies = []
        self.by_op = [[] for _ in range(n_ops)]  # latency of each op, pass by pass
        self.pass_seconds = []
        self.raised = 0
        self.passes = 0

    def run_pass(self, ops, order):
        clock = time.perf_counter
        latencies, by_op, first = self.latencies, self.by_op, self.first
        start = clock()
        for i in order:
            t0 = clock()
            try:
                out = ops[i].run()
            except Exception as exc:  # noqa: BLE001 - an op that raises is a failed op
                out = ("raised", repr(exc))
                self.raised += 1
            latency = clock() - t0
            latencies.append(latency)
            by_op[i].append(latency)
            if self.passes == 0:
                first[i] = out
            elif out != first[i]:
                self.mismatches += 1
        self.passes += 1
        self.pass_seconds.append(clock() - start)

    def input_latencies(self):
        """Each input's latency, read as its upper quartile over the passes.

        The host alternates a steady throttled state with faster, noisier
        spells; the upper quartile reads the steady state (see README).
        """
        return [percentile(op, self.INPUT_QUANTILE) for op in self.by_op]

    def ops_per_s(self):
        """Completed ops of one pass over the pass's summed input latencies."""
        per_input = self.input_latencies()
        return (len(per_input) - self.raised / self.passes) / sum(per_input)


def judge(ops, tallies):
    """(correct, attempted, failed) over every pass of every tally.

    Each op is checked once against its reference; later passes must
    reproduce the first pass's output exactly.  An op with a named fault
    counts as failed without making the run incorrect.
    """
    first = tallies[0].first
    verdicts = []
    for op, out in zip(ops, first):
        try:
            verdicts.append(bool(op.check(out)))
        except Exception:  # noqa: BLE001 - a check that cannot parse the output fails it
            verdicts.append(False)
    passes = sum(t.passes for t in tallies)
    mismatches = sum(t.mismatches for t in tallies)
    if any(t.first != first for t in tallies[1:]):
        mismatches += 1
    failed = passes * sum(not v for v in verdicts) + mismatches
    correct = mismatches == 0 and all(v or op.expected_fault for v, op in zip(verdicts, ops))
    return correct, passes * len(ops), failed, verdicts


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(p / 100.0 * len(ordered)), 1) - 1]


def timed_passes(wl, seconds, order_rng, tallies, tracer=None):
    """Whole passes until ``seconds`` have gone by; the last pass runs over.

    Without a tracer every pass is untraced (tallies[0]).  With one, passes
    alternate untraced (tallies[0]) and traced (tallies[1]).  The first
    traced pass keeps its spans and returns its own LayerStats, from which
    the counts per pass are read; later traced passes add to tracer.stats.
    """
    from tracing import LayerStats

    n = len(wl.ops)
    deadline = time.perf_counter() + seconds
    first = None
    while True:
        tallies[0].run_pass(wl.ops, order_rng.sample(range(n), n))
        if tracer is not None:
            tracer.keep = first is None
            wl.tracer = tracer
            with tracer:
                tallies[1].run_pass(wl.ops, order_rng.sample(range(n), n))
            wl.tracer = None
            if first is None:
                first, tracer.stats, tracer.keep = tracer.stats, LayerStats(), False
        if time.perf_counter() >= deadline:
            return first


def run_probe(tracer, root):
    """One fixed traced pass over every layer; returns its LayerStats.

    It gives a figure for each layer that the workload itself does not call.
    """
    import workloads
    from ptdrsc import angular, radial, xsec
    from tracing import LayerStats

    probe = workloads.cli_tables(random.Random(0), root, in_process=True)
    ctx = workloads.context_for_eta(1.5, workloads.COULOMB_ENERGY)
    dcs = functools.partial(xsec.screened_rutherford_dcs, xsec.ScreenedRutherford(1.0, 0.5))
    calls = [op.run for op in probe.ops] + [
        lambda: angular.polar_solution(2.0, 3.0, 4).evaluator(0.7),
        lambda: angular.degenerate_solution(3.0, 2).evaluator(0.3),
        lambda: radial.radial_wavefunction_with_derivative(ctx, 2, 800.0 / ctx.wave_number),
        lambda: xsec.fit_screened(xsec.sigma_total(dcs), xsec.sigma_transport(dcs)),
        lambda: xsec.forward_probability(dcs),
    ]
    tracer.keep, tracer.stats, probe.tracer = True, LayerStats(), tracer
    with tracer:
        for call in calls:
            call()
    return tracer.stats


def layer_metrics(first, traced, probe):
    """Per-layer figures: the workload's own spans where it calls the layer,
    else the fixed probe's.  Counts are per traced pass (the first)."""
    import workloads

    def src(*names):
        return (first, traced) if traced.has(*names) else (probe, probe)

    out = {}

    def count(metric, *names):
        out[metric] = (sum(src(*names)[0].calls[n] for n in names), "count")

    def mean(metric, name, unit, scale=1.0, self_time=False):
        out[metric] = (src(name)[1].mean_us(name, self_time) * scale, unit)

    for case in workloads.CLI_CASES:
        mean(f"cli.main_ms.{case}", f"cli.main.{case}", "ms", 1e-3)
    small, large = "special.hyp1f1.small_z", "special.hyp1f1.large_z"
    count("special.hyp1f1.calls", small, large)
    mean("special.hyp1f1.small_z_us", small, "us/call")
    mean("special.hyp1f1.large_z_us", large, "us/call")
    for layer in ("special.log_gamma", "special.hyp2f1_terminating"):
        count(f"{layer}.calls", layer)
        mean(f"{layer}.us", layer, "us/call")
    mean("radial.phase_shift.self_us", "radial.phase_shift", "us/call", self_time=True)
    mean("radial.scattering_amplitude.us", "radial.scattering_amplitude", "us/call")
    for fn in ("radial_wavefunction", "radial_wavefunction_with_derivative"):
        mean(f"radial.{fn}.self_us", f"radial.{fn}", "us/call", self_time=True)
    for fn in ("polar_solution", "degenerate_solution"):
        mean(f"angular.{fn}.ms", f"angular.{fn}", "ms/call", 1e-3)
    levels = src("angular.polar_solution", "angular.degenerate_solution")[0]
    out["angular.integration_warnings"] = (levels.integration_warnings, "count")
    for fn in ("sigma_total", "sigma_transport", "scatter_probability", "fit_screened"):
        mean(f"xsec.{fn}.us", f"xsec.{fn}", "us/call")
    states = src("thermo.partition_function")[1]
    out["thermo.state_us"] = (states.outer_thermo_ns / states.calls["thermo.partition_function"]
                              / 1e3, "us")
    mean("bound.bound_level.us", "bound.bound_level", "us/call")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--dump", help="where a traced run writes its kept spans")
    args = parser.parse_args(argv)

    import ptdrsc
    if not Path(ptdrsc.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"ptdrsc imported from {ptdrsc.__file__}, not from this checkout")
    import workloads

    traced = bool(args.trace)
    build = workloads.BUILDERS[args.workload]
    wl = build(random.Random(args.seed), root=ROOT, in_process=traced)
    for op in wl.warm_up:
        op.run()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    order_rng = random.Random(f"order-{args.seed}")
    tallies = [Tally(len(wl.ops)) for _ in range(2 if traced else 1)]
    result = {}
    if traced:
        from tracing import Tracer
        tracer = Tracer()
        first = timed_passes(wl, args.seconds, order_rng, tallies, tracer)
        traced_stats = tracer.stats + first
        metrics = layer_metrics(first, traced_stats, run_probe(tracer, ROOT))
        plain, traced_t = tallies
        metrics["trace.overhead_ratio"] = (traced_t.ops_per_s() / plain.ops_per_s(), "ratio")
        result.update(passes=plain.passes + traced_t.passes)
        if args.dump:
            tracer.dump(args.dump)
    else:
        (tally,) = tallies
        timed_passes(wl, args.seconds, order_rng, tallies)
        usage = resource.RUSAGE_CHILDREN if wl.name == "cli-tables" else resource.RUSAGE_SELF
        metrics = {
            "ops_per_s": (tally.ops_per_s(), "1/s"),
            "op_p50_ms": (statistics.median(tally.input_latencies()) * 1e3, "ms"),
            "op_tail_ms": (percentile(tally.latencies, wl.tail_percentile) * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(usage).ru_maxrss / 1024.0, "MB"),
        }
        result.update(ops=len(tally.latencies), passes=tally.passes,
                      tail_percentile=wl.tail_percentile,
                      measured_s=sum(tally.pass_seconds), pass_seconds=tally.pass_seconds,
                      by_op_ms=[[round(x * 1e3, 4) for x in op] for op in tally.by_op])
    correct, attempted, failed, verdicts = judge(wl.ops, tallies)
    failing = sorted({op.kind + (" (named fault)" if op.expected_fault else "")
                      for op, ok in zip(wl.ops, verdicts) if not ok})
    result.update(correct=correct, attempted=attempted, failed=failed, failing_kinds=failing,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
