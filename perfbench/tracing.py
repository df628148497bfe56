"""Spans around the calls between ptdrsc's layers, for the traced runs.

The wrappers replace module-level names through which one layer calls
another (``radial.hyp1f1``, ``angular.quad``, ``xsec.scatter_probability``
...), so nothing under ``src/`` changes.  Every call is folded into the
current :class:`LayerStats` (calls, inclusive and self time).  While
``keep`` is set, each call is also kept as a span (name, start, end,
parent) in memory; :meth:`Tracer.dump` writes those out when the run ends.
Self time is a span's duration minus the time its child spans cover.
"""

import contextlib
import time
import warnings
from collections import Counter

from scipy.integrate import IntegrationWarning

from ptdrsc import angular, bound, radial, thermo, xsec

_SWITCH_RADIUS = 30.0  # special.hyp1f1: series at |z| ≤ 30, asymptotic above
THERMO_FUNCTIONS = ("partition_function", "mean_energy", "specific_heat",
                    "free_energy", "entropy")

# (module, attribute, span name); a callable name picks the span from the args.
TARGETS = (
    (radial, "hyp1f1", lambda a, b, z: "special.hyp1f1.small_z"
     if abs(z) <= _SWITCH_RADIUS else "special.hyp1f1.large_z"),
    (radial, "log_gamma", "special.log_gamma"),
    (angular, "hyp2f1_terminating", "special.hyp2f1_terminating"),
    (radial, "phase_shift", "radial.phase_shift"),
    (radial, "radial_wavefunction", "radial.radial_wavefunction"),
    (radial, "radial_wavefunction_with_derivative", "radial.radial_wavefunction_with_derivative"),
    (radial, "scattering_amplitude", "radial.scattering_amplitude"),
    (angular, "polar_solution", "angular.polar_solution"),
    (angular, "degenerate_solution", "angular.degenerate_solution"),
    (xsec, "sigma_total", "xsec.sigma_total"),
    (xsec, "sigma_transport", "xsec.sigma_transport"),
    (xsec, "scatter_probability", "xsec.scatter_probability"),
    (xsec, "fit_screened", "xsec.fit_screened"),
    (bound, "bound_level", "bound.bound_level"),
    *((thermo, fn, f"thermo.{fn}") for fn in THERMO_FUNCTIONS),
)


class LayerStats:
    """Per-span-name call counts, inclusive and self time."""

    def __init__(self):
        self.calls = Counter()
        self.total_ns = Counter()
        self.self_ns = Counter()
        self.outer_thermo_ns = 0    # thermo spans not nested in another thermo span
        self.integration_warnings = 0

    def __add__(self, other):
        out = LayerStats()
        for name in ("calls", "total_ns", "self_ns"):
            setattr(out, name, getattr(self, name) + getattr(other, name))
        out.outer_thermo_ns = self.outer_thermo_ns + other.outer_thermo_ns
        out.integration_warnings = self.integration_warnings + other.integration_warnings
        return out

    def has(self, *names):
        return any(self.calls[name] for name in names)

    def mean_us(self, name, self_time=False):
        table = self.self_ns if self_time else self.total_ns
        return table[name] / self.calls[name] / 1e3


class Tracer:
    """Installs the wrappers on enter and restores every patched name on exit."""

    def __init__(self):
        self.stats = LayerStats()
        self.keep = False
        self.spans = []         # kept spans: (name, start_ns, end_ns, parent index or -1)
        self._stack = []        # open frames: [name, kept index or -1, child ns]
        self._saved = []

    def _open(self, name):
        idx = -1
        if self.keep:
            idx = len(self.spans)
            self.spans.append(None)
        frame = [name, idx, 0]
        self._stack.append(frame)
        return frame

    def _close(self, frame, start, end):
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        name, idx, child_ns = frame
        dur = end - start
        if parent is not None:
            parent[2] += dur
        stats = self.stats
        stats.calls[name] += 1
        stats.total_ns[name] += dur
        stats.self_ns[name] += dur - child_ns
        if name.startswith("thermo.") and not (parent and parent[0].startswith("thermo.")):
            stats.outer_thermo_ns += dur
        if idx >= 0:
            self.spans[idx] = (name, start, end, parent[1] if parent else -1)

    def _wrap(self, name, fn):
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            frame = self._open(name(*args, **kwargs) if callable(name) else name)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame, start, clock())

        return wrapper

    def _wrap_quad(self, fn):
        def quad(*args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", IntegrationWarning)
                result = fn(*args, **kwargs)
            self.stats.integration_warnings += sum(
                issubclass(w.category, IntegrationWarning) for w in caught)
            return result

        return quad

    def __enter__(self):
        for module, attr, name in TARGETS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))
        self._saved.append((angular, "quad", angular.quad))
        angular.quad = self._wrap_quad(angular.quad)
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, e.g. one in-process CLI run."""
        frame = self._open(name)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(frame, start, time.perf_counter_ns())

    def dump(self, path):
        """Write the kept spans as CSV: index, name, start_ns, end_ns, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_ns,end_ns,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start},{end},{parent}\n")
