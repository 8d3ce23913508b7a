"""Spans and counts recorded around the public atomslits functions.

The tracer wraps functions from outside the package: `install` rebinds the
layer functions in the namespaces that the CLI, the acceptance suite and the
benchmark loop look them up in, so nothing under src/ changes. A span is
[name, start, end, parent, op]; spans stay in memory until the run ends.
A layer's self time is its span's duration minus its child spans.
"""

from __future__ import annotations

import time
import tracemalloc
from collections import defaultdict

# Public functions that form the layers, as the program's modules name them.
LAYER_FUNCTIONS = (
    "build",
    "apply_eraser",
    "evolve_beat",
    "apply_dispersive",
    "named_projector",
    "condition",
    "pattern",
    "visibility",
    "coherent_state",
    "displacement_operator",
)
# Calls whose tracemalloc peak is recorded: the dense dim x dim allocations.
PEAK_FUNCTIONS = ("apply_eraser", "named_projector", "condition")
# Marks the stderr line on which a traced CLI child hands back its spans.
TRACE_PREFIX = "PERFBENCH_TRACE "


def span_name(fn) -> str:
    """'twopath.condition' for atomslits.twopath.condition."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Collects spans and per-call memory peaks."""

    def __init__(self) -> None:
        self.enabled = False
        self.op = 0
        self.spans: list[list] = []
        self.peaks_mb: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, peak: bool = False, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
        self.spans.append(record)
        self._stack.append(index)
        measure = peak and not tracemalloc.is_tracing()
        if measure:
            tracemalloc.start()
        record[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
            if measure:
                peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
                self.peaks_mb[name] = max(self.peaks_mb[name], peak_mb)
        return result

    def wrap(self, fn, name: str | None = None):
        name = name or span_name(fn)
        peak = fn.__name__ in PEAK_FUNCTIONS

        def traced(*args, **kwargs):
            return self.call(name, fn, *args, peak=peak, **kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def op_call(self, fn, *args):
        """Run one benchmark operation under a root span named 'op'."""
        self.op += 1
        return self.call("op", fn, *args)

    def export(self) -> dict:
        return {
            "spans": self.spans,
            "peaks_mb": dict(self.peaks_mb),
        }

    def reset(self) -> dict:
        """Hand over everything recorded so far and start empty."""
        export = self.export()
        self.spans = []
        self.peaks_mb = defaultdict(float)
        return export


def install(tracer: Tracer) -> None:
    """Rebind the layer functions in every namespace the callers use."""
    import atomslits
    from atomslits import acceptance, cli, scenarios, transforms

    for module in (atomslits, cli, acceptance, scenarios, transforms):
        for attr in LAYER_FUNCTIONS:
            fn = getattr(module, attr, None)
            if fn is not None:
                setattr(module, attr, tracer.wrap(fn))
    acceptance.run_all = tracer.wrap(acceptance.run_all)

    run_criterion = acceptance.Criterion.run

    def traced_run(criterion, tolerance=None):
        return tracer.call(f"acceptance.{criterion.id}", run_criterion, criterion, tolerance)

    acceptance.Criterion.run = traced_run

    build_parser = cli.build_parser

    def traced_build_parser():
        parser = tracer.call("cli.build_parser", build_parser)
        parser.parse_args = tracer.wrap(parser.parse_args, "cli.parse_args")
        return parser

    cli.build_parser = traced_build_parser


def self_times(spans: list[list]) -> dict[str, list[tuple[float, float]]]:
    """Map span name to (self ms, inclusive ms) for each span in one list."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for (name, start, end, _, _), child in zip(spans, covered):
        out[name].append(((end - start - child) * 1e3, (end - start) * 1e3))
    return out
