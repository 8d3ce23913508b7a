"""The two workloads, the closed loop that drives each, and the metrics they report.

Load comes from one closed-loop caller: the next operation starts only after
the previous one has finished and been checked, and at most one measured
child process is alive at a time. Operation times exclude the oracle's check.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import atomslits
from atomslits import cli

from . import generate, oracle
from .launcher import Launcher
from .tracing import TRACE_PREFIX, Tracer, install, self_times

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
SAMPLE_PAIRS = 20
IMPORT_RUNS = 5
PROBE_RUNS = 3

# Set-up: what every fresh process pays before its first operation.
SETUP_ARGV = [sys.executable, "-c", (
    "import atomslits as a; "
    "a.pattern(a.build(a.ScenarioSpec('B', beta=0.3, treatment='first')))"
)]
# The machine-speed reference: a fixed program that no change to this
# repository can make faster or slower. It gives two readings: "start", its
# wall time less its kernel (interpreter start-up and `import numpy`), and
# "kernel", the time of a dense complex outer product and mat-vec at dim 2048
# that it prints. Reported times are scaled to a machine on which the
# readings take REFERENCE_MS (see README.md).
REFERENCE_ARGV = [sys.executable, "-c", (
    "import time; import numpy as np; v = np.arange(2048) + 0j; t = time.perf_counter()\n"
    "for _ in range(4): np.outer(v, v.conj()) @ v\n"
    "print((time.perf_counter() - t) * 1e3)"
)]
REFERENCE_MS = {"start": 160.0, "kernel": 130.0}

# name: (unit, better). What each per-layer metric should move, and on which
# workload, is tabulated in README.md.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "op_ms.mean": ("ms", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}
PER_LAYER = {
    "import.python_start_ms": ("ms", "lower"),
    "import.numpy_ms": ("ms", "lower"),
    "import.scipy_ms": ("ms", "lower"),
    "import.atomslits_ms": ("ms", "lower"),
    "cli.parse_ms": ("ms", "lower"),
    "cli.self_ms": ("ms", "lower"),
    "scenarios.build_ms": ("ms", "lower"),
    "scenarios.build_calls_per_op": ("calls/op", "lower"),
    "transforms.apply_eraser_ms": ("ms", "lower"),
    "transforms.evolve_beat_ms": ("ms", "lower"),
    "transforms.apply_dispersive_ms": ("ms", "lower"),
    "transforms.named_projector_ms": ("ms", "lower"),
    "transforms.apply_eraser_peak_mb": ("MB", "lower"),
    "transforms.named_projector_peak_mb": ("MB", "lower"),
    "twopath.condition_ms": ("ms", "lower"),
    "twopath.condition_peak_mb": ("MB", "lower"),
    "twopath.condition_calls_per_op": ("calls/op", "lower"),
    "twopath.pattern_ms": ("ms", "lower"),
    "twopath.visibility_ms": ("ms", "lower"),
    "fockspace.coherent_state_ms": ("ms", "lower"),
    "fockspace.coherent_state_calls_per_op": ("calls/op", "lower"),
    "fockspace.displacement_operator_ms": ("ms", "lower"),
    "fockspace.displacement_operator_calls_per_op": ("calls/op", "lower"),
    **{f"acceptance.{cid}_ms": ("ms", "lower") for cid in oracle.KNOWN_CRITERIA},
    "closedform.check_ms": ("ms", "lower"),
    "trace.overhead_ms": ("ms", "lower"),
    "trace.ops": ("count", "higher"),
}
PARSE_SPANS = ("cli.build_parser", "cli.parse_args")
CALLS_SUFFIX = "_calls_per_op"


@dataclass
class Outcome:
    """What one run measured."""

    plain_ms: list[float] = field(default_factory=list)
    traced_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    elapsed_s: float = 0.0
    rss_mb: list[float] = field(default_factory=list)
    exports: list[dict] = field(default_factory=list)

    def fail(self, exc: Exception) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{type(exc).__name__}: {exc}")

    def verdict(self, check, *args) -> None:
        self.attempted += 1
        try:
            check(*args)
        except Exception as exc:  # any unreadable output is a failed operation
            self.fail(exc)


def _modes(index: int, trace: bool) -> tuple[bool, ...]:
    """Untraced only, or both in an order that alternates from one op to the next."""
    if not trace:
        return (False,)
    return (False, True) if index % 2 == 0 else (True, False)


class LoopClock:
    """The measured loop's clock, with set-up and reference children spread over it.

    Between two operations, `poll()` runs the next pair of children when it is
    due: a set-up child, then a reference child. The pairs sample the machine
    over the same minute as the operations, and each set-up time can be read
    against the reference time taken right after it. The children's time is
    left out of the loop's elapsed time.
    """

    def __init__(self, seconds: float, launcher: Launcher, pairs: int) -> None:
        self.seconds = seconds
        self.launcher = launcher
        self.pairs = pairs
        self.setup_ms: list[float] = []
        self.reference_ms: dict[str, list[float]] = {"start": [], "kernel": []}
        self.paused = 0.0
        self.start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.start - self.paused

    def running(self) -> bool:
        return self.elapsed() < self.seconds

    def _sample(self) -> None:
        t0 = time.perf_counter()
        self.setup_ms.append(self.launcher.run(SETUP_ARGV)[0])
        wall_ms, _, _, out, _ = self.launcher.run(REFERENCE_ARGV)
        self.reference_ms["kernel"].append(float(out))
        self.reference_ms["start"].append(wall_ms - float(out))
        self.paused += time.perf_counter() - t0

    def poll(self) -> None:
        taken = len(self.setup_ms)
        if taken < self.pairs and self.elapsed() >= taken * self.seconds / self.pairs:
            self._sample()

    def finish(self) -> float:
        """Take the pairs still owed; return the loop's elapsed seconds."""
        elapsed = self.elapsed()
        while len(self.setup_ms) < self.pairs:
            self._sample()
        return elapsed


# --- cli_calls ------------------------------------------------------------


def _split_trace(err: str) -> tuple[str, dict | None]:
    head, sep, tail = err.rpartition("\n" + TRACE_PREFIX)
    if not sep:
        return err, None
    return head, json.loads(tail)


def cli_calls(seed: int, clock: LoopClock, trace: bool, tracer: Tracer) -> Outcome:
    """Closed loop over whole blocks of CLI calls; the block in progress finishes."""
    result = Outcome()
    tracer.enabled = trace  # only the oracle's own spans live in this process
    plain = [sys.executable, "-m", "atomslits"]
    traced = [sys.executable, str(ROOT / "perfbench" / "cli_traced.py")]
    blocks = generate.cli_blocks(seed)
    index = 0
    while clock.running():
        for call in next(blocks):
            clock.poll()
            index += 1
            for with_trace in _modes(index, trace):
                argv = (traced if with_trace else plain) + call.argv
                wall_ms, rss, code, out, err = clock.launcher.run(argv)
                if with_trace:
                    err, export = _split_trace(err)
                    if export is not None:
                        result.exports.append(export)
                    result.traced_ms.append(wall_ms)
                else:
                    result.plain_ms.append(wall_ms)
                    result.rss_mb.append(rss)
                tracer.call("closedform.check", result.verdict, oracle.check_cli,
                            call, code, out, err)
    return result


# --- marker_scaling -------------------------------------------------------


def _spec(case):
    return atomslits.ScenarioSpec(
        config=case.config,
        pulse=case.pulse,
        beta=complex(case.beta),
        alpha=complex(case.alpha or 0),
        epsilon=float(case.epsilon or 0.01),
        coupling_g=float(case.coupling or 0),
        evolve_time=float(case.evolve_time or 0),
        treatment=case.resolved_treatment(),
        nmax=case.nmax,
    )


def marker_chain(op):
    """build -> eraser or beat -> dispersive -> visibility -> projector -> condition -> pattern.

    Functions are looked up on the package at each call, so a traced run
    sees the tracer's wrappers.
    """
    case = op.case
    m = atomslits.build(_spec(case))
    if case.eraser:
        m = atomslits.apply_eraser(m)
    if op.beat is not None:
        m = atomslits.evolve_beat(m, *op.beat)
    if case.dispersive:
        m = atomslits.apply_dispersive(m, case.dispersive)
    unconditioned = atomslits.visibility(m)
    projector = atomslits.named_projector(case.coincidence, m.space)
    conditioned, post = atomslits.condition(m, projector)
    return unconditioned, atomslits.pattern(conditioned), post


def marker_scaling(seed: int, clock: LoopClock, trace: bool, tracer: Tracer) -> Outcome:
    """Closed loop over whole rounds of marker chains; the round in progress finishes."""
    result = Outcome()
    rounds = generate.marker_rounds(seed)
    index = 0
    while clock.running():
        for op in next(rounds):
            clock.poll()
            index += 1
            for with_trace in _modes(index, trace):
                tracer.enabled = with_trace
                t0 = time.perf_counter()
                try:
                    outcome = tracer.op_call(marker_chain, op)
                except Exception as exc:  # a raising op is a failed op, not a dead run
                    result.attempted += 1
                    result.fail(exc)
                    continue
                wall_ms = (time.perf_counter() - t0) * 1e3
                (result.traced_ms if with_trace else result.plain_ms).append(wall_ms)
                tracer.call("closedform.check", result.verdict, oracle.check_marker, op, outcome)
    tracer.enabled = False
    result.rss_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return result


WORKLOADS = {
    "cli_calls": cli_calls,
    "marker_scaling": marker_scaling,
}
# The reference reading that scales each workload's operations: the one that
# does the same kind of work. A CLI call is mostly start-up and imports; a
# marker chain is dense numpy work in a process that is already running.
OP_REFERENCE = {"cli_calls": "start", "marker_scaling": "kernel"}


# --- metrics --------------------------------------------------------------


def end_to_end(result: Outcome, clock: LoopClock,
               reference: str) -> tuple[dict[str, float], dict[str, float]]:
    """The metrics at the reference speed, and the same figures as measured.

    An operation time is multiplied by REFERENCE_MS over the mean of the
    workload's reference reading in this run, and a rate divided by it. A
    set-up time is read against the start-up reading of the reference child
    that ran right after it.
    """
    ms = result.plain_ms
    raw = {
        "setup_s": statistics.median(clock.setup_ms) / 1e3,
        "op_ms.mean": statistics.fmean(ms),
        "ops_per_s": len(ms) / result.elapsed_s,
        **{f"reference.{name}_ms": statistics.fmean(values)
           for name, values in clock.reference_ms.items()},
    }
    speed = REFERENCE_MS[reference] / raw[f"reference.{reference}_ms"]
    start = clock.reference_ms["start"]
    setup_ratio = statistics.median(s / r for s, r in zip(clock.setup_ms, start))
    scaled = {
        "setup_s": setup_ratio * REFERENCE_MS["start"] / 1e3,
        "op_ms.mean": raw["op_ms.mean"] * speed,
        "ops_per_s": raw["ops_per_s"] / speed,
        "peak_rss_mb": statistics.median(result.rss_mb),
    }
    return scaled, raw


def _importtime_ms(stderr: str) -> dict[str, float]:
    """Cumulative import ms of atomslits, and of numpy and scipy.

    A numpy or scipy module is charged to the outermost numpy or scipy import
    above it, so numpy modules that scipy pulls in count as scipy's.
    """
    entries = []  # (depth, name, cumulative us), children before their parent
    for line in stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 or "cumulative" in line:
            continue
        depth = (len(parts[2]) - len(parts[2].lstrip()) - 1) // 2
        entries.append((depth, parts[2].strip(), int(parts[1])))
    totals = {"numpy": 0, "scipy": 0}
    atomslits_us = 0
    stack: list[tuple[int, bool]] = []  # (depth, inside numpy or scipy)
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        package = name.split(".")[0]
        if package in totals and not inside:
            totals[package] += cumulative
        if name == "atomslits":
            atomslits_us = cumulative
        stack.append((depth, inside or package in totals))
    return {"import.numpy_ms": totals["numpy"] / 1e3, "import.scipy_ms": totals["scipy"] / 1e3,
            "import.atomslits_ms": atomslits_us / 1e3}


def import_metrics(launcher: Launcher) -> dict[str, float]:
    start = [launcher.run([sys.executable, "-c", "pass"])[0] for _ in range(IMPORT_RUNS)]
    runs = [_importtime_ms(launcher.run([sys.executable, "-X", "importtime", "-c",
                                         "import atomslits"])[4]) for _ in range(IMPORT_RUNS)]
    out = {"import.python_start_ms": statistics.median(start)}
    for key in runs[0]:
        out[key] = statistics.median(r[key] for r in runs)
    return out


def _probe_exports(tracer: Tracer) -> list[dict]:
    """Spans of in-process `atomslits report`, which reaches every layer."""
    main = tracer.wrap(cli.main, "cli.main")
    exports = []
    for _ in range(PROBE_RUNS):
        tracer.enabled = True
        with contextlib.redirect_stdout(io.StringIO()):
            tracer.op_call(main, ["report"])
        tracer.enabled = False
        exports.append(tracer.reset())
    return exports


def layer_values(exports: list[dict]) -> dict[str, float]:
    """Per-call figures from span exports: median self ms per call, and peaks.

    Keys other than the PER_LAYER names (such as the root span's) are dropped
    by the caller.
    """
    spans: dict[str, list[tuple[float, float]]] = {}
    parse_ms = []
    for export in exports:
        times = self_times(export["spans"])
        for name, values in times.items():
            spans.setdefault(name, []).extend(values)
        if "cli.main" in times:
            parse_ms.append(sum(incl for name in PARSE_SPANS for _, incl in times.get(name, ())))
    out = {}
    for name, values in spans.items():
        # a criterion is a container, so it reports its inclusive time
        column = 1 if name.startswith("acceptance.") else 0
        out[f"{name}_ms"] = statistics.median(v[column] for v in values)
    if parse_ms:
        out["cli.parse_ms"] = statistics.median(parse_ms)
        out["cli.self_ms"] = out["cli.main_ms"]
    for export in exports:
        for name, mb in export["peaks_mb"].items():
            out[f"{name}_peak_mb"] = max(out.get(f"{name}_peak_mb", 0.0), mb)
    return out


def calls_per_op(exports: list[dict], ops: int) -> dict[str, float]:
    """Calls of each counted layer per traced operation, so not a throughput."""
    counts = Counter(span[0] for export in exports for span in export["spans"])
    return {metric: counts[metric[: -len(CALLS_SUFFIX)]] / ops
            for metric in PER_LAYER if metric.endswith(CALLS_SUFFIX)}


def per_layer(result: Outcome, tracer: Tracer, imports: dict[str, float]) -> dict[str, float]:
    out = layer_values(result.exports)
    missing = [name for name in PER_LAYER if name not in out
               and not name.startswith(("import.", "trace.")) and not name.endswith(CALLS_SUFFIX)]
    if missing:  # per-call times of layers the traffic never reaches, probed outside any op
        probe = layer_values(_probe_exports(tracer))
        out.update({name: probe[name] for name in missing if name in probe})
    out.update(calls_per_op(result.exports, len(result.traced_ms)))
    out.update(imports)
    out["trace.ops"] = len(result.traced_ms)
    out["trace.overhead_ms"] = (statistics.fmean(result.traced_ms)
                                - statistics.fmean(result.plain_ms))
    return out


def run(workload: str, seed: int, seconds: float, trace: bool,
        launcher: Launcher) -> tuple[Outcome, dict, dict]:
    """Run one workload: its outcome, its metrics by name, and figures as measured.

    Untraced, the metrics are the end-to-end ones; traced, the per-layer ones.
    """
    tracer = Tracer()
    if not trace:
        clock = LoopClock(seconds, launcher, SAMPLE_PAIRS)
        result = WORKLOADS[workload](seed, clock, False, tracer)
        result.elapsed_s = clock.finish()
        if not result.plain_ms:
            return result, {}, {}
        return result, *end_to_end(result, clock, OP_REFERENCE[workload])
    imports = import_metrics(launcher)
    install(tracer)
    clock = LoopClock(seconds, launcher, 0)
    result = WORKLOADS[workload](seed, clock, True, tracer)
    result.elapsed_s = clock.finish()
    result.exports.insert(0, tracer.reset())
    metrics = per_layer(result, tracer, imports) if result.traced_ms else {}
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"spans-{workload}-{seed}.json", "w", encoding="utf-8") as fh:
        json.dump(result.exports, fh)
    return result, metrics, {}
