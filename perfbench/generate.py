"""Seeded inputs for the three workloads.

The same seed gives the same inputs, a different seed different ones. Only
combinations that the README and `build` accept are emitted, plus a fixed
list of calls the docs reject with exit code 2 or 3. Known-wrong regions of
the domain are left out so that fixing them changes neither the traffic nor
the verdict: no NaN or infinite values, |beta|^2 < 0.5 on every lane (the
golden-rule and first-order-C domain) and |alpha| <= 1.2, well inside the
nmax 16 truncation guard.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from . import oracle

TWO_MODE_PROJECTORS = ("ground", "atom1_excited", "atom2_excited", "sym", "antisym")
ONE_MODE_PROJECTORS = ("ground", "single_atom_0", "single_atom_1")
TAGS = ("ELASTIC", "SHIFTED", "SYM", "ANTISYM")

# (config, pulse, treatment) lanes the CLI and build accept; None leaves the
# treatment to its default, which is the only meaning a long pulse has.
SCENARIOS = (
    ("A", "short", None),
    ("A", "long", None),
    ("B", "short", "exact"),
    ("B", "short", "first"),
    ("B", "long", None),
    ("C1", "short", "exact"),
    ("C1", "short", "first"),
    ("C1", "long", None),
    ("C2", "short", "exact"),
    ("C2", "short", "first"),
    ("C2", "long", None),
    ("D", "short", "exact"),
    ("D", "short", "first"),
    ("E", "short", "first"),
    ("E", "long", None),
)

# One block of CLI traffic: call kinds and how many of each.
CLI_BLOCK = (("pattern", 12), ("sweep", 3), ("whichway", 2), ("report", 1), ("reject", 2))

# Calls the docs reject: argv tail and expected exit code (2 flag, 3 domain).
REJECTED = (
    (["pattern", "--config", "D", "--pulse", "long"], 2),
    (["pattern", "--config", "E", "--treatment", "exact"], 2),
    (["pattern", "--config", "B", "--alpha", "0.5"], 2),
    (["pattern", "--config", "C1", "--coupling", "0.5"], 2),
    (["pattern", "--config", "B", "--evolve-time", "1.0"], 2),
    (["pattern", "--config", "B", "--coincidence", "nowhere"], 2),
    (["pattern", "--config", "B", "--dispersive", "BLUE"], 2),
    (["pattern", "--config", "C1", "--coincidence", "atom1_excited"], 2),
    (["pattern", "--config", "C2", "--eraser"], 2),
    (["pattern", "--config", "B", "--epsilon", "0.5"], 2),
    (["pattern", "--config", "B", "--nmax", "1"], 2),
    (["pattern", "--config", "B", "--samples", "8"], 2),
    (["pattern", "--config", "Z"], 2),
    (["sweep", "--config", "B", "--beta-range", "0.3:0.1:4"], 2),
    (["sweep", "--config", "B", "--beta-range", "0:0.3:0"], 2),
    (["whichway", "--beta=-0.5", "--delta", "0.3"], 2),
    (["pattern", "--config", "B", "--beta", "5"], 3),
    (["pattern", "--config", "B", "--treatment", "first", "--beta", "1.2"], 3),
    (["pattern", "--config", "A", "--coincidence", "atom1_excited"], 3),
)

MARKER_KINDS = ("B_short_exact", "B_short_first", "B_long", "E_short", "E_long", "D_short")
MARKER_NMAX = (32, 48, 64)


def _num(x: float) -> str:
    return f"{x:.6g}"


def _complex_text(rng: random.Random, lo: float, hi: float) -> str:
    """A kick amplitude as CLI text: real most of the time, else complex."""
    r = rng.uniform(lo, hi)
    if rng.random() < 0.7:
        return _num(r if rng.random() < 0.8 else -r)
    phase = rng.uniform(-math.pi, math.pi)
    imag = _num(r * math.sin(phase))
    return f"{_num(r * math.cos(phase))}{imag if imag.startswith('-') else '+' + imag}j"


@dataclass
class Case:
    """One scenario plus its transform chain, as the CLI flags describe it."""

    config: str
    pulse: str = "short"
    treatment: str | None = None
    beta: str = "0"
    alpha: str | None = None
    epsilon: str | None = None
    coupling: str | None = None
    evolve_time: str | None = None
    nmax: int | None = None
    eraser: bool = False
    dispersive: list[str] | None = None
    coincidence: str | None = None

    def flags(self, with_beta: bool = True) -> list[str]:
        out = ["--config", self.config]
        if self.pulse != "short":
            out += ["--pulse", self.pulse]
        if self.treatment is not None:
            out += ["--treatment", self.treatment]
        if with_beta:
            out.append(f"--beta={self.beta}")
        for flag, value in (("--alpha", self.alpha), ("--epsilon", self.epsilon),
                            ("--coupling", self.coupling), ("--evolve-time", self.evolve_time)):
            if value is not None:
                out.append(f"{flag}={value}")
        if self.nmax is not None:
            out += ["--nmax", str(self.nmax)]
        if self.eraser:
            out.append("--eraser")
        if self.dispersive:
            out += ["--dispersive", ",".join(self.dispersive)]
        if self.coincidence is not None:
            out += ["--coincidence", self.coincidence]
        return out

    def resolved_treatment(self) -> str:
        if self.config == "E":
            return "first"
        return self.treatment or "exact"

    def two_mode(self) -> bool:
        return self.config not in ("C1", "C2")


@dataclass
class Call:
    """One CLI invocation: its kind, its argv after `atomslits`, what to expect."""

    kind: str
    argv: list[str]
    exit_code: int = 0
    case: Case | None = None
    fmt: str = "csv"
    samples: int = 256
    betas: tuple[float, float, int] | None = None
    whichway: tuple[float, float] | None = None


def random_case(rng: random.Random, scenario=None, beta_max: float = 0.65) -> Case:
    config, pulse, treatment = scenario or rng.choice(SCENARIOS)
    if treatment == ("first" if config == "E" else "exact") and rng.random() < 0.5:
        treatment = None  # leave the default to the CLI
    case = Case(config, pulse, treatment, _complex_text(rng, 0.05, beta_max))
    if config == "D" and rng.random() < 0.8:
        case.alpha = _complex_text(rng, 0.1, 1.2)
    if config == "E" and (pulse == "short" or rng.random() < 0.3):
        g = rng.uniform(0.2, 2.0)
        case.coupling = _num(g)
        case.evolve_time = _num(rng.uniform(0.0, math.pi / (2.0 * g)))
    if rng.random() < 0.2:
        case.epsilon = _num(rng.uniform(0.001, 0.1))
    return case


def add_transforms(rng: random.Random, case: Case, coincidence_p: float = 0.5) -> Case:
    """Random eraser / dispersive / coincidence valid for the marker space.

    A coincidence that would condition every path amplitude away is dropped
    by asking the oracle model, so every emitted call has a defined pattern.
    """
    if case.two_mode() and rng.random() < 0.5:
        case.eraser = True
    if rng.random() < 0.3:
        case.dispersive = sorted(rng.sample(TAGS, rng.randint(1, 2)))
    if rng.random() < coincidence_p:
        names = TWO_MODE_PROJECTORS if case.two_mode() else ONE_MODE_PROJECTORS
        for name in rng.sample(names, len(names)):
            case.coincidence = name
            if oracle.predict(case).post_selection > 1e-6:
                break
        else:
            case.coincidence = None
    return case


def pattern_call(rng: random.Random) -> Call:
    case = add_transforms(rng, random_case(rng))
    fmt = rng.choice(("csv", "json"))
    samples = rng.choice((16, 64, 256))
    argv = ["pattern", *case.flags(), "--samples", str(samples), "--format", fmt]
    return Call("pattern", argv, case=case, fmt=fmt, samples=samples)


def sweep_call(rng: random.Random) -> Call:
    case = random_case(rng, beta_max=0.6)
    lo = round(rng.uniform(0.0, 0.1), 4)
    hi = round(rng.uniform(lo + 0.05, 0.6), 4)
    steps = rng.randint(16, 200)
    case = add_transforms(rng, case, 0.4 if lo > 0.01 else 0.0)
    if case.coincidence is not None and any(
        oracle.predict(case, lane, b).post_selection <= 1e-6
        for lane in oracle.sweep_lanes(case) for b in (lo, hi)
    ):
        case.coincidence = None
    fmt = rng.choice(("csv", "json"))
    argv = ["sweep", *case.flags(with_beta=False), "--beta-range", f"{lo}:{hi}:{steps}",
            "--format", fmt]
    return Call("sweep", argv, case=case, fmt=fmt, betas=(lo, hi, steps))


def whichway_call(rng: random.Random) -> Call:
    beta = round(rng.uniform(0.0, 1.2), 4) if rng.random() < 0.9 else 0.0
    delta = round(rng.uniform(0.0, 1.2), 4)
    fmt = rng.choice(("csv", "json"))
    argv = ["whichway", "--beta", str(beta), "--delta", str(delta), "--format", fmt]
    return Call("whichway", argv, fmt=fmt, whichway=(beta, delta))


def reject_call(rng: random.Random) -> Call:
    argv, code = rng.choice(REJECTED)
    return Call("reject", list(argv), exit_code=code)


def cli_blocks(seed: int):
    """Endless CLI traffic as shuffled blocks, each with the CLI_BLOCK mix."""
    rng = random.Random(f"cli_calls:{seed}")
    makers = {"pattern": pattern_call, "sweep": sweep_call, "whichway": whichway_call,
              "reject": reject_call, "report": lambda _: Call("report", ["report"])}
    while True:
        kinds = [kind for kind, count in CLI_BLOCK for _ in range(count)]
        rng.shuffle(kinds)
        yield [makers[kind](rng) for kind in kinds]


@dataclass
class MarkerOp:
    """One in-process chain on a two-oscillator marker at large nmax."""

    kind: str
    case: Case
    beat: tuple[float, float] | None = None  # (g, t) for the explicit evolve_beat


def marker_op(rng: random.Random, kind: str, nmax: int) -> MarkerOp:
    config, pulse = kind.split("_")[:2]
    treatment = {"B_short_exact": "exact", "B_short_first": "first", "D_short": "exact",
                 "E_short": "first"}.get(kind)
    if kind == "D_short":
        treatment = rng.choice(("exact", "first"))
    case = random_case(rng, (config, pulse, treatment))
    case.nmax = nmax
    beat = None
    if config == "E":
        g = rng.uniform(0.2, 2.0)
        beat = (g, rng.uniform(0.0, math.pi / (2.0 * g)))
    else:
        case.eraser = True
    if pulse == "long":
        case.dispersive = sorted(rng.sample(TAGS, rng.randint(1, 2)))
    op = MarkerOp(kind, case, beat)
    for name in rng.sample(TWO_MODE_PROJECTORS, len(TWO_MODE_PROJECTORS)):
        case.coincidence = name
        if oracle.predict(case, beat=beat).post_selection > 1e-6:
            break
    return op


def marker_rounds(seed: int):
    """Endless rounds; each runs every kind at every nmax once, shuffled."""
    rng = random.Random(f"marker_scaling:{seed}")
    while True:
        ops = [marker_op(rng, kind, nmax) for kind in MARKER_KINDS for nmax in MARKER_NMAX]
        rng.shuffle(ops)
        yield ops
