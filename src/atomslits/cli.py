"""Command-line surface: scenario patterns, sweeps, which-way tables, report.

Subcommands:

  pattern    build one scenario, apply transforms, emit the sampled fringe
  sweep      tabulate visibility against beta, with the closed-form reference
  whichway   coherent-probe path discrimination and its certainty tradeoff
  report     run the acceptance suite and emit a pass/fail JSON summary

Exit codes: 0 success, 2 flag or combination error or output that cannot be
written, 3 physics-domain error (truncation guard, empty post-selection,
perturbative domain), 4 acceptance failure. Identical flags produce
byte-identical output; no timestamps are ever written.
"""

from __future__ import annotations

import argparse
import gc
import math
import sys

import numpy as np

from . import scenarios
from ._version import __version__
from .errors import PhysicsDomainError, ScenarioError
from .scenarios import Config, Pulse, ScenarioSpec, Treatment, _run
from .transforms import PROJECTOR_NAMES
from .twopath import FreqTag, pattern, visibility

__all__ = ["main", "entry"]

EXIT_OK = 0
EXIT_FLAG = 2
EXIT_PHYSICS = 3
EXIT_ACCEPTANCE = 4

# Largest --samples accepted; the sampled curve is a consistency check, and
# this bound keeps a mistyped count from exhausting memory.
MAX_SAMPLES = 65536
# Largest STEPS in sweep --beta-range MIN:MAX:STEPS; each step builds up to
# two scenarios, so the bound keeps a mistyped count from running for hours.
MAX_SWEEP_STEPS = 10000
# The flag of each ScenarioError field whose flag is not "--" + field.
_FIELD_FLAGS = {"coupling_g": "--coupling", "evolve_time": "--evolve-time",
                "nsamples": "--samples"}


class FlagError(Exception):
    """An invalid flag value or combination; carries the offending flag name."""

    def __init__(self, flag: str, message: str):
        super().__init__(f"{flag}: {message}")
        self.flag = flag


def _complex_arg(text: str) -> complex:
    try:
        return complex(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a real or complex number: {text!r}")


def _fmt(x: float) -> str:
    """Shortest round-trip decimal for CSV cells."""
    return repr(float(x))


def build_parser() -> argparse.ArgumentParser:
    scenario = argparse.ArgumentParser(add_help=False)
    scenario.add_argument("--config", required=True, choices=[c.value for c in Config],
                          help="slit configuration")
    scenario.add_argument("--pulse", choices=[p.value for p in Pulse], default="short",
                          help="light pulse regime (default: short)")
    scenario.add_argument("--treatment", choices=[t.value for t in Treatment], default=None,
                          help="exact coherent-state markers or first-order amplitudes "
                               "(default: first for config E, exact elsewhere)")
    scenario.add_argument("--beta", type=_complex_arg, default=None,
                          help="recoil kick amplitude, complex accepted (default: 0)")
    scenario.add_argument("--alpha", type=_complex_arg, default=None,
                          help="longitudinal common-mode kick, config D only")
    scenario.add_argument("--epsilon", type=float, default=0.01,
                          help="scattering amplitude, in [1.4917e-154, 0.1] (default: 0.01)")
    scenario.add_argument("--coupling", type=float, default=None,
                          help="slit-slit coupling g, config E only; the normal modes "
                               "split by the beat frequency 2g")
    scenario.add_argument("--evolve-time", type=float, default=None, dest="evolve_time",
                          help="beat evolution time, config E only; a quarter beat "
                               "period is pi/(4g)")
    scenario.add_argument("--nmax", type=int, default=16,
                          help="Fock truncation per mode (default: 16)")
    scenario.add_argument("--eraser", action="store_true",
                          help="apply the which-way eraser rotation")
    scenario.add_argument("--dispersive", type=_parse_tags, default=None, metavar="TAG[,TAG]",
                          help="pi phase flip on tagged components; tags: "
                               + ",".join(t.value for t in FreqTag))
    scenario.add_argument("--coincidence", choices=PROJECTOR_NAMES, default=None, metavar="NAME",
                          help="condition on a named projector: " + ", ".join(PROJECTOR_NAMES))

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--samples", type=int, default=None,
                        help=f"number of detector phases sampled, at most {MAX_SAMPLES} "
                             "(default: 256)")
    output.add_argument("--format", choices=["csv", "json"], default="csv",
                        help="output format (default: csv)")
    output.add_argument("--out", default=None, metavar="PATH",
                        help="output file (default: stdout)")

    parser = _Parser(
        prog="atomslits",
        description="Fringe visibility and which-way information for double-slit "
                    "experiments whose slits are single trapped atoms.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pattern", parents=[scenario, output],
                       help="emit the interference pattern of one scenario")
    p.set_defaults(handler=cmd_pattern)

    s = sub.add_parser("sweep", parents=[scenario, output],
                       help="sweep beta and tabulate visibilities against the "
                            "closed-form reference")
    s.add_argument("--beta-range", required=True, metavar="MIN:MAX:STEPS",
                   dest="beta_range",
                   help=f"real sweep range, MIN >= 0, STEPS at most {MAX_SWEEP_STEPS}")
    s.set_defaults(handler=cmd_sweep)

    w = sub.add_parser("whichway",
                       help="coherent-probe path discrimination probabilities")
    w.add_argument("--beta", type=float, required=True, help="marker kick, real >= 0")
    w.add_argument("--delta", type=float, required=True, help="probe amplitude, real >= 0")
    w.add_argument("--nmax", type=int, default=16)
    w.add_argument("--format", choices=["csv", "json"], default="csv")
    w.add_argument("--out", default=None, metavar="PATH")
    w.set_defaults(handler=cmd_whichway)

    r = sub.add_parser("report", help="run the acceptance suite, emit a JSON summary")
    r.add_argument("--out", default=None, metavar="PATH")
    r.set_defaults(handler=cmd_report, format="json")

    return parser


def _validate_scenario_flags(args) -> None:
    if args.alpha is not None and args.config != "D":
        raise FlagError("--alpha", f"applies to config D only, not config {args.config}")
    if args.coupling is not None and args.config != "E":
        raise FlagError("--coupling", f"applies to config E only, not config {args.config}")
    if args.evolve_time is not None and args.config != "E":
        raise FlagError("--evolve-time", f"applies to config E only, not config {args.config}")


def _parse_tags(text: str) -> set[FreqTag]:
    tags = set()
    for piece in text.split(","):
        piece = piece.strip()
        try:
            tags.add(FreqTag(piece))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"unknown tag {piece!r}; tags: " + ",".join(t.value for t in FreqTag))
    return tags


def _make_spec(args, beta: complex) -> ScenarioSpec:
    return ScenarioSpec(
        config=args.config,
        pulse=args.pulse,
        beta=beta,
        alpha=args.alpha if args.alpha is not None else 0j,
        epsilon=args.epsilon,
        coupling_g=args.coupling if args.coupling is not None else 0.0,
        evolve_time=args.evolve_time if args.evolve_time is not None else 0.0,
        treatment=args.treatment,
        nmax=args.nmax,
    )


def _write(args, payload, meta=None, header="", rows=()) -> None:
    """Write payload as JSON, or meta, header and rows as CSV; to stdout or --out.

    Output that cannot be written is a FlagError naming --out or stdout.
    """
    if args.format == "json":
        import json  # CSV calls skip its import

        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [f"# {key}={value}" for key, value in meta.items()]
        lines.append(header)
        lines.extend(",".join(_fmt(x) for x in row) for row in rows)
        text = "\n".join(lines) + "\n"
    _put(text, args.out)


def _put(text: str, out: str | None) -> None:
    """Write text to stdout or the file out; a FlagError names where it cannot be written."""
    try:
        if out is None:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
    except OSError as exc:
        raise FlagError("stdout" if out is None else "--out",
                        f"cannot write output: {exc.strerror or exc}")


class _Parser(argparse.ArgumentParser):
    """argparse's parser, except that help and version text goes through _put, not lost."""

    def _print_message(self, message, file=None):
        if message and file is sys.stdout:
            _put(message, None)
        else:
            super()._print_message(message, file)


def cmd_pattern(args) -> int:
    _validate_scenario_flags(args)
    samples = 256 if args.samples is None else args.samples
    if samples > MAX_SAMPLES:
        raise FlagError("--samples", f"must be <= {MAX_SAMPLES}, got {samples}")
    spec = _make_spec(args, 0j if args.beta is None else args.beta)
    mixture, post_selection = _run(spec, args.eraser, args.dispersive, args.coincidence)
    scan = pattern(mixture, samples)
    applied = ["eraser"] if args.eraser else []
    if args.dispersive is not None:
        applied.append("dispersive:" + ",".join(sorted(t.value for t in args.dispersive)))
    if args.coincidence is not None:
        applied.append(f"coincidence:{args.coincidence}")
    meta = {"version": __version__, "command": "pattern"}
    meta.update(spec.to_dict())
    meta["transforms"] = ";".join(applied) if applied else "none"
    meta["condition"] = args.coincidence or "none"
    meta["post_selection_probability"] = _fmt(post_selection)
    meta["visibility"] = _fmt(scan.visibility)
    meta["phase_offset"] = _fmt(scan.phase_offset)
    payload = {
        "meta": {
            "spec": spec.to_dict(),
            "transforms": applied,
            "version": __version__,
        },
        "pattern": {
            "phis": scan.phis.tolist(),
            "intensities": scan.intensities.tolist(),
        },
        "visibility": scan.visibility,
        "phase_offset": scan.phase_offset,
        "condition": meta["condition"],
        "post_selection_probability": post_selection,
    }
    _write(args, payload, meta, "phi,intensity", zip(scan.phis, scan.intensities))
    return EXIT_OK


def _parse_beta_range(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise FlagError("--beta-range", f"expected MIN:MAX:STEPS, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        steps = int(parts[2])
    except ValueError:
        raise FlagError("--beta-range", f"expected numbers MIN:MAX:STEPS, got {text!r}")
    if steps < 1:
        raise FlagError("--beta-range", "needs at least one step")
    if steps > MAX_SWEEP_STEPS:
        raise FlagError("--beta-range", f"STEPS must be <= {MAX_SWEEP_STEPS}, got {steps}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise FlagError("--beta-range", f"MIN and MAX must be finite, got {text!r}")
    if lo < 0:
        raise FlagError("--beta-range", "MIN must be >= 0")
    if hi < lo:
        raise FlagError("--beta-range", "MAX must be >= MIN")
    return np.linspace(lo, hi, steps)


def _sweep_visibilities(args, beta: float) -> tuple[float, float]:
    """Visibility in the exact and first-order lanes, after any transforms.

    The lanes are the regime's treatments, or the spec's own treatment if there
    are none; a single lane fills both columns.
    """
    spec = _make_spec(args, beta)
    lanes = [visibility(_run(spec._replace(treatment=t), args.eraser, args.dispersive,
                             args.coincidence)[0])
             for t in spec.treatments or (spec.treatment,)]
    return lanes[0], lanes[-1]


def cmd_sweep(args) -> int:
    from . import closedform

    _validate_scenario_flags(args)
    if args.beta is not None:
        raise FlagError("--beta", "sweep takes its betas from --beta-range")
    if args.samples is not None:
        raise FlagError("--samples", "sweep samples no pattern; it prints one row per beta")
    betas = _parse_beta_range(args.beta_range)
    rows = []
    for b in betas:
        v_exact, v_first = _sweep_visibilities(args, float(b))
        reference = closedform.first_order_contrast(args.config, float(b))
        rows.append(
            {
                "beta": float(b),
                "visibility_exact": v_exact,
                "visibility_first_order": v_first,
                "oracle": reference,
                "deviation": abs(v_exact - reference),
            }
        )
    spec_echo = _make_spec(args, 0j).to_dict()
    spec_echo["beta"] = args.beta_range
    meta = {"version": __version__, "command": "sweep"}
    meta.update(spec_echo)
    payload = {
        "meta": {"spec": spec_echo, "version": __version__},
        "rows": rows,
    }
    _write(args, payload, meta, ",".join(rows[0]), (r.values() for r in rows))
    return EXIT_OK


def cmd_whichway(args) -> int:
    from . import closedform

    if not 0 <= args.beta < math.inf:
        raise FlagError("--beta", "must be finite and >= 0")
    if not 0 <= args.delta < math.inf:
        raise FlagError("--delta", "must be finite and >= 0")
    ref = closedform.whichway_probabilities(args.beta, args.delta)
    p_plus, p_minus = scenarios._whichway(args.beta, args.delta, args.nmax)
    # a unit overlap can round a few ulps above 1
    sim_plus, sim_minus = min(p_plus, 1.0), min(p_minus, 1.0)
    curve = closedform.tradeoff_curve(args.beta) if args.beta > 0 else []
    payload = {
        "meta": {"version": __version__, "beta": args.beta, "delta": args.delta,
                 "nmax": args.nmax},
        "p_plus": ref.p_plus,
        "p_minus": ref.p_minus,
        "fractional_error": ref.fractional_error,
        "detect_prob": ref.detect_prob,
        "simulated": {
            "p_plus": sim_plus,
            "p_minus": sim_minus,
            "ratio": sim_minus / sim_plus,
        },
        "tradeoff": [
            {"fractional_error": p.fractional_error, "required_delta": p.delta,
             "detect_prob": p.detect_prob}
            for p in curve
        ],
    }
    meta = {
        "version": __version__,
        "command": "whichway",
        "beta": _fmt(args.beta),
        "delta": _fmt(args.delta),
        "nmax": args.nmax,
        "p_plus": _fmt(ref.p_plus),
        "p_minus": _fmt(ref.p_minus),
        "fractional_error": _fmt(ref.fractional_error),
        "detect_prob": _fmt(ref.detect_prob),
        "simulated_p_plus": _fmt(sim_plus),
        "simulated_p_minus": _fmt(sim_minus),
        "simulated_ratio": _fmt(sim_minus / sim_plus),
    }
    _write(args, payload, meta, "fractional_error,required_delta,detect_prob",
           ((p.fractional_error, p.delta, p.detect_prob) for p in curve))
    return EXIT_OK


def cmd_report(args) -> int:
    from . import acceptance

    report = acceptance.run_all()
    _write(args, report)
    return EXIT_OK if report["passed"] else EXIT_ACCEPTANCE


def main(argv=None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # argparse exits itself on usage errors, --help, --version
            return int(exc.code or 0)
        return args.handler(args)
    except PhysicsDomainError as exc:
        print(f"atomslits: physics domain error: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    except ScenarioError as exc:  # a value or combination the library refused, by field
        flag = _FIELD_FLAGS.get(exc.field, "--" + exc.field)
        print(f"atomslits: error: {flag}: {exc}", file=sys.stderr)
        return EXIT_FLAG
    except (FlagError, ValueError) as exc:
        print(f"atomslits: error: {exc}", file=sys.stderr)
        return EXIT_FLAG


def entry() -> None:
    """Process entry point: exit with main's code.

    The objects alive when main returns are frozen, so the interpreter's final
    collection skips the heap numpy and atomslits loaded. The rest of shutdown
    (atexit handlers, the stdio flush, module cleanup) runs as usual.
    """
    code = main()
    gc.freeze()
    raise SystemExit(code)
