"""The front of the command line, which parses and checks every call without numpy.

`python -m atomslits` and the `atomslits` script enter through entry. The
flags, the ScenarioSpec and its physics domain are settled first; atomslits.cli,
which loads numpy, is imported only for a call that computes, so --help,
--version, every flag error and every truncation or perturbative refusal exit
before numpy loads. cli.main runs the same run function with cli's build_parser.

Exit codes: 0 success, 1 internal error (an assertion of the library failed), 2 flag
or combination error or output that cannot be written, 3 physics-domain error
(truncation guard, empty post-selection, perturbative domain), 4 acceptance failure.
"""

from __future__ import annotations

import argparse
import atexit
import errno
import functools
import gc
import math
import os
import sys

from ._version import __version__
from .errors import PhysicsDomainError, ScenarioError
from .spec import (
    _FIELD_CONFIGS,
    MAX_SAMPLES,
    PROJECTOR_NAMES,
    Config,
    FreqTag,
    Pulse,
    ScenarioSpec,
    Treatment,
    check_chain,
    check_domain,
    check_nsamples,
    check_whichway,
)

EXIT_OK = 0
EXIT_FLAG = 2
EXIT_PHYSICS = 3
EXIT_ACCEPTANCE = 4

# Largest STEPS in sweep --beta-range MIN:MAX:STEPS; each step builds up to
# two scenarios, so the bound keeps a mistyped count from running for hours.
MAX_SWEEP_STEPS = 10000
# The flag of each ScenarioError field that is not the field's name after "--".
_FIELD_FLAGS = {"coupling_g": "--coupling", "evolve_time": "--evolve-time",
                "nsamples": "--samples", "beta_range": "--beta-range", "stdout": "stdout"}


def _complex_arg(text: str) -> complex:
    try:
        return complex(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a real or complex number: {text!r}")


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


def _fmt(x: float) -> str:
    """Shortest round-trip decimal for CSV cells."""
    return repr(float(x))


def _add_run_flags(parser: argparse.ArgumentParser, pattern: bool) -> None:
    """The scenario and output flags; pattern adds --beta and --samples, sweep --beta-range.
    A scenario flag not given sets no attribute, so ScenarioSpec's default applies."""
    unset = argparse.SUPPRESS
    parser.add_argument("--config", required=True, choices=[c.value for c in Config],
                        help="slit configuration")
    parser.add_argument("--pulse", choices=[p.value for p in Pulse], default=unset,
                        help="light pulse regime (default: short)")
    parser.add_argument("--treatment", choices=[t.value for t in Treatment], default=unset,
                        help="exact coherent-state markers or first-order amplitudes "
                             "(default: first for config E, exact elsewhere)")
    if pattern:
        parser.add_argument("--beta", type=_complex_arg, default=unset,
                            help="recoil kick amplitude, complex accepted (default: 0)")
    parser.add_argument("--alpha", type=_complex_arg, default=unset,
                        help="longitudinal common-mode kick, config D only")
    parser.add_argument("--epsilon", type=float, default=unset,
                        help="scattering amplitude, in [1.4917e-154, 0.1] (default: 0.01)")
    parser.add_argument("--coupling", type=float, default=unset, dest="coupling_g",
                        metavar="COUPLING",
                        help="slit-slit coupling g, config E only; the normal modes "
                             "split by the beat frequency 2g")
    parser.add_argument("--evolve-time", type=float, default=unset, dest="evolve_time",
                        help="beat evolution time, config E only; a quarter beat "
                             "period is pi/(4g)")
    parser.add_argument("--nmax", type=int, default=unset,
                        help="Fock truncation per mode (default: 16)")
    parser.add_argument("--eraser", action="store_true",
                        help="apply the which-way eraser rotation")
    parser.add_argument("--dispersive", type=_parse_tags, default=None, metavar="TAG[,TAG]",
                        help="pi phase flip on tagged components; tags: "
                             + ",".join(t.value for t in FreqTag))
    parser.add_argument("--coincidence", choices=PROJECTOR_NAMES, default=None, metavar="NAME",
                        help="condition on a named projector: " + ", ".join(PROJECTOR_NAMES))
    if pattern:
        parser.add_argument("--samples", type=int, default=256,
                            help=f"number of detector phases sampled, at most {MAX_SAMPLES} "
                                 "(default: 256)")
    _output_flags(parser)
    if not pattern:
        parser.add_argument("--beta-range", required=True, metavar="MIN:MAX:STEPS",
                            dest="beta_range",
                            help=f"real sweep range, MIN >= 0, STEPS at most {MAX_SWEEP_STEPS}")


def _output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=["csv", "json"], default="csv",
                        help="output format (default: csv)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="output file (default: stdout)")


def _whichway_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--beta", type=float, required=True, help="marker kick, real >= 0")
    parser.add_argument("--delta", type=float, required=True, help="probe amplitude, real >= 0")
    parser.add_argument("--nmax", type=int, default=16,
                        help="Fock truncation per mode (default: 16)")
    _output_flags(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="atomslits",
        description="Fringe visibility and which-way information for double-slit "
                    "experiments whose slits are single trapped atoms.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("pattern", flags=functools.partial(_add_run_flags, pattern=True),
                   help="emit the interference pattern of one scenario",
                   ).set_defaults(settle=_settle_pattern)
    # no abbreviations, so that a --beta is refused, not read as --beta-range
    sub.add_parser("sweep", flags=functools.partial(_add_run_flags, pattern=False),
                   allow_abbrev=False,
                   help="sweep beta and tabulate visibilities against the "
                        "closed-form reference",
                   ).set_defaults(settle=_settle_sweep)
    sub.add_parser("whichway", flags=_whichway_flags,
                   help="coherent-probe path discrimination probabilities",
                   ).set_defaults(settle=_settle_whichway)
    sub.add_parser("report", flags=lambda r: r.add_argument("--out", metavar="PATH"),
                   help="run the acceptance suite, emit a JSON summary",
                   ).set_defaults(settle=lambda args: None, format="json")
    return parser


def _check_scenario_flags(args) -> None:
    for field, config in _FIELD_CONFIGS.items():
        if field in vars(args) and args.config != config.value:
            raise ScenarioError(field, f"applies to config {config.value} only, "
                                       f"not config {args.config}")


def _settle_spec(args, **fixed) -> None:
    """The spec of the scenario flags given, and of fixed, goes to args.spec, checked."""
    given = {name: value for name, value in vars(args).items() if name in ScenarioSpec._fields}
    args.spec = ScenarioSpec(**given, **fixed)
    check_chain(args.spec, args.eraser, args.coincidence)


def _settle_pattern(args) -> None:
    _check_scenario_flags(args)
    _settle_spec(args)
    check_nsamples(args.samples)
    check_domain(args.spec, args.coincidence)


def _parse_beta_range(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ScenarioError("beta_range", f"expected MIN:MAX:STEPS, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        steps = int(parts[2])
    except ValueError:
        raise ScenarioError("beta_range", f"expected numbers MIN:MAX:STEPS, got {text!r}")
    if steps < 1:
        raise ScenarioError("beta_range", "needs at least one step")
    if steps > MAX_SWEEP_STEPS:
        raise ScenarioError("beta_range", f"STEPS must be <= {MAX_SWEEP_STEPS}, got {steps}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ScenarioError("beta_range", f"MIN and MAX must be finite, got {text!r}")
    if lo < 0:
        raise ScenarioError("beta_range", "MIN must be >= 0")
    if hi < lo:
        raise ScenarioError("beta_range", "MAX must be >= MIN")
    return lo, hi, steps


def _settle_sweep(args) -> None:
    """Check sweep's flags: args.betas as (MIN, MAX, STEPS), and args.spec at beta 0."""
    _check_scenario_flags(args)
    args.betas = _parse_beta_range(args.beta_range)
    _settle_spec(args, beta=0j)


def _settle_whichway(args) -> None:
    check_whichway(args.beta, args.delta, args.nmax)


def _write(args, payload, meta=None, header="", rows=()) -> None:
    """Write payload as JSON, or meta, header and rows as CSV, each float by _fmt; to
    stdout or --out. Output that cannot be written is a ScenarioError of field "out"
    or "stdout".
    """
    if args.format == "json":
        import json  # CSV calls skip its import

        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [f"# {key}={_fmt(v) if isinstance(v, float) else v}" for key, v in meta.items()]
        lines.append(header)
        lines.extend(",".join(_fmt(x) for x in row) for row in rows)
        text = "\n".join(lines) + "\n"
    _put(text, args.out)


def _put(text: str, out: str | None) -> None:
    """Write text to stdout or the file out; a ScenarioError names where it cannot be written."""
    try:
        if out is None:
            if sys.stdout is None:  # the process started with stdout closed
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
    except OSError as exc:
        raise ScenarioError("stdout" if out is None else "out",
                            f"cannot write output: {exc.strerror or exc}")


class _Parser(argparse.ArgumentParser):
    """argparse's parser, except that help and version text goes through _put, not lost,
    a usage error's usage never goes to stdout, and flags(parser) adds the flags at the
    first parse: a call builds only its own."""

    def __init__(self, *args, flags=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._flags = flags

    def parse_known_args(self, args=None, namespace=None):
        if self._flags is not None:
            flags, self._flags = self._flags, None
            flags(self)
        return super().parse_known_args(args, namespace)

    def _print_message(self, message, file=None):
        if message and file is sys.stdout:
            _put(message, None)
        else:
            super()._print_message(message, file)

    def error(self, message):  # argparse's prints the usage to stdout where stderr is None
        self._print_message(self.format_usage(), sys.stderr)
        self.exit(2, f"{self.prog}: error: {message}\n")


def run(parser: argparse.ArgumentParser, argv=None) -> int:
    """Parse argv with parser, settle its flags, then import atomslits.cli and run
    the command's handler there: the exit code."""
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # argparse exits itself on usage errors, --help, --version
            return int(exc.code or 0)
        args.settle(args)
        from . import cli

        return getattr(cli, "cmd_" + args.command)(args)
    except PhysicsDomainError as exc:
        code, message = EXIT_PHYSICS, f"physics domain error: {exc}"
    except ScenarioError as exc:  # a refused value or combination, by field: name its flag
        flag = _FIELD_FLAGS.get(exc.field, "--" + exc.field)
        code, message = EXIT_FLAG, f"error: {flag}: {exc}"
    except ValueError as exc:
        code, message = EXIT_FLAG, f"error: {exc}"
    except AssertionError as exc:  # a fault of the library: exit 1, as an uncaught exception's
        code, message = 1, f"internal error: {exc}"
    try:  # as argparse's own, a stderr missing or on a closed descriptor loses the line
        sys.stderr.write(f"atomslits: {message}\n")
    except (AttributeError, OSError):
        pass
    return code


def main(argv=None) -> int:
    return run(build_parser(), argv)


def entry() -> None:
    """Process entry point: exit with main's code.

    The cyclic collector stays off for the whole process, so loading numpy and
    atomslits runs no collection. When main returns, the atexit handlers run and
    stdout and stderr are flushed, as at a normal exit, except a stream that is
    missing, closed or on a closed descriptor; the process then ends at os._exit,
    which skips module cleanup and the final collection.
    """
    gc.disable()
    code = main()
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, OSError, ValueError):
            pass
    os._exit(code)
