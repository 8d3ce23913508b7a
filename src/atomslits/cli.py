"""Command-line handlers: scenario patterns, sweeps, which-way tables, report.

Subcommands:

  pattern    build one scenario, apply transforms, emit the sampled fringe
  sweep      tabulate visibility against beta, with the closed-form reference
  whichway   coherent-probe path discrimination and its certainty tradeoff
  report     run the acceptance suite and emit a pass/fail JSON summary

atomslits.front parses and checks each call, with the exit codes it lists, and
imports this module only for a call that computes. Each handler builds its JSON
payload first and takes the CSV `# key=value` lines from the payload's values, so
every printed number is computed once. Identical flags produce byte-identical
output; no timestamps are ever written.
"""

from __future__ import annotations

from . import scenarios
from ._version import __version__
from .front import EXIT_ACCEPTANCE, EXIT_OK, _write, build_parser, run
from .scenarios import _run
from .twopath import pattern, visibility

__all__ = ["main"]


def cmd_pattern(args) -> int:
    spec = args.spec
    mixture, post_selection = _run(spec, args.eraser, args.dispersive, args.coincidence)
    scan = pattern(mixture, args.samples)
    phis, intensities = scan._lists()
    applied = ["eraser"] if args.eraser else []
    if args.dispersive is not None:
        applied.append("dispersive:" + ",".join(sorted(t.value for t in args.dispersive)))
    if args.coincidence is not None:
        applied.append(f"coincidence:{args.coincidence}")
    payload = {
        "meta": {
            "spec": spec.to_dict(),
            "transforms": applied,
            "version": __version__,
        },
        "pattern": {
            "phis": phis,
            "intensities": intensities,
        },
        "visibility": scan.visibility,
        "phase_offset": scan.phase_offset,
        "condition": args.coincidence or "none",
        "post_selection_probability": post_selection,
    }
    meta = {"version": __version__, "command": "pattern", **payload["meta"]["spec"],
            "transforms": ";".join(applied) or "none"}
    meta.update((key, payload[key]) for key in
                ("condition", "post_selection_probability", "visibility", "phase_offset"))
    _write(args, payload, meta, "phi,intensity", zip(phis, intensities))
    return EXIT_OK


def _sweep_visibilities(args, beta: float) -> tuple[float, float]:
    """Visibility in the exact and first-order lanes, after any transforms.

    The lanes are the regime's treatments, or the spec's own treatment if there
    are none; a single lane fills both columns.
    """
    spec = args.spec
    lanes = [visibility(_run(spec._replace(beta=beta, treatment=t), args.eraser,
                             args.dispersive, args.coincidence)[0])
             for t in spec.treatments or (spec.treatment,)]
    return lanes[0], lanes[-1]


def _grid(lo: float, hi: float, steps: int) -> list[float]:
    """np.linspace(lo, hi, steps) to the bit: k * step + lo, or k / div * delta + lo where
    the step rounds to zero, with the last of several points pinned to hi."""
    delta, div = hi - lo, steps - 1
    step = delta / div if div else 0.0
    grid = [(k * step if step else (k / div if div else k) * delta) + lo for k in range(steps)]
    if div:
        grid[-1] = hi
    return grid


def cmd_sweep(args) -> int:
    from . import closedform

    rows = []
    for b in _grid(*args.betas):
        v_exact, v_first = _sweep_visibilities(args, b)
        reference = closedform.first_order_contrast(args.config, b)
        rows.append(
            {
                "beta": b,
                "visibility_exact": v_exact,
                "visibility_first_order": v_first,
                "oracle": reference,
                "deviation": abs(v_exact - reference),
            }
        )
    spec_echo = args.spec.to_dict()
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
    meta = {"version": __version__, "command": "whichway", **payload["meta"]}
    meta.update((key, payload[key]) for key in
                ("p_plus", "p_minus", "fractional_error", "detect_prob"))
    meta.update(("simulated_" + key, value) for key, value in payload["simulated"].items())
    _write(args, payload, meta, "fractional_error,required_delta,detect_prob",
           ((p.fractional_error, p.delta, p.detect_prob) for p in curve))
    return EXIT_OK


def cmd_report(args) -> int:
    from . import acceptance

    report = acceptance.run_all()
    _write(args, report)
    return EXIT_OK if report["passed"] else EXIT_ACCEPTANCE


def main(argv=None) -> int:
    """The CLI in process: the front's run, through this module's build_parser."""
    return run(build_parser(), argv)
