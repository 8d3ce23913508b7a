#!/usr/bin/env python3
"""Tabulate fringe contrast against the recoil kick for every slit configuration.

Writes one CSV per configuration/regime into --outdir and prints a summary
table comparing the simulated visibility with the closed-form reference.
--steps below 1, a --beta-max that is not finite or is below 0, and a kick
that any case refuses (past a perturbative bound, say) exit 2 with one error
line, and no file is written.

Usage:
    python scripts/contrast_sweep.py --beta-max 0.5 --steps 11 --outdir out/
"""

import argparse
import math
from pathlib import Path

from atomslits import closedform
from atomslits.cli import _grid
from atomslits.scenarios import Config, Pulse, ScenarioSpec, Treatment, build
from atomslits.twopath import visibility

CASES = [
    ("A_rigid", Config.A, Pulse.SHORT, Treatment.EXACT),
    ("B_short_exact", Config.B, Pulse.SHORT, Treatment.EXACT),
    ("B_short_first", Config.B, Pulse.SHORT, Treatment.FIRST_ORDER),
    ("B_long", Config.B, Pulse.LONG, Treatment.FIRST_ORDER),
    ("C_short_exact", Config.C1, Pulse.SHORT, Treatment.EXACT),
    ("C_short_first", Config.C1, Pulse.SHORT, Treatment.FIRST_ORDER),
    ("C_long", Config.C1, Pulse.LONG, Treatment.FIRST_ORDER),
    ("D_short_exact", Config.D, Pulse.SHORT, Treatment.EXACT),
    ("E_long", Config.E, Pulse.LONG, Treatment.FIRST_ORDER),
]


def _rows(config, pulse, treatment, args) -> list[tuple[float, float, float, float]]:
    """(beta, simulated V, closed-form V, |deviation|) of one case on the beta grid."""
    contrast = (closedform.contrast_exact if treatment is Treatment.EXACT
                else closedform.first_order_contrast)
    rows = []
    for b in _grid(0.0, args.beta_max, args.steps):  # np.linspace's points, without numpy
        spec = ScenarioSpec(
            config=config,
            pulse=pulse,
            beta=b,
            alpha=args.alpha if config is Config.D else 0.0,
            treatment=treatment,
        )
        vis = visibility(build(spec))
        ref = contrast(config, b)
        rows.append((b, vis, ref, abs(vis - ref)))
    return rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--beta-max", type=float, default=0.5)
    ap.add_argument("--steps", type=int, default=11)
    ap.add_argument("--alpha", type=float, default=1.0, help="common-mode kick for config D")
    ap.add_argument("--outdir", default="contrast_sweep_out")
    args = ap.parse_args()
    if args.steps < 1:
        ap.error("--steps must be >= 1")
    if not 0.0 <= args.beta_max < math.inf:
        ap.error(f"--beta-max must be finite and >= 0, got {args.beta_max}")

    # every case is computed before any file is written, so a refused one writes nothing
    try:
        tables = [(case[0], _rows(*case[1:], args)) for case in CASES]
    except ValueError as exc:  # a kick or a common-mode alpha the scenarios refuse
        ap.error(str(exc))

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    print(f"{'case':>16} {'beta':>6} {'visibility':>12} {'reference':>12} {'|dev|':>10}")
    for name, rows in tables:
        path = outdir / f"{name}.csv"
        with open(path, "w", newline="") as fh:
            fh.write("beta,visibility,reference,deviation\n")
            for row in rows:
                fh.write(",".join(repr(x) for x in row) + "\n")
        b, vis, ref, dev = rows[-1]
        print(f"{name:>16} {b:6.3f} {vis:12.9f} {ref:12.9f} {dev:10.2e}")
    print(f"\nwrote {len(CASES)} CSV files to {outdir}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
