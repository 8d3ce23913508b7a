#!/usr/bin/env python3
"""Print the in-process cost of each stage of the marker chain, in µs per chain.

The chain is spec -> build -> eraser or beat -> dispersive -> visibility ->
projector -> condition -> pattern, on the two-oscillator marker kinds (B
short exact and first order, B long, D short, E short, E long), with
parameters drawn from --seed. Each round runs every chain once; a stage's
figure is its best round, divided by the number of chains, so a stage a chain
skips counts as 0 for it. BLAS is pinned to one thread and no allocation
tracing runs, so the figures are the chain's own cost.

The E chains apply evolve_beat as a stage of their own, to exercise the public
transform; on E short it runs on top of the beat that build has already
applied. No CLI call runs a beat after build, so scenarios._run, the runner
behind every printed number, has no beat stage.

Usage:
    python scripts/chain_cost.py --nmax 64 --seed 1 --rounds 20
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads its BLAS

import argparse
import cmath
import math
import random
import time

from atomslits import (
    ScenarioSpec,
    apply_dispersive,
    apply_eraser,
    build,
    condition,
    evolve_beat,
    named_projector,
    pattern,
    visibility,
)
from atomslits.spec import _SECTORS, PROJECTOR_NAMES

STAGES = ("spec", "build", "eraser/beat", "dispersive", "visibility", "projector",
          "condition", "pattern")
# kind: (config, pulse, treatment); D draws its treatment, None is the default
KINDS = {
    "B_short_exact": ("B", "short", "exact"),
    "B_short_first": ("B", "short", "first"),
    "B_long": ("B", "long", None),
    "D_short": ("D", "short", None),
    "E_short": ("E", "short", "first"),
    "E_long": ("E", "long", None),
}
CHAINS_PER_KIND = 4
TAGS = ("ELASTIC", "SHIFTED", "SYM", "ANTISYM")
# the named projectors a two-oscillator marker takes, in PROJECTOR_NAMES order
PROJECTORS = tuple(name for name in PROJECTOR_NAMES if len(_SECTORS[name][0][0]) in (0, 2))


def _chains(nmax, seed):
    """(spec fields, beat or None, dispersive tags, projector name) per chain.

    |beta|^2 stays below 0.36, inside every regime's domain; the projector is
    the first, in a drawn order, that keeps some of the light.
    """
    rng = random.Random(seed)
    chains = []
    for config, pulse, treatment in KINDS.values():
        for _ in range(CHAINS_PER_KIND):
            fields = {"config": config, "pulse": pulse, "nmax": nmax,
                      "treatment": rng.choice(("exact", "first")) if config == "D" else treatment,
                      "beta": cmath.rect(rng.uniform(0.05, 0.6), rng.uniform(-math.pi, math.pi))}
            beat = None
            if config == "D":
                fields["alpha"] = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            if config == "E":
                g = rng.uniform(0.2, 2.0)
                fields["coupling_g"], fields["evolve_time"] = g, rng.uniform(0.0, math.pi / g)
                beat = (g, rng.uniform(0.0, math.pi / (2.0 * g)))
            tags = tuple(sorted(rng.sample(TAGS, rng.randint(1, 2)))) if pulse == "long" else ()
            m = _transformed(build(ScenarioSpec(**fields)), beat, tags)
            for name in rng.sample(PROJECTORS, len(PROJECTORS)):
                if condition(m, named_projector(name, m.space))[1] > 1e-6:
                    break
            chains.append((fields, beat, tags, name))
    return chains


def _transformed(m, beat, tags):
    m = evolve_beat(m, *beat) if beat else apply_eraser(m)
    return apply_dispersive(m, tags) if tags else m


def _round(chains, totals):
    """Run every chain once, adding each stage's ns to totals."""
    clock = time.perf_counter_ns
    for fields, beat, tags, name in chains:
        t0 = clock()
        spec = ScenarioSpec(**fields)
        t1 = clock()
        m = build(spec)
        t2 = clock()
        m = evolve_beat(m, *beat) if beat else apply_eraser(m)
        t3 = clock()
        if tags:
            m = apply_dispersive(m, tags)
        t4 = clock()
        visibility(m)
        t5 = clock()
        projector = named_projector(name, m.space)
        t6 = clock()
        conditioned, _ = condition(m, projector)
        t7 = clock()
        pattern(conditioned)
        t8 = clock()
        for k, (a, b) in enumerate(zip((t0, t1, t2, t3, t4, t5, t6, t7),
                                       (t1, t2, t3, t4, t5, t6, t7, t8))):
            totals[k] += b - a


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--nmax", type=int, default=64)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=20, help="rounds run; each stage keeps its best")
    args = ap.parse_args()
    if args.rounds < 1:
        ap.error("--rounds must be >= 1")

    try:
        chains = _chains(args.nmax, args.seed)
    except ValueError as exc:  # an nmax the scenarios refuse
        ap.error(str(exc))
    _round(chains, [0] * len(STAGES))  # fill the package's tables of fixed parts
    best = [math.inf] * len(STAGES)
    for _ in range(args.rounds):
        totals = [0] * len(STAGES)
        _round(chains, totals)
        best = [min(b, t) for b, t in zip(best, totals)]
    per_chain = [ns / 1e3 / len(chains) for ns in best]
    print(f"nmax {args.nmax}, seed {args.seed}: best of {args.rounds} rounds "
          f"of {len(chains)} chains, BLAS on one thread")
    print(f"{'stage':<12} {'us/chain':>9}")
    for stage, us in zip(STAGES, per_chain):
        print(f"{stage:<12} {us:9.1f}")
    print(f"{'total':<12} {sum(per_chain):9.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
