#!/usr/bin/env python3
"""Compare the command line, or the library, of two source trees.

Each call of a fixed corpus runs as `python -m atomslits` once against
PARENT_SRC and once against CHANGE_SRC (each put first on PYTHONPATH), one
child at a time. The script compares the exit code and the sha256 of stdout
and of stderr, prints the counts and each argv whose result differs, and
exits 1 if any does.

The corpus, with repeated argv dropped, is:
  - the argv of tests/golden_cli.json;
  - perfbench's documented refusals (`perfbench.generate.REJECTED`);
  - --help, --version and each subcommand's --help;
  - --blocks blocks of `perfbench.generate.cli_blocks(--seed)`;
  - --probes seeded `pattern` calls on configs B, C1, D and E, nmax 2-40, with
    kicks from inside the domain to past the truncation guard, half of them
    with --coincidence ground, and --probes seeded `whichway` calls;
  - --probes / 2 seeded `pattern` bound probes: a first-order short pulse or a
    long pulse whose complex kick has |b|^2 within a few ulps of the
    perturbative bound of its regime (BOUNDS), where the way |b|^2 is rounded
    decides between exit 0 and exit 3.
--limit keeps the first calls of that list.

With --library, one child per tree, the parent's first and never both at once,
runs 10,000 `scenarios._run` chains drawn from --seed (--limit keeps the first):
every config, pulse and treatment, nmax 2-40, kicks inside and outside the
domain, each with or without the eraser, a dispersive flip and a coincidence
cut. A chain's sha256 covers the tags, weight bits and amplitude bytes of its
mixture, its common kick, the post-selection, V and the phase, or else the
exception it raises. The script prints the counts and each chain that differs.

Usage:
    mkdir -p /tmp/parent && git archive HEAD~1 src | tar -x -C /tmp/parent
    python scripts/identity.py /tmp/parent/src src
    python scripts/identity.py /tmp/parent/src src --library
"""

import argparse
import hashlib
import json
import math
import os
import random
import struct
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = ("pattern", "sweep", "whichway", "report")
CHAINS = 10000
TAGS = ("ELASTIC", "SHIFTED", "SYM", "ANTISYM")
PROJECTORS = ("ground", "atom1_excited", "atom2_excited", "single_atom_0", "single_atom_1",
              "sym", "antisym")
# The |b|^2 bound of each (config, pulse) with a perturbative domain: 1 for first-order
# B and E short pulses, 0.5 for first-order C and D and for every long pulse.
BOUNDS = {("B", "short"): 1.0, ("E", "short"): 1.0, ("C1", "short"): 0.5, ("C2", "short"): 0.5,
          ("D", "short"): 0.5, ("B", "long"): 0.5, ("C1", "long"): 0.5, ("C2", "long"): 0.5,
          ("E", "long"): 0.5}


def _kick(rng: random.Random, nmax: int) -> str:
    """A kick with |b|^2 from 0 to 1.1 nmax, real or complex, as a flag value."""
    size = math.sqrt(rng.uniform(0.0, 1.1) * nmax)
    if rng.random() < 0.5:
        return repr(round(size, 6))
    turn = rng.uniform(0.0, 2.0 * math.pi)
    return repr(complex(round(size * math.cos(turn), 6), round(size * math.sin(turn), 6)))


def probes(rng: random.Random, count: int) -> list[list[str]]:
    """count pattern calls, then count whichway calls, drawn from rng."""
    calls = []
    for _ in range(count):
        config, nmax = rng.choice(("B", "C1", "D", "E")), rng.randint(2, 40)
        argv = ["pattern", "--config", config, f"--beta={_kick(rng, nmax)}", "--nmax", str(nmax)]
        if config != "D":
            argv += ["--pulse", rng.choice(("short", "long"))]
        if config != "E":
            argv += ["--treatment", rng.choice(("exact", "first"))]
        if config == "D":
            argv.append(f"--alpha={_kick(rng, nmax)}")
        if rng.random() < 0.5:
            argv += ["--coincidence", "ground"]
        calls.append(argv + ["--samples", "16"])
    for _ in range(count):
        nmax = rng.randint(2, 40)
        beta, delta = (math.sqrt(rng.uniform(0.0, 1.1) * nmax) for _ in range(2))
        calls.append(["whichway", "--beta", repr(round(beta, 6)), "--delta",
                      repr(round(delta, 6)), "--nmax", str(nmax),
                      "--format", rng.choice(("csv", "json"))])
    return calls


def bound_probes(rng: random.Random, count: int) -> list[list[str]]:
    """count pattern calls at a BOUNDS regime, each with a kick of random phase and
    |b|^2 = bound * (1 + k * epsilon) for an integer k in [-3, 3], before rounding."""
    calls = []
    for _ in range(count):
        (config, pulse), bound = rng.choice(sorted(BOUNDS.items()))
        size = math.sqrt(bound * (1.0 + rng.randint(-3, 3) * sys.float_info.epsilon))
        turn = rng.uniform(0.0, 2.0 * math.pi)
        beta = complex(size * math.cos(turn), size * math.sin(turn))
        calls.append(["pattern", "--config", config, "--pulse", pulse, "--treatment", "first",
                      f"--beta={beta!r}", "--samples", "16"])
    return calls


def corpus(seed: int, blocks: int, count: int) -> list[list[str]]:
    """The corpus the module docstring describes, in that order, each argv once."""
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]  # perfbench imports atomslits.closedform
    from perfbench.generate import REJECTED, cli_blocks

    golden = json.loads((ROOT / "tests" / "golden_cli.json").read_text())["cases"]
    calls = [case["argv"] for case in golden] + [argv for argv, _ in REJECTED]
    calls += [["--help"], ["--version"]] + [[command, "--help"] for command in COMMANDS]
    traffic = cli_blocks(seed)
    calls += [call.argv for _ in range(blocks) for call in next(traffic)]
    calls += probes(random.Random(f"identity:{seed}"), count)
    calls += bound_probes(random.Random(f"identity-bounds:{seed}"), count // 2)
    unique = {tuple(argv): list(argv) for argv in calls}
    return list(unique.values())


def outcome(src: str, argv: list[str]) -> tuple[int, str, str]:
    """Exit code and the sha256 of stdout and of stderr of one call against src."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p), COLUMNS="100")
    child = subprocess.run([sys.executable, "-m", "atomslits", *argv], capture_output=True,
                           env=env, cwd=src, timeout=600)
    return (child.returncode, hashlib.sha256(child.stdout).hexdigest(),
            hashlib.sha256(child.stderr).hexdigest())


def _chain_kick(rng: random.Random, nmax: int, small: bool) -> complex:
    """A small kick, |b| below 0.86, or else a _kick, from 0 to past the truncation guard."""
    if small:
        return complex(rng.uniform(0.0, 0.8), rng.uniform(-0.3, 0.3))
    return complex(_kick(rng, nmax))


def chains(seed: int, count: int) -> list[tuple[dict, bool, list | None, str | None]]:
    """count (spec fields, eraser, dispersive tags, coincidence) chains drawn from seed."""
    rng = random.Random(f"identity-library:{seed}")
    drawn = []
    for _ in range(count):
        config, nmax = rng.choice(("A", "B", "C1", "C2", "D", "E")), rng.randint(2, 40)
        # mostly regimes the table defines: D has no long pulse, nor E an exact short one
        pulse = rng.choice(("short",) if config == "D" and rng.random() < 0.9 else
                           ("short", "long"))
        fields = {"config": config, "pulse": pulse, "nmax": nmax,
                  "epsilon": rng.choice((0.01, 0.1, 1e-5, 1.5e-154))}
        treatment = rng.choice((None, "first") if config == "E" and rng.random() < 0.9 else
                               (None, "exact", "first"))
        if treatment is not None:
            fields["treatment"] = treatment
        small = rng.random() < 0.5
        fields["beta"] = _chain_kick(rng, nmax, small)
        if config == "D":
            fields["alpha"] = _chain_kick(rng, nmax, small)
        if config == "E":
            fields["coupling_g"], fields["evolve_time"] = rng.uniform(0, 2), rng.uniform(0, 3)
        dispersive = sorted(rng.sample(TAGS, rng.randint(1, 2))) if rng.random() < 0.3 else None
        coincidence = rng.choice(PROJECTORS) if rng.random() < 0.4 else None
        drawn.append((fields, rng.random() < 0.3, dispersive, coincidence))
    return drawn


def chain_outcome(chain) -> tuple[str, str]:
    """The sha256 of one chain's results, and "built" or the name of its exception."""
    from atomslits import ScenarioSpec, phase_offset, visibility
    from atomslits.scenarios import _run

    fields, eraser, dispersive, coincidence = chain
    digest = hashlib.sha256()
    try:
        m, post_selection = _run(ScenarioSpec(**fields), eraser, dispersive, coincidence)
        for c in m.components:
            digest.update(c.tag.value.encode() + struct.pack("<d", c.weight))
            digest.update(c.psi1.amplitudes.tobytes() + c.psi2.amplitudes.tobytes())
        digest.update(repr(m.common_kick).encode())
        digest.update(struct.pack("<3d", post_selection, visibility(m), phase_offset(m)))
    except Exception as exc:  # a refusal is the chain's result
        name = type(exc).__name__
        return hashlib.sha256(f"{name}: {exc}".encode()).hexdigest(), name
    return digest.hexdigest(), "built"


def print_outcomes(seed: int, count: int) -> None:
    """One line per chain, "sha256 kind": a library child's output."""
    sys.stdout.write("".join(f"{digest} {kind}\n"
                             for digest, kind in map(chain_outcome, chains(seed, count))))


def library_outcomes(src: str, seed: int, count: int) -> list[tuple[str, str]]:
    """print_outcomes in one child against src, with BLAS on one thread."""
    code = (f"import sys; sys.path.insert(0, {str(Path(__file__).resolve().parent)!r}); "
            f"import identity; identity.print_outcomes({seed}, {count})")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p),
        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env=env, cwd=src, timeout=3600)
    if child.returncode != 0:
        sys.exit(f"identity.py: the library child of {src} failed:\n{child.stderr}")
    return [tuple(line.split()) for line in child.stdout.splitlines()]


def compare_library(trees: list[str], seed: int, count: int) -> int:
    parent, change = (library_outcomes(src, seed, count) for src in trees)
    kinds: dict[str, int] = {}
    differ = []
    for chain, was, now in zip(chains(seed, count), parent, change):
        kinds[was[1]] = kinds.get(was[1], 0) + 1
        if was != now:
            fields, eraser, dispersive, coincidence = chain
            differ.append(f"  {fields} eraser={eraser} dispersive={dispersive} "
                          f"coincidence={coincidence}: {was[1]} -> {now[1]}")
    counts = ", ".join(f"{n} {kind}" for kind, n in sorted(kinds.items()))
    print(f"{count} chains: {count - len(differ)} same, {len(differ)} differ; "
          f"at the parent {counts}")
    print("\n".join(differ) if differ else "no chain differs in its results or its exception")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", metavar="PARENT_SRC", help="source tree of the parent")
    parser.add_argument("change_src", metavar="CHANGE_SRC", help="source tree of the change")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of blocks and probes (default: 1)")
    parser.add_argument("--blocks", type=int, default=3, help="cli_blocks blocks (default: 3)")
    parser.add_argument("--probes", type=int, default=200,
                        help="pattern probes, and as many whichway probes (default: 200)")
    parser.add_argument("--limit", type=int, default=None,
                        help="run only the first LIMIT calls, or chains")
    parser.add_argument("--library", action="store_true",
                        help=f"compare {CHAINS} seeded library chains, not CLI calls")
    args = parser.parse_args(argv)
    trees = [str(Path(src).resolve()) for src in (args.parent_src, args.change_src)]
    for src in trees:
        if not (Path(src) / "atomslits" / "__main__.py").is_file():
            parser.error(f"{src} holds no atomslits package")
    if args.library:
        return compare_library(trees, args.seed, len(range(CHAINS)[:args.limit]))
    calls = corpus(args.seed, args.blocks, args.probes)[:args.limit]
    codes: dict[int, int] = {}
    differ = []
    for call in calls:
        parent, change = (outcome(src, call) for src in trees)
        codes[parent[0]] = codes.get(parent[0], 0) + 1
        if parent != change:
            parts = [name for name, a, b in zip(("exit", "stdout", "stderr"), parent, change)
                     if a != b]
            differ.append(f"  {' '.join(call)}: {', '.join(parts)} "
                          f"(exit {parent[0]} -> {change[0]})")
    exits = ", ".join(f"{count} exit {code}" for code, count in sorted(codes.items()))
    print(f"{len(calls)} calls: {len(calls) - len(differ)} same, {len(differ)} differ; "
          f"at the parent {exits}")
    print("\n".join(differ) if differ else "no call differs in exit code, stdout or stderr")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
