#!/usr/bin/env python3
"""Compare the command line of two source trees, call by call.

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
    with --coincidence ground, and --probes seeded `whichway` calls.
--limit keeps the first calls of that list.

Usage:
    mkdir -p /tmp/parent && git archive HEAD~1 src | tar -x -C /tmp/parent
    python scripts/identity.py /tmp/parent/src src
"""

import argparse
import hashlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = ("pattern", "sweep", "whichway", "report")


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", metavar="PARENT_SRC", help="source tree of the parent")
    parser.add_argument("change_src", metavar="CHANGE_SRC", help="source tree of the change")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of blocks and probes (default: 1)")
    parser.add_argument("--blocks", type=int, default=3, help="cli_blocks blocks (default: 3)")
    parser.add_argument("--probes", type=int, default=200,
                        help="pattern probes, and as many whichway probes (default: 200)")
    parser.add_argument("--limit", type=int, default=None, help="run only the first LIMIT calls")
    args = parser.parse_args(argv)
    trees = [str(Path(src).resolve()) for src in (args.parent_src, args.change_src)]
    for src in trees:
        if not (Path(src) / "atomslits" / "__main__.py").is_file():
            parser.error(f"{src} holds no atomslits package")
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
