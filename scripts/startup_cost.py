#!/usr/bin/env python3
"""Print where the wall time of one fresh atomslits process goes, in ms.

For each kind of CLI call (pattern as CSV and as JSON, sweep, a dense sweep
of 200 exact config D points, the scalar engine's costliest call at the
default nmax, whichway, report, a rejected flag, a physics-domain refusal,
--help and --version),
--runs fresh children run the call the way `python -m atomslits` does, and
each part of a child's wall time is reported as its median:

  start      interpreter start, up to the first line of the child's code
  package    `import atomslits`, which is lazy and loads no numpy
  front      `import atomslits.front`: argparse and the numpy-free front
  main       `front.main`: flag parsing and checks, and for a call that
             computes, the import of numpy and the compute modules, the
             compute and the output
  exit       the child's wall time after `main` returns: the atexit handlers,
             the stdio flush and `os._exit`, which skips module cleanup

Two last columns say how many of the total ms the child spent compiling
atomslits' own source (`compile`, 0 where every module loads from its
bytecode cache) and whether numpy was loaded when `main` returned.

The child stamps CLOCK_MONOTONIC, which all processes share, after each part
and writes the stamps to stderr when `main` returns; the parent stamps the
launch and the reaped exit. The children run in turn, one kind after another,
with BLAS on one thread and stdout sent to the null device, so nothing is
written to disk. A child is `python -c`, not `python -m atomslits`, so the
module lookup that `-m` makes is left out.

Usage:
    python scripts/startup_cost.py --runs 20
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # inherited by every child, before it loads numpy

import argparse
import statistics
import subprocess
import sys
import time

PARTS = ("start", "package", "front", "main", "exit")
# kind: (argv, exit code)
KINDS = {
    "pattern_csv": (["pattern", "--config", "B", "--beta", "0.3", "--eraser",
                     "--coincidence", "sym"], 0),
    "pattern_json": (["pattern", "--config", "B", "--beta", "0.3", "--eraser",
                      "--coincidence", "sym", "--format", "json"], 0),
    "sweep": (["sweep", "--config", "B", "--beta-range", "0:0.3:16"], 0),
    "sweep_dense": (["sweep", "--config", "D", "--alpha", "0.5", "--beta-range", "0:0.6:200"], 0),
    "whichway": (["whichway", "--beta", "0.5", "--delta", "1"], 0),
    "report": (["report"], 0),
    "reject": (["pattern", "--config", "Z"], 2),
    "reject3": (["pattern", "--config", "B", "--beta", "5"], 3),
    "help": (["--help"], 0),
    "version": (["--version"], 0),
}
STAMPS = "startup_cost stamps:"

CHILD = f"""\
import os, sys, time
stamps = [time.clock_gettime(time.CLOCK_MONOTONIC)]
from importlib.machinery import SourceFileLoader
compiling = [0.0]
source_to_code = SourceFileLoader.source_to_code


def timed_source_to_code(loader, *args, **kwargs):
    if loader.name.partition(".")[0] != "atomslits":
        return source_to_code(loader, *args, **kwargs)
    start = time.perf_counter()
    try:
        return source_to_code(loader, *args, **kwargs)
    finally:
        compiling[0] += time.perf_counter() - start


SourceFileLoader.source_to_code = timed_source_to_code
import atomslits
stamps.append(time.clock_gettime(time.CLOCK_MONOTONIC))
from atomslits import front
stamps.append(time.clock_gettime(time.CLOCK_MONOTONIC))
main = front.main


def stamped_main(argv=None):
    code = main(argv)
    stamps.append(time.clock_gettime(time.CLOCK_MONOTONIC))
    numpy = "yes" if "numpy" in sys.modules else "no"
    line = " ".join(map(repr, stamps + [compiling[0] * 1e3])) + " " + numpy
    os.write(2, ("\\n{STAMPS} " + line + "\\n").encode())
    return code


front.main = stamped_main
front.entry()
"""


def split_one(argv, expected):
    """The ms of each of PARTS in one fresh child running argv, the ms it spent compiling
    atomslits' source, and whether it loaded numpy."""
    launched = time.clock_gettime(time.CLOCK_MONOTONIC)
    child = subprocess.run([sys.executable, "-c", CHILD, *argv], stdout=subprocess.DEVNULL,
                           stderr=subprocess.PIPE, text=True, timeout=600)
    reaped = time.clock_gettime(time.CLOCK_MONOTONIC)
    _, found, line = child.stderr.rpartition(STAMPS)
    if child.returncode != expected or not found:
        sys.exit(f"startup_cost: {' '.join(argv)} exited {child.returncode}, "
                 f"expected {expected}:\n{child.stderr}")
    *stamped, compiling, numpy = line.split()
    stamps = [launched, *map(float, stamped), reaped]
    return [(b - a) * 1e3 for a, b in zip(stamps, stamps[1:])], float(compiling), numpy


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="children per kind (default: 10)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    splits = {kind: [] for kind in KINDS}
    compiling = {kind: [] for kind in KINDS}
    numpy = {}
    for _ in range(args.runs):
        for kind, (call, expected) in KINDS.items():
            parts, compile_ms, numpy[kind] = split_one(call, expected)
            splits[kind].append(parts)
            compiling[kind].append(compile_ms)
    print(f"median of {args.runs} fresh children per kind, in ms, BLAS on one thread")
    print(f"{'kind':<14}" + "".join(f"{name:>11}"
                                    for name in PARTS + ("total", "compile", "numpy")))
    for kind, runs in splits.items():
        medians = [statistics.median(part) for part in zip(*runs)]
        total = statistics.median(sum(run) for run in runs)
        print(f"{kind:<14}" + "".join(f"{ms:>11.1f}" for ms in medians + [total])
              + f"{statistics.median(compiling[kind]):>11.1f}{numpy[kind]:>11}")


if __name__ == "__main__":
    main()
