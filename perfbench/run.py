#!/usr/bin/env python3
"""Run one atomslits benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cli_calls --seed 1 --seconds 30 --trace 0

Workloads: cli_calls, marker_scaling (see README.md).
--trace 0 prints the end-to-end metrics; --trace 1 runs every operation
twice, traced and untraced, and prints the per-layer metrics, the tracing
overhead among them, and writes the spans to .perfbench/. Every metric is
printed as `name = value unit`; the last line is one JSON object with the
keys correct, attempted, failed and metrics. Exits 2 without a result when
the atomslits sources are not beside this directory.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import sys
from importlib import metadata
from pathlib import Path

# BLAS threads for this process and its children, fixed before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)


def _l3_size() -> str:
    path = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    return path.read_text().strip() if path.exists() else "unknown"


def _blas_threads() -> dict[str, int]:
    """Threads each loaded OpenBLAS library will use, asked through its own API."""
    libs = set()
    with open("/proc/self/maps", encoding="utf-8") as maps:
        for line in maps:
            path = line.split()[-1]
            if "openblas" in path.lower() and ".so" in path:
                libs.add(path)
    out = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "absent"


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "l3": _l3_size(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": _version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_set": BLAS_THREADS,
        "blas_threads": _blas_threads(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["cli_calls", "marker_scaling"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "atomslits" / "__init__.py").is_file():
        print(f"run.py: no atomslits sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.launcher import Launcher

    # started while this process is still small: see launcher.py
    launcher = Launcher.start(ROOT, ROOT / ".perfbench")
    try:
        from perfbench import workloads

        result, metrics, measured = workloads.run(args.workload, args.seed, args.seconds,
                                                  bool(args.trace), launcher)
    finally:
        launcher.stop()
    table = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    metrics = {name: metrics[name] for name in table if name in metrics}

    print("env " + json.dumps(environment(), sort_keys=True))
    for error in result.errors:
        print(f"failed: {error}", file=sys.stderr)
    print(f"attempted = {result.attempted}  failed = {result.failed}  "
          f"fail_ratio = {result.failed / max(result.attempted, 1):.4g}  "
          f"untraced samples = {len(result.plain_ms)}  traced samples = {len(result.traced_ms)}")
    for name, value in measured.items():
        print(f"as measured: {name} = {value:.6g}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {table[name][0]}")
    missing = [name for name in table if name not in metrics]
    if missing:
        print(f"run.py: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": table[name][0]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
