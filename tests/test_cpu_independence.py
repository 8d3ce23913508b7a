"""Both goldens replayed with numpy's arithmetic picked by the environment, not the CPU.

The north star's "same output for identical flags" holds only where the two
goldens' bits do not depend on the BLAS kernel or on numpy's SIMD level. Each
case runs in one child process with one environment variable set, which
changes the arithmetic of that process only:

  - OPENBLAS_CORETYPE=Prescott picks numpy's bundled OpenBLAS kernel for an
    SSE3 CPU, whose reductions round differently from the AVX ones;
  - NPY_DISABLE_CPU_FEATURES limits numpy's own dispatch to its X86_V2
    baseline, whose complex multiply rounds differently from the AVX2 and
    AVX-512 loops.

Every call of tests/test_cli_golden.py but `report` runs at nmax 16 or below,
where fockspace's scalar engine computes without numpy, so its bytes hold under
both. Running tests/test_cli_golden.py and tests/test_marker_golden.py whole
still fails (ROADMAP item 6): the marker chains at nmax 32 and 64 and
`report`'s checks at nmax 20 and 40 run through BLAS, so each of those cases is
a strict xfail, and the case that starts to pass fails the suite until its
marker goes.

The last test replays both goldens whole in one child process whose every
atomslits lru table has maxsize 0, so each call recomputes what a table would
hold. It passes wherever the goldens do: no output depends on the tables.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import atomslits

ROOT = Path(__file__).resolve().parents[1]
GOLDENS = ("tests/test_cli_golden.py", "tests/test_marker_golden.py")
ENVIRONMENTS = pytest.mark.parametrize("variable, value", [
    ("OPENBLAS_CORETYPE", "Prescott"),
    ("NPY_DISABLE_CPU_FEATURES", "AVX512_SPR AVX512_ICL X86_V4 X86_V3"),
], ids=["blas-prescott", "numpy-x86-v2"])
# prints the argv of each golden CLI call but report whose exit code or stdout differs,
# as the golden test compares them
REPLAY = """
import json, os, sys
sys.path.insert(0, "tests")
import test_cli_golden as g
os.environ["COLUMNS"] = g.COLUMNS
golden = json.loads(g.GOLDEN.read_text())
same_python = golden["python"] == g._python()
differ = []
for case in golden["cases"]:
    if case["argv"] != ["report"]:
        code, digest = g._replay(case["argv"])
        if code != case["exit"] or (digest != case["stdout_sha256"]
                                    and (same_python or not g._is_help(case["argv"]))):
            differ.append(case["argv"])
print(json.dumps(differ))
"""


# runs pytest on its arguments after importing atomslits with every functools.lru_cache at
# maxsize 0; numpy and pytest load first, and hypothesis only within pytest.main, which
# would otherwise warn that it cannot rewrite hypothesis' asserts
TABLELESS = """
import functools, importlib, pkgutil, sys
import numpy, pytest
lru_cache = functools.lru_cache
functools.lru_cache = lambda maxsize=128, typed=False: lru_cache(maxsize=0, typed=typed)
try:
    import atomslits
    modules = [importlib.import_module(f"atomslits.{m.name}")
               for m in pkgutil.iter_modules(atomslits.__path__)]
finally:
    functools.lru_cache = lru_cache
tables = [value for module in modules for value in vars(module).values()
          if hasattr(value, "cache_info") and getattr(value, "__module__", None) == module.__name__]
assert tables and all(table.cache_info().maxsize == 0 for table in tables), tables
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[1:]]))
"""


def child(argv, **variables):
    src = str(Path(atomslits.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path, **variables)
    return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 6")
@ENVIRONMENTS
def test_goldens_hold_whatever_the_cpu(variable, value):
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *GOLDENS]
    done = child(argv, **{variable: value})
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]


@ENVIRONMENTS
def test_default_size_cli_bytes_hold_whatever_the_cpu(variable, value):
    done = child([sys.executable, "-c", REPLAY], **{variable: value})
    assert done.returncode == 0, done.stderr[-2000:]
    assert json.loads(done.stdout) == []


def test_goldens_hold_with_every_table_off():
    done = child([sys.executable, "-c", TABLELESS, *GOLDENS])
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
