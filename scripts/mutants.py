#!/usr/bin/env python3
"""Run a fixed list of one-line mutants of src/ through tier-1 and `report`.

Each mutant replaces one literal text that occurs exactly once in src/. One
mutant at a time, never two at once, the script copies src/, tests/,
perfbench/, scripts/ and pyproject.toml to a temporary directory, applies the
mutant to the copy and runs there, with the copy's src/ on PYTHONPATH,

    python -m pytest -q -x -p no:cacheprovider --continue-on-collection-errors
    python -m atomslits report

the second only if the tests pass. A mutant is killed when a test fails (or
the tests do not collect) or `report` exits nonzero, 4 where a criterion
fails; it survives otherwise. A mutant whose change no output can show is
marked equivalent, with the argument, and is not run.

tests/test_mutants.py is left out of every run: it checks this list against
the unmutated src/, so each mutant would fail it.

The script prints one line per mutant (killed, survived or equivalent, its
name, then the first failing test, or the argument) and the counts, and exits
1 if any mutant survives. It writes nothing into the repository.

Usage:
    python scripts/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
# what a run needs: the tests import perfbench and run the scripts
COPIED = ("src", "tests", "perfbench", "scripts", "pyproject.toml")
TESTS = ("tests", "--ignore=tests/test_mutants.py")
TIMEOUT = 600  # s per run; a mutant that hangs counts as killed


class Mutant(NamedTuple):
    name: str
    old: str
    new: str
    equivalent: str = ""  # why no output can tell it apart; such a mutant is not run


MUTANTS = (
    # twopath: the contrast, its clamps, the phase and the refusals of an empty cut
    Mutant("visibility without its clamp", "min(2.0 * abs(c) / d, 1.0)", "2.0 * abs(c) / d"),
    Mutant("phase of the conjugate coherence", "math.atan2(c.imag, c.real)",
           "math.atan2(-c.imag, c.real)"),
    Mutant("coherence of <psi2|psi1>",
           "total += c.weight * inner(c.psi1, c.psi2)",
           "total += c.weight * inner(c.psi2, c.psi1)"),
    Mutant("mean intensity of the summed norms",
           "d += c.weight * (c.psi1.norm() ** 2 + c.psi2.norm() ** 2)",
           "d += c.weight * (c.psi1.norm() + c.psi2.norm()) ** 2"),
    Mutant("negative-intensity assert at -1e-3 d",
           "if lowest < -1e-9 * d:", "if lowest < -1e-3 * d:"),
    Mutant("pattern keeps samples below zero", "if lowest < 0.0:", "if lowest < -1.0:"),
    Mutant("fringe peak overflow unchecked", "if not math.isfinite(2.0 * d):",
           "if not math.isfinite(d):"),
    Mutant("mean intensity overflow unchecked", "if d == math.inf:", "if d != d:"),
    Mutant("mean intensity drops psi2",
           "d += c.weight * (c.psi1.norm() ** 2 + c.psi2.norm() ** 2)",
           "d += c.weight * c.psi1.norm() ** 2"),
    Mutant("intensity floor 1e-30", "_INTENSITY_FLOOR = 1e-24", "_INTENSITY_FLOOR = 1e-30"),
    Mutant("post-selection over the total weight",
           "return conditioned, mean_intensity(conditioned) / before",
           "return conditioned, mean_intensity(conditioned) / m.total_weight"),
    Mutant("U^dag without the conjugate for every column",
           "adjoint = u.conj().T if u.imag.any() else u.T", "adjoint = u.T"),
    Mutant("public projectors take the one-hot shortcut", "_single = False", "_single = True"),
    # cli and front: the CSV lines read the JSON payload; a library fault exits 1
    Mutant("whichway CSV reference lines all read p_plus",
           "meta.update((key, payload[key]) for key in\n                (\"p_plus\",",
           "meta.update((key, payload[\"p_plus\"]) for key in\n                (\"p_plus\","),
    Mutant("internal fault exits 0", "code, message = 1, f\"internal error: {exc}\"",
           "code, message = 0, f\"internal error: {exc}\""),
    # acceptance: a fault inside a criterion fails it
    Mutant("report fault recorded as passed",
           "checks = [_check(f\"raised {type(exc).__name__}: {exc}\", 1.0, 0.0, 0.0)]",
           "checks = [_check(f\"raised {type(exc).__name__}: {exc}\", 1.0, 0.0, 1.0)]"),
    # spec: the truncation, perturbative and sample refusals
    Mutant("truncation residual threshold 1e-9",
           "if residual > 1e-10:", "if residual > 1e-9:"),
    Mutant("truncation guard at 2 nmax", "if b2 > nmax:", "if b2 > 2 * nmax:"),
    Mutant("poisson tail one term short", "term *= x / n", "term *= x / (n + 1)"),
    Mutant("nmax down to 1", "if nmax < 2:", "if nmax < 1:"),
    Mutant("nmax up to 170", "MAX_NMAX = 171", "MAX_NMAX = 170"),
    Mutant("first-order B bound 2", "Config.B: _Regime(_BOTH, True, 2, 1.0),",
           "Config.B: _Regime(_BOTH, True, 2, 2.0),"),
    Mutant("first-order C bound 1", "Config.C1: _Regime(_BOTH, True, 1, 0.5),",
           "Config.C1: _Regime(_BOTH, True, 1, 1.0),"),
    Mutant("long-pulse bound 1", "regime.bound if short else 0.5",
           "regime.bound if short else 1.0"),
    Mutant("alpha under a coincidence checked for its guard only",
           "if coincidence is not None and reads_alpha:\n        check_kick(",
           "if coincidence is not None and reads_alpha:\n        check_amplitude(\"alpha\", "),
    Mutant("whichway takes an infinite amplitude", "if not 0 <= value < math.inf:",
           "if not 0 <= value:"),
    Mutant("epsilon up to 0.2", "if not _EPSILON_MIN <= self.epsilon <= 0.1:",
           "if not _EPSILON_MIN <= self.epsilon <= 0.2:"),
    Mutant("8 samples", "MIN_SAMPLES = 16", "MIN_SAMPLES = 8"),
    Mutant("eraser on any marker space", "needed = 2 if projector is None else",
           "needed = None if projector is None else"),
    # scenarios: every regime builder
    Mutant("config A weight epsilon", "return _mixture((g, g, FreqTag.ELASTIC, spec.epsilon**2))",
           "return _mixture((g, g, FreqTag.ELASTIC, spec.epsilon))"),
    Mutant("first-order marker not renormalized",
           "((0, math.sqrt(1.0 - _squared_abs(b))), (level, b))", "((0, 1.0), (level, b))"),
    Mutant("exact C kicks both +b", "return coherent_state(b, nmax), coherent_state(-b, nmax)",
           "return coherent_state(b, nmax), coherent_state(b, nmax)"),
    Mutant("first-order C kicks both +b",
           "return _first_order(space, b, 1), _first_order(space, -b, 1)",
           "return _first_order(space, b, 1), _first_order(space, b, 1)"),
    Mutant("long-pulse elastic weight eps^2", "eps2 * (1.0 - b2)", "eps2 * 1.0"),
    Mutant("long-pulse outcomes at half weight", "eps2 * b2 * share", "eps2 * b2 * share / 2.0"),
    Mutant("exact B kicks slit 1 on both paths", "psi2 = _product((still, kicked))",
           "psi2 = _product((kicked, still))"),
    Mutant("first-order B excites slit 1 on both paths", "_first_order(space, b, i01)",
           "_first_order(space, b, i10)"),
    Mutant("long B photon through slit 1 excites atom 2",
           "(\"atom1_excited\", None, FreqTag.SHIFTED, 1.0)",
           "(\"atom2_excited\", None, FreqTag.SHIFTED, 1.0)"),
    Mutant("long C shifted line in phase", "(\"single_atom_1\", \"-single_atom_1\",",
           "(\"single_atom_1\", \"single_atom_1\","),
    Mutant("D without its common kick", "common = coherent_state(spec.alpha, spec.nmax)",
           "common = coherent_state(0j, spec.nmax)"),
    Mutant("D carries no common kick", "common_kick=spec.alpha)", "common_kick=None)"),
    Mutant("E short without the beat",
           "return transforms.evolve_beat(base, spec.coupling_g, spec.evolve_time)",
           "return base"),
    Mutant("E long SYM share 0.25", "(\"sym\", \"sym\", FreqTag.SYM, 0.5)",
           "(\"sym\", \"sym\", FreqTag.SYM, 0.25)"),
    Mutant("E long antisymmetric mode in phase", "(\"antisym\", \"-antisym\",",
           "(\"antisym\", \"antisym\","),
    Mutant("sector lookup ignores its negation",
           "return -column if sector.startswith(\"-\") else column", "return column"),
    Mutant("long-pulse sector not the projector's column",
           "column = transforms.named_projector(sector.lstrip(\"-\"), space)._columns[0]",
           "column = _superposition(space, tuple((space.index(o) if o else 0, a) "
           "for o, a in transforms._SECTORS[sector.lstrip(\"-\")]))"),
    # transforms
    Mutant("eraser applies its inverse",
           "_INVERSE_ROWS if inverse else _ERASER_ROWS",
           "_ERASER_ROWS if inverse else _INVERSE_ROWS"),
    Mutant("eraser a reflection", "for level in ((1, 0), (0, 1))]",
           "for level in ((0, 1), (1, 0))]"),
    Mutant("eraser columns the sym and antisym sectors", "for name in (\"antisym\", \"sym\")]",
           "for name in (\"sym\", \"antisym\")]"),
    Mutant("excitation pair swapped", "return space.mode_dims[1], 1",
           "return 1, space.mode_dims[1]"),
    Mutant("rotation skips any zero pair",
           "if a == 0 == b and _is_plus_zero(a) and _is_plus_zero(b):", "if a == 0 == b:"),
    Mutant("beat turns the other way", "s = -1j * math.sin(g * t)", "s = 1j * math.sin(g * t)"),
    Mutant("beat at twice the frequency", "c = complex(math.cos(g * t))",
           "c = complex(math.cos(2.0 * g * t))"),
    Mutant("quarter beat at pi/(2 g)", "t = (math.pi / 4.0) / g", "t = (math.pi / 2.0) / g"),
    Mutant("dispersive flips the untagged lines", "if c.tag in tagset", "if c.tag not in tagset"),
    Mutant("dispersive reads a bare tag's letters", "if isinstance(tags, str):",
           "if isinstance(tags, bytes):"),
    Mutant("tag table maps ANTISYM to SYM", "return _MEMBERS[enum][value]",
           "return _MEMBERS[enum][{\"ANTISYM\": \"SYM\"}.get(value, value)]"),
    Mutant("dispersive negates psi1",
           "TwoPathComponent._wrap(c.psi1, -c.psi2, c.tag, c.weight)",
           "TwoPathComponent._wrap(-c.psi1, c.psi2, c.tag, c.weight)",
           equivalent="-<psi1|psi2> = <psi1|-psi2> to the bit and ||-psi|| = ||psi||, so V, the "
                      "phase, the post-selection and every intensity are unchanged; only the "
                      "path whose amplitudes carry the sign differs"),
    Mutant("one-hot shortcut on a two-term sector", "len(terms) == 1 and terms[0][1] == 1.0",
           "len(terms) <= 2"),
    # spec: the marker sectors that the long pulses and the projectors share
    Mutant("atom1_excited on slit 2", "\"atom1_excited\": (((1, 0), 1.0),)",
           "\"atom1_excited\": (((0, 1), 1.0),)"),
    Mutant("sym the antisymmetric mode", "((0, 1), _ROOT_HALF)),", "((0, 1), -_ROOT_HALF)),"),
    Mutant("antisym the symmetric mode", "((0, 1), -_ROOT_HALF))}", "((0, 1), _ROOT_HALF))}"),
    Mutant("single_atom levels swapped",
           "\"single_atom_0\": (((0,), 1.0),),\n            \"single_atom_1\": (((1,), 1.0),)",
           "\"single_atom_0\": (((1,), 1.0),),\n            \"single_atom_1\": (((0,), 1.0),)"),
    # fockspace
    Mutant("superposition overwrites its zero", "amps[k] = complex(amps[k]) + c",
           "amps[k] = complex(c)"),
    Mutant("inner conjugates its second slot",
           "return complex(np.vdot(u.amplitudes, v.amplitudes))",
           "return complex(np.vdot(v.amplitudes, u.amplitudes))"),
    Mutant("coherent series over sqrt(n)", "root_factorial = np.sqrt(np.maximum(n, 1.0).cumprod())",
           "root_factorial = np.sqrt(np.maximum(n, 1.0))"),
    # fockspace's scalar engine, and the sweep grid that replays np.linspace
    Mutant("scalar inner conjugates its second slot",
           "_sum([a.real * b.imag - a.imag * b.real for a, b in pairs])",
           "_sum([a.imag * b.real - a.real * b.imag for a, b in pairs])"),
    Mutant("scalar coherent series over sqrt(n)",
           "map(math.sqrt, accumulate(range(1, space.dim), operator.mul, initial=1.0))",
           "map(math.sqrt, [1.0, *range(1, space.dim)])"),
    Mutant("pairwise block of 64", "if n <= 128:", "if n <= 64:"),
    Mutant("float-part product adds ai*bi", "a.real * b.real - a.imag * b.imag",
           "a.real * b.real + a.imag * b.imag"),
    Mutant("tensor product adds ai*bi", "complex(ar * br - ai * bi, ar * bi + ai * br)",
           "complex(ar * br + ai * bi, ar * bi + ai * br)"),
    Mutant("scalar engine below 16 levels", "return space._scale <= _SCALAR_NMAX",
           "return space._scale < _SCALAR_NMAX"),
    Mutant("sweep grid's last point not pinned to MAX", "grid[-1] = hi", "grid[-1] += 0.0"),
    # closedform
    Mutant("contrast_B 1 - 2|b|^2", "return 1.0 - b2", "return 1.0 - 2.0 * b2"),
    Mutant("contrast_C 1 - |b|^2", "return 1.0 - 2.0 * b2", "return 1.0 - b2"),
    Mutant("contrast_B bound includes 1", "if b2 >= 1.0:", "if b2 > 1.0:"),
    Mutant("exact B contrast exp(-2|b|^2)", "return math.exp(-b2)", "return math.exp(-2.0 * b2)"),
    Mutant("exact C contrast exp(-|b|^2)", "return math.exp(-2.0 * b2)", "return math.exp(-b2)"),
    Mutant("E first order as C", "if name in (\"B\", \"E\"):", "if name in (\"B\",):"),
    Mutant("C2 not a C", "if name in (\"C\", \"C1\", \"C2\"):", "if name in (\"C\", \"C1\"):"),
    Mutant("long B atom1 weight |b|^2", "\"atom1\": b2 / 2.0", "\"atom1\": b2"),
    Mutant("long C shifted weight |b|^2/2", "\"shifted\": b2}", "\"shifted\": b2 / 2.0}"),
    Mutant("long E sym weight |b|^2/4", "\"sym\": b2 / 2.0", "\"sym\": b2 / 4.0"),
    Mutant("golden-rule weights up to |b|^2 = 1",
           "if b2 >= 0.5:\n        raise PhysicsDomainError(\n            f\"golden-rule",
           "if b2 >= 1.0:\n        raise PhysicsDomainError(\n            f\"golden-rule"),
    Mutant("projection probability exp(-|delta + b|^2)",
           "math.exp(-_abs2(complex(delta) - complex(beta)))",
           "math.exp(-_abs2(complex(delta) + complex(beta)))"),
    Mutant("fractional error exp(-2 b delta)", "math.exp(-4.0 * (beta * delta))",
           "math.exp(-2.0 * (beta * delta))"),
    Mutant("probe for an error at -ln(e)/(2 b)",
           "delta = -math.log(fractional_error) / (4.0 * beta)",
           "delta = -math.log(fractional_error) / (2.0 * beta)"),
    Mutant("detection probability exp(-delta)", "return math.exp(-(x**2))", "return math.exp(-x)"),
    Mutant("tradeoff grid from 1e-5", "10.0 ** (-6.0 + 5.7 * k / 24.0)",
           "10.0 ** (-5.0 + 5.7 * k / 24.0)"),
)


def locate(old: str, src: Path = ROOT / "src") -> Path:
    """The one file of src holding old, which must occur there exactly once."""
    found = [(path, path.read_text().count(old)) for path in sorted(src.rglob("*.py"))]
    found = [(path, count) for path, count in found if count]
    if [count for _, count in found] != [1]:
        raise ValueError(f"{old!r} occurs {sum(c for _, c in found)} times in {src}, not once")
    return found[0][0]


def _first_failure(output: str) -> str:
    """The node id of pytest's first FAILED or ERROR summary line."""
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return "no failing test named"


def outcome(mutant: Mutant, tests=TESTS) -> tuple[str, str]:
    """Run one mutant on a fresh copy of the tree: (verdict, first failure or "")."""
    if mutant.equivalent:
        return "equivalent", mutant.equivalent
    with tempfile.TemporaryDirectory(prefix="atomslits-mutant-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name,
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, copy / name)
        target = copy / locate(mutant.old).relative_to(ROOT)
        target.write_text(target.read_text().replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        runs = (("tests", [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors", *tests]),
                ("report", [sys.executable, "-m", "atomslits", "report"]))
        for kind, argv in runs:
            try:
                done = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True,
                                      timeout=TIMEOUT)
            except subprocess.TimeoutExpired:
                return "killed", f"{kind} ran past {TIMEOUT} s"
            if done.returncode:
                return "killed", (_first_failure(done.stdout) if kind == "tests"
                                  else f"report exit {done.returncode}")
    return "survived", ""


def main() -> int:
    for mutant in MUTANTS:
        locate(mutant.old)  # a stale text stops the run before any mutant runs
    counts: dict[str, int] = {}
    for mutant in MUTANTS:
        verdict, detail = outcome(mutant)
        counts[verdict] = counts.get(verdict, 0) + 1
        print(f"{verdict:<10} {mutant.name}" + (f": {detail}" if detail else ""), flush=True)
    print(f"{len(MUTANTS)} mutants: " + ", ".join(
        f"{counts.get(v, 0)} {v}" for v in ("killed", "survived", "equivalent")))
    return 1 if counts.get("survived") else 0


if __name__ == "__main__":
    sys.exit(main())
