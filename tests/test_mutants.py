"""scripts/mutants.py: its list matches src/, and one run tells a killed mutant from a
survivor. scripts/mutants.py leaves this file out of its own runs."""

import sys
from pathlib import Path

import atomslits

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(atomslits.__file__).resolve().parents[1]

sys.path.insert(0, str(ROOT / "scripts"))
try:
    import mutants
finally:
    sys.path.remove(str(ROOT / "scripts"))


def test_every_mutant_replaces_one_text_of_src():
    names = [mutant.name for mutant in mutants.MUTANTS]
    assert len(names) >= 25 and len(set(names)) == len(names)
    for mutant in mutants.MUTANTS:
        assert mutant.old != mutant.new, mutant.name
        mutants.locate(mutant.old, SRC)  # raises unless the text occurs once


def test_a_run_tells_a_killed_mutant_from_a_survivor():
    one_file = ("tests/test_closedform.py",)
    killed = next(m for m in mutants.MUTANTS if m.name == "contrast_C 1 - |b|^2")
    verdict, failure = mutants.outcome(killed, one_file)
    assert verdict == "killed" and failure.startswith("tests/test_closedform.py::"), failure
    # no closed form and no report criterion reads the largest sample count
    survivor = mutants.Mutant("65535 samples", "MAX_SAMPLES = 65536", "MAX_SAMPLES = 65535")
    assert mutants.outcome(survivor, one_file) == ("survived", "")
