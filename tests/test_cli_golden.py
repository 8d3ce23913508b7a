"""Golden CLI output: fixed argv lists replayed through cli.main.

Each case pins the exit code and the sha256 of stdout that the CLI gave when
tests/golden_cli.json was written, so "identical flags give byte-identical
output" is checked on every run. A change that is meant to alter an output
regenerates the file and says so:

    PYTHONPATH=src python tests/test_cli_golden.py

Help text is laid out by argparse to the terminal width, so both the test and
the generator fix COLUMNS. Its wording also differs between Python versions:
on a version other than the recorded one, help cases check the exit code only.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

from atomslits.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")
COLUMNS = "100"

CONFIGS = ("A", "B", "C1", "C2", "D", "E")
# values that keep every lane inside its domain at the default nmax
EXTRA = {
    "D": ["--alpha", "0.4"],
    "E": ["--coupling", "0.8", "--evolve-time", "0.5"],
}


def _regimes():
    for config in CONFIGS:
        for pulse in ("short", "long"):
            for treatment in (None, "exact", "first"):
                for fmt in ("csv", "json"):
                    argv = ["pattern", "--config", config, "--pulse", pulse, "--beta", "0.3"]
                    argv += EXTRA.get(config, [])
                    if treatment is not None:
                        argv += ["--treatment", treatment]
                    yield argv + ["--samples", "16", "--format", fmt]


README = [
    ["pattern", "--config", "C1", "--pulse", "long", "--beta", "0.5"],
    ["pattern", "--config", "C1", "--pulse", "long", "--beta", "0.5", "--dispersive", "SHIFTED"],
    ["pattern", "--config", "B", "--beta", "0.2", "--treatment", "first", "--eraser",
     "--coincidence", "atom1_excited", "--format", "json"],
    ["sweep", "--config", "B", "--beta-range", "0:0.3:16"],
    ["whichway", "--beta", "0.5", "--delta", "1.0"],
    ["report"],
]

CHAINS = [
    ["pattern", "--config", "B", "--beta", "0.25", "--eraser", "--samples", "16"],
    ["pattern", "--config", "B", "--pulse", "long", "--beta", "0.3", "--eraser",
     "--coincidence", "sym", "--samples", "16"],
    ["pattern", "--config", "B", "--beta", "0.1+0.2j", "--eraser", "--coincidence",
     "atom2_excited", "--samples", "16", "--format", "json"],
    ["pattern", "--config", "C1", "--pulse", "long", "--beta", "0.4", "--dispersive",
     "SHIFTED,ELASTIC", "--samples", "16"],
    ["pattern", "--config", "C2", "--beta", "0.3", "--coincidence", "single_atom_1",
     "--samples", "16", "--format", "json"],
    ["pattern", "--config", "D", "--beta", "0.2", "--alpha", "0.7", "--coincidence",
     "ground", "--samples", "16"],
    ["pattern", "--config", "E", "--pulse", "long", "--beta", "0.3", "--dispersive",
     "ANTISYM,SYM", "--samples", "16"],
    ["pattern", "--config", "E", "--beta", "0.2", "--coupling", "0.8", "--evolve-time",
     "0.9817477042468103", "--coincidence", "atom1_excited", "--samples", "16"],
    ["pattern", "--config", "E", "--beta", "0.2", "--eraser", "--dispersive", "SYM",
     "--coincidence", "antisym", "--samples", "16", "--format", "json"],
    ["pattern", "--config", "A", "--eraser", "--coincidence", "ground", "--samples", "16"],
]

SWEEPS = [
    ["sweep", "--config", config, "--beta-range", "0:0.4:5", "--format", fmt] + extra
    for config, extra in (("B", []), ("C1", ["--pulse", "long"]), ("D", ["--alpha", "0.5"]),
                          ("E", ["--coupling", "0.8", "--evolve-time", "0.3"]))
    for fmt in ("csv", "json")
]

WHICHWAYS = [
    ["whichway", "--beta", beta, "--delta", delta, "--format", fmt]
    for beta, delta in (("0.5", "1"), ("0", "0.5"), ("1.2", "0.3"), ("0.2", "0"))
    for fmt in ("csv", "json")
] + [["whichway", "--beta", "0.5", "--delta", "1"],
     ["whichway", "--beta", "0.7", "--delta", "0.7", "--nmax", "8"]]

HELP = [["--help"], ["--version"]] + [[cmd, "--help"] for cmd in
                                      ("pattern", "sweep", "whichway", "report")]

REJECTED = [
    [],
    ["bogus"],
    ["pattern"],
    ["pattern", "--config", "Z"],
    ["pattern", "--config", "D", "--pulse", "long"],
    ["pattern", "--config", "E", "--treatment", "exact"],
    ["pattern", "--config", "B", "--alpha", "0.5"],
    ["pattern", "--config", "C1", "--coincidence", "atom1_excited"],
    ["pattern", "--config", "B", "--dispersive", "BLUE"],
    ["pattern", "--config", "B", "--beta", "nan"],
    ["pattern", "--config", "B", "--epsilon", "0.5"],
    ["pattern", "--config", "B", "--samples", "8"],
    ["pattern", "--config", "B", "--samples", "70000"],
    ["sweep", "--config", "B", "--beta-range", "0.3:0.1:4"],
    ["sweep", "--config", "B", "--beta-range", "0:1:x"],
    ["whichway", "--beta=-0.5", "--delta", "0.3"],
    ["whichway", "--beta", "0.5"],
    ["pattern", "--config", "B", "--beta", "5"],
    ["pattern", "--config", "B", "--treatment", "first", "--beta", "1.2"],
    ["pattern", "--config", "B", "--pulse", "long", "--beta", "0.9"],
    ["pattern", "--config", "A", "--coincidence", "atom1_excited"],
    ["pattern", "--config", "C1", "--nmax", "172"],
    ["whichway", "--beta", "1e200", "--delta", "0.1"],
    ["sweep", "--config", "B", "--beta", "nan", "--beta-range", "0:0.3:2"],
    ["sweep", "--config", "B", "--samples", "3", "--beta-range", "0:0.3:2"],
]

ARGVS = README + list(_regimes()) + CHAINS + SWEEPS + WHICHWAYS + HELP + REJECTED


def _replay(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def _python():
    return "%d.%d" % sys.version_info[:2]


def _is_help(argv):
    return "--help" in argv


def test_golden_cases_match_the_argv_list():
    golden = json.loads(GOLDEN.read_text())
    assert [case["argv"] for case in golden["cases"]] == ARGVS


def test_cli_output_matches_golden(monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    golden = json.loads(GOLDEN.read_text())
    same_python = golden["python"] == _python()
    mismatches = []
    for case in golden["cases"]:
        code, digest = _replay(case["argv"])
        if code != case["exit"] or (digest != case["stdout_sha256"]
                                    and (same_python or not _is_help(case["argv"]))):
            mismatches.append(case["argv"])
    assert not mismatches


if __name__ == "__main__":
    os.environ["COLUMNS"] = COLUMNS
    cases = []
    for argv in ARGVS:
        code, digest = _replay(argv)
        cases.append({"argv": argv, "exit": code, "stdout_sha256": digest})
    GOLDEN.write_text(json.dumps({"python": _python(), "cases": cases}, indent=1) + "\n")
    print(f"wrote {len(cases)} cases to {GOLDEN}")
