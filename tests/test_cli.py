import contextlib
import dataclasses
import errno
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import atomslits
from atomslits import acceptance
from atomslits.cli import main
from atomslits.front import MAX_SWEEP_STEPS, build_parser
from atomslits.spec import _FIELD_CONFIGS


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def benchmark_rejections():
    """perfbench's documented refusals as (argv, exit code), imported with the
    repository root on the path for the import only."""
    root = str(Path(__file__).resolve().parents[1])
    sys.path.insert(0, root)
    try:
        from perfbench.generate import REJECTED
    finally:
        sys.path.remove(root)
    return [(list(argv), code) for argv, code in REJECTED]


def csv_sections(text):
    meta, rows = {}, []
    header = None
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, line.split(","))))
    return meta, header, rows


def test_pattern_long_pulse_c_csv_visibility(capsys):
    code, out, _ = run(
        ["pattern", "--config", "C1", "--pulse", "long", "--beta", "0.5"], capsys
    )
    assert code == 0
    meta, header, rows = csv_sections(out)
    assert header == ["phi", "intensity"]
    assert len(rows) == 256
    intensities = [float(r["intensity"]) for r in rows]
    extracted = (max(intensities) - min(intensities)) / (max(intensities) + min(intensities))
    assert abs(extracted - 0.5) < 1e-6
    assert abs(float(meta["visibility"]) - 0.5) < 1e-9


def test_pattern_config_a_full_contrast(capsys):
    code, out, _ = run(["pattern", "--config", "A"], capsys)
    assert code == 0
    meta, _, _ = csv_sections(out)
    assert float(meta["visibility"]) == pytest.approx(1.0)


def test_pattern_dispersive_restores_contrast(capsys):
    code, out, _ = run(
        ["pattern", "--config", "C1", "--pulse", "long", "--beta", "0.5",
         "--dispersive", "SHIFTED"],
        capsys,
    )
    assert code == 0
    meta, _, rows = csv_sections(out)
    intensities = [float(r["intensity"]) for r in rows]
    extracted = (max(intensities) - min(intensities)) / (max(intensities) + min(intensities))
    assert abs(extracted - 1.0) < 1e-6
    assert meta["transforms"] == "dispersive:SHIFTED"


def test_pattern_json_schema(capsys):
    code, out, _ = run(
        ["pattern", "--config", "B", "--beta", "0.2", "--treatment", "first",
         "--eraser", "--coincidence", "atom1_excited", "--format", "json",
         "--samples", "64"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {
        "meta", "pattern", "visibility", "phase_offset", "condition",
        "post_selection_probability",
    }
    assert payload["meta"]["spec"]["config"] == "B"
    assert payload["meta"]["transforms"] == ["eraser", "coincidence:atom1_excited"]
    assert len(payload["pattern"]["phis"]) == 64
    assert payload["visibility"] == pytest.approx(1.0, abs=1e-9)
    assert payload["phase_offset"] == pytest.approx(0.0, abs=1e-9)
    assert payload["condition"] == "atom1_excited"
    assert payload["post_selection_probability"] == pytest.approx(0.02, abs=1e-12)


def test_sweep_deviation_bounded_by_quartic(capsys):
    code, out, _ = run(
        ["sweep", "--config", "B", "--beta-range", "0:0.3:7"], capsys
    )
    assert code == 0
    _, header, rows = csv_sections(out)
    assert header == ["beta", "visibility_exact", "visibility_first_order", "oracle", "deviation"]
    assert len(rows) == 7
    for r in rows:
        b = float(r["beta"])
        assert float(r["deviation"]) <= 5 * b**4 + 1e-15
        assert abs(float(r["visibility_first_order"]) - float(r["oracle"])) < 1e-9


def test_sweep_common_mode_alpha_independent(capsys):
    code_a3, out_a3, _ = run(
        ["sweep", "--config", "D", "--alpha", "3", "--beta-range", "0:0.3:4"], capsys
    )
    code_a0, out_a0, _ = run(
        ["sweep", "--config", "D", "--alpha", "0", "--beta-range", "0:0.3:4"], capsys
    )
    assert code_a3 == 0 and code_a0 == 0
    _, _, rows3 = csv_sections(out_a3)
    _, _, rows0 = csv_sections(out_a0)
    for r3, r0 in zip(rows3, rows0):
        assert abs(float(r3["visibility_exact"]) - float(r0["visibility_exact"])) < 1e-9


def test_single_point_sweep_matches_pattern(capsys):
    _, sweep_out, _ = run(
        ["sweep", "--config", "C1", "--pulse", "long", "--beta-range", "0.5:0.5:1"],
        capsys,
    )
    _, pattern_out, _ = run(
        ["pattern", "--config", "C1", "--pulse", "long", "--beta", "0.5"], capsys
    )
    _, _, rows = csv_sections(sweep_out)
    meta, _, _ = csv_sections(pattern_out)
    assert float(rows[0]["visibility_exact"]) == pytest.approx(
        float(meta["visibility"]), abs=1e-12
    )


def test_whichway_json_matches_closed_forms(capsys):
    code, out, _ = run(
        ["whichway", "--beta", "1", "--delta", "1", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["p_plus"] == pytest.approx(1.0)
    assert payload["p_minus"] == pytest.approx(math.exp(-4))
    assert payload["fractional_error"] == pytest.approx(math.exp(-4))
    assert payload["detect_prob"] == pytest.approx(math.exp(-1))
    assert payload["simulated"]["p_plus"] == pytest.approx(1.0, abs=1e-8)
    assert payload["simulated"]["ratio"] == pytest.approx(math.exp(-4), abs=1e-8)
    deltas = [p["required_delta"] for p in payload["tradeoff"]]
    assert all(a > b for a, b in zip(deltas, deltas[1:]))


@pytest.mark.parametrize("argv", [
    ["whichway", "--beta", "0.3", "--delta", "0.7"],
    ["whichway", "--beta", "1", "--delta", "1", "--nmax", "24"],
    ["pattern", "--config", "D", "--beta", "0.3", "--alpha", "0.5j", "--eraser",
     "--coincidence", "sym"],
    ["pattern", "--config", "E", "--beta", "0.3", "--coupling", "1", "--evolve-time", "0.3",
     "--coincidence", "atom1_excited"],
])
def test_csv_metadata_prints_the_json_numbers_to_the_bit(argv, capsys):
    code, csv_out, _ = run(argv, capsys)
    assert code == 0
    code, json_out, _ = run(argv + ["--format", "json"], capsys)
    assert code == 0
    meta, payload = csv_sections(csv_out)[0], json.loads(json_out)
    if argv[0] == "whichway":
        numbers = {key: payload[key]
                   for key in ("p_plus", "p_minus", "fractional_error", "detect_prob")}
        numbers.update(("simulated_" + k, v) for k, v in payload["simulated"].items())
    else:
        numbers = {key: payload[key]
                   for key in ("post_selection_probability", "visibility", "phase_offset")}
        assert meta["condition"] == payload["condition"]
    assert len(set(numbers.values())) >= 3  # a number read from a wrong key shows
    assert {key: meta[key] for key in numbers} == {k: repr(v) for k, v in numbers.items()}


def test_outputs_are_deterministic(tmp_path, capsys):
    args = ["pattern", "--config", "E", "--pulse", "long", "--beta", "0.3",
            "--dispersive", "ANTISYM,SYM"]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    assert b"\r" not in first.read_bytes()
    jargs = ["sweep", "--config", "B", "--beta-range", "0:0.2:5", "--format", "json"]
    ja = tmp_path / "a.json"
    jb = tmp_path / "b.json"
    assert main(jargs + ["--out", str(ja)]) == 0
    assert main(jargs + ["--out", str(jb)]) == 0
    capsys.readouterr()
    assert ja.read_bytes() == jb.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        [cmd, *flags, "--format", fmt]
        for cmd, flags in (
            ("pattern", ["--config", "B", "--beta", "0.2", "--samples", "16", "--eraser"]),
            ("sweep", ["--config", "C1", "--beta-range", "0:0.3:4"]),
            ("whichway", ["--beta", "0.5", "--delta", "1"]),
        )
        for fmt in ("csv", "json")
    ] + [["report"]],
)
def test_out_file_holds_the_stdout_bytes(argv, tmp_path):
    code, out, _ = run_quiet(argv)
    assert code == 0
    path = tmp_path / "out"
    assert run_quiet(argv + ["--out", str(path)]) == (0, "", "")
    assert path.read_bytes() == out.encode("utf-8")


@pytest.mark.parametrize(
    "argv,needle",
    [
        (["pattern", "--config", "B", "--alpha", "1"], "--alpha"),
        (["pattern", "--config", "B", "--coupling", "1"], "--coupling"),
        (["pattern", "--config", "C1", "--evolve-time", "1"], "--evolve-time"),
        (["pattern", "--config", "D", "--pulse", "long"], "--pulse"),
        (["pattern", "--config", "E", "--treatment", "exact"], "--treatment"),
        (["pattern", "--config", "A", "--coincidence", "bogus"], "--coincidence"),
        (["pattern", "--config", "A", "--dispersive", "LOUD"], "--dispersive"),
        (["sweep", "--config", "B", "--beta-range", "0.3:0.1:5"], "--beta-range"),
        (["sweep", "--config", "B", "--beta-range", "-0.1:0.3:5"], "--beta-range"),
        (["sweep", "--config", "B", "--beta-range", "0:0.3:0"], "--beta-range"),
        (["whichway", "--beta", "-1", "--delta", "0.5"], "--beta"),
        (["whichway", "--beta", "nan", "--delta", "0.5"], "--beta"),
        (["whichway", "--beta", "0.5", "--delta", "inf"], "--delta"),
        (["pattern", "--config", "B", "--samples", str(10**12)], "--samples"),
        (["sweep", "--config", "B", "--beta-range", f"0:0.1:{MAX_SWEEP_STEPS + 1}"],
         "--beta-range"),
        # finite factors whose product, the beat phase g t, overflows
        (["pattern", "--config", "E", "--coupling", "1e300", "--evolve-time", "1e300"],
         "coupling_g * evolve_time"),
        # one refused value per ScenarioError field and command: the flag, then the
        # library's message
        (["pattern", "--config", "B", "--beta=nan"], "error: --beta: beta must be finite"),
        (["pattern", "--config", "D", "--alpha=infj"], "error: --alpha: alpha must be finite"),
        (["pattern", "--config", "B", "--epsilon=0.5"], "error: --epsilon: epsilon must lie"),
        (["pattern", "--config", "E", "--coupling=-1"], "error: --coupling: coupling_g must be"),
        (["pattern", "--config", "E", "--evolve-time=inf"],
         "error: --evolve-time: evolve_time must be finite"),
        (["pattern", "--config", "B", "--nmax=1"], "error: --nmax: truncation dimension must"),
        (["pattern", "--config", "B", "--samples=8"], "error: --samples: nsamples must be >= 16"),
        (["pattern", "--config", "C2", "--eraser"], "error: --eraser: operation needs a two-"),
        (["sweep", "--config", "D", "--alpha=nan", "--beta-range", "0:0.3:2"],
         "error: --alpha: alpha must be finite"),
        (["sweep", "--config", "B", "--epsilon=1e-170", "--beta-range", "0:0.3:2"],
         "error: --epsilon: epsilon must lie"),
        (["sweep", "--config", "E", "--coupling=inf", "--beta-range", "0:0.3:2"],
         "error: --coupling: coupling_g must be finite"),
        (["sweep", "--config", "E", "--evolve-time=-1", "--beta-range", "0:0.3:2"],
         "error: --evolve-time: evolve_time must be >= 0"),
        (["sweep", "--config", "B", "--nmax=1", "--beta-range", "0:0.3:2"],
         "error: --nmax: truncation dimension must"),
        (["sweep", "--config", "C1", "--eraser", "--beta-range", "0:0.3:2"],
         "error: --eraser: operation needs a two-"),
        (["sweep", "--config", "B", "--beta-range", "0:inf:2"],
         "error: --beta-range: MIN and MAX must be finite"),
        (["sweep", "--config", "B", "--beta-range", "nan:1:2"],
         "error: --beta-range: MIN and MAX must be finite"),
        (["whichway", "--beta", "0.5", "--delta", "0.5", "--nmax=1"],
         "error: --nmax: truncation dimension must"),
        # sweep has no --beta or --samples flag, so argparse refuses valid values too;
        # --beta is not taken as an abbreviation of --beta-range
        (["sweep", "--config", "B", "--beta", "0.3", "--beta-range", "0:0.3:2"],
         "error: unrecognized arguments: --beta 0.3"),
        (["sweep", "--config", "B", "--samples", "256", "--beta-range", "0:0.3:2"],
         "error: unrecognized arguments: --samples 256"),
        # argparse reads "--beta-range -0.1:0.3:5" as a flag and finds no value for
        # --beta-range; with "=" the value reaches the MIN check
        (["sweep", "--config", "B", "--beta-range=-0.1:0.3:5"],
         "error: --beta-range: MIN must be >= 0"),
        (["sweep", "--config", "B", "--beta-range", "0:1"],
         "error: --beta-range: expected MIN:MAX:STEPS, got '0:1'"),
        (["pattern", "--config", "B", "--beta", "abc"],
         "argument --beta: not a real or complex number: 'abc'"),
        # a projector the marker space does not take: its name and both mode counts
        (["pattern", "--config", "C1", "--coincidence", "sym"],
         "error: --coincidence: projector 'sym' needs a two-oscillator marker space, "
         "got 1 mode(s)"),
        (["pattern", "--config", "B", "--coincidence", "single_atom_1"],
         "error: --coincidence: projector 'single_atom_1' needs a single-oscillator marker "
         "space, got 2 mode(s)"),
    ],
)
def test_flag_errors_exit_two_and_name_the_flag(argv, needle, capsys):
    code, _, err = run(argv, capsys)
    assert code == 2
    assert needle in err


def test_benchmark_rejections_name_a_flag_or_the_domain(capsys):
    # the calls perfbench's generator sends as documented refusals
    for argv, expected in benchmark_rejections():
        code, out, err = run(argv, capsys)
        assert (code, out) == (expected, ""), argv
        flags = {arg.split("=")[0] for arg in argv if arg.startswith("--")}
        if code == 2:
            assert any(f"{flag}:" in err for flag in flags), (argv, err)
        else:
            assert "physics domain error" in err, (argv, err)


def test_coincidence_space_mismatch_is_flag_error(capsys):
    code, _, err = run(
        ["pattern", "--config", "C1", "--beta", "0.2", "--coincidence", "atom1_excited"],
        capsys,
    )
    assert code == 2
    assert "--coincidence" in err


def test_physics_domain_errors_exit_three(capsys):
    code, _, err = run(["pattern", "--config", "B", "--beta", "9"], capsys)
    assert code == 3
    assert "truncation" in err.lower()
    # conditioning config A on an excitation leaves no light at all
    code, _, err = run(
        ["pattern", "--config", "A", "--coincidence", "atom1_excited"], capsys
    )
    assert code == 3
    code, _, err = run(
        ["pattern", "--config", "B", "--treatment", "first", "--beta", "0.999999"],
        capsys,
    )
    assert code == 0
    code, _, err = run(
        ["pattern", "--config", "B", "--treatment", "first", "--beta", "1.0"], capsys
    )
    assert code == 3


@pytest.mark.parametrize(
    "argv,needle",
    [
        (["pattern", "--config", "B", "--beta", "nan"], "beta"),
        (["pattern", "--config", "D", "--alpha", "nan"], "alpha"),
        (["pattern", "--config", "E", "--coupling", "nan"], "coupling_g"),
        (["pattern", "--config", "E", "--evolve-time", "inf"], "evolve_time"),
    ],
)
def test_non_finite_scenario_values_exit_two(argv, needle, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert f"{needle} must be finite" in err


@pytest.mark.parametrize(
    "argv,expected",
    [
        # golden-rule weights and first-order C/D contrast need |beta|^2 < 0.5
        (["pattern", "--config", "B", "--pulse", "long", "--beta", "0.9"], 3),
        (["pattern", "--config", "C1", "--pulse", "long", "--beta", "0.9"], 3),
        (["pattern", "--config", "E", "--pulse", "long", "--beta", "0.9"], 3),
        (["pattern", "--config", "B", "--pulse", "long", "--beta", "1.2"], 3),
        (["pattern", "--config", "C1", "--treatment", "first", "--beta", "0.8"], 3),
        (["pattern", "--config", "D", "--treatment", "first", "--beta", "0.8"], 3),
        (["pattern", "--config", "B", "--pulse", "long", "--beta", "0.7"], 0),
        (["pattern", "--config", "C2", "--treatment", "first", "--beta", "0.7j"], 0),
        # 170! is the largest float64 factorial
        (["pattern", "--config", "C1", "--nmax", "171"], 0),
        (["pattern", "--config", "C1", "--nmax", "172"], 3),
        (["pattern", "--config", "B", "--nmax", str(10**12)], 3),
        (["whichway", "--beta", "0.5", "--delta", "0.5", "--nmax", str(10**12)], 3),
        # a finite kick whose square overflows a float is out of domain, not a crash
        (["pattern", "--config", "B", "--beta", "1e200"], 3),
        (["pattern", "--config", "D", "--alpha", "1e200"], 3),
        (["whichway", "--beta", "1e200", "--delta", "0.1"], 3),
        (["whichway", "--beta", "0.1", "--delta", "1e200"], 3),
        (["pattern", "--config", "B", "--treatment", "first", "--beta", "1e200"], 3),
        (["pattern", "--config", "B", "--pulse", "long", "--beta", "1e200"], 3),
        # a tiny kick needs a huge probe, which fires with probability 0.0
        (["whichway", "--beta", "1e-200", "--delta", "0.1"], 0),
        # an undefined combination is a flag error even where nmax is out of range too
        (["pattern", "--config", "D", "--pulse", "long", "--nmax", "500"], 2),
        (["pattern", "--config", "E", "--treatment", "exact", "--nmax", "500"], 2),
        # re*re + im*im of this beta is 0.5, the bound, as closedform squares it; abs(b)**2
        # is one ulp below
        (["pattern", "--config", "C1", "--treatment", "first",
          "--beta=-0.5806662020015749+0.4035179820690351j"], 3),
        # the truncation residual 1e-10 at its edge: C1's tail at nmax 16 is 3.0e-10 at this
        # beta and 4.3e-11 at 1.3
        (["pattern", "--config", "C1", "--beta", "1.3909426050339602", "--nmax", "16"], 3),
        (["pattern", "--config", "C1", "--beta", "1.3", "--nmax", "16"], 0),
        # the intensity floor 1e-24: this cut keeps 1e-26 of the total weight
        (["pattern", "--config", "B", "--beta", "1e-13", "--coincidence", "atom1_excited"], 3),
    ],
)
def test_domain_limits_exit_codes(argv, expected, capsys):
    code, _, err = run(argv, capsys)
    assert code == expected
    if expected == 3:
        assert "physics domain error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["pattern", "--config", "D", "--alpha", "1e200"],
        ["whichway", "--beta", "0.1", "--delta", "1e200"],
    ],
)
def test_truncation_error_names_the_refused_amplitude(argv, capsys):
    # the refused amplitude is alpha or the probe delta, not the kick beta
    code, out, err = run(argv, capsys)
    assert code == 3
    assert out == ""
    assert "truncation" in err
    assert "beta" not in err
    assert "1e+200" in err


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("beta", ["1e-310", "5e-324"])
def test_whichway_refuses_a_tradeoff_whose_probe_overflows(beta, fmt, capsys):
    # the curve's first probe -ln(1e-6) / (4 beta) is above the largest float, which
    # printed as inf in CSV and as Infinity, not JSON, in JSON
    code, out, err = run(["whichway", "--beta", beta, "--delta", "0.5", "--format", fmt], capsys)
    assert code == 3
    assert out == ""
    assert re.fullmatch(r"atomslits: physics domain error: [^\n]* overflows a float\n", err)


def child_env(*paths):
    """This environment, with atomslits' sources and then `paths` first on PYTHONPATH."""
    src = str(Path(atomslits.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        str(p) for p in (src, *paths, os.environ.get("PYTHONPATH")) if p))


def test_cli_runs_without_scipy():
    script = (
        "import os, sys\n"
        "import atomslits\n"
        "from atomslits import cli\n"
        "codes = [cli.main(['pattern', '--config', 'B', '--beta', '0.2', '--eraser',"
        " '--coincidence', 'sym', '--out', os.devnull])]\n"
        "lazy = 'atomslits.acceptance' not in sys.modules\n"
        "no_json = 'json' not in sys.modules\n"
        "codes.append(cli.main(['report', '--out', os.devnull]))\n"
        "print(codes, 'scipy' in sys.modules, lazy, no_json, 'cmath' in sys.modules)\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, env=child_env(), timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[0, 0] False True True False\n"


def test_in_process_main_leaves_the_collector_on(capsys):
    code, _, _ = run(["whichway", "--beta", "0.5", "--delta", "1"], capsys)
    assert code == 0
    assert gc.isenabled()


# sitecustomize runs before `-m atomslits`, so its atexit hook sees the process as
# it shuts down, and the object it hangs on sys is released only by module cleanup
SITE_PROBES = (
    "import atexit, gc, os, sys\n"
    "atexit.register(lambda: sys.stderr.write(f'collector on: {gc.isenabled()}\\n'))\n"
    "class Finalized:\n"
    "    def __del__(self, write=os.write):\n"
    "        write(2, b'finalized\\n')\n"
    "sys.finalize_probe = Finalized()\n"
)
PROBED_ARGVS = [["whichway", "--beta", "0.5", "--delta", "1"], ["--version"]]


@pytest.mark.parametrize("argv", PROBED_ARGVS, ids=["whichway", "version"])
def test_module_entry_runs_atexit_with_the_collector_off(argv, tmp_path):
    (tmp_path / "sitecustomize.py").write_text(SITE_PROBES)
    result = subprocess.run([sys.executable, "-m", "atomslits", *argv], capture_output=True,
                            text=True, env=child_env(tmp_path), cwd=tmp_path, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout
    assert result.stderr.startswith("collector on: False\n"), result.stderr


@pytest.mark.parametrize("argv", PROBED_ARGVS, ids=["whichway", "version"])
def test_module_entry_skips_module_finalization(argv, tmp_path):
    (tmp_path / "sitecustomize.py").write_text(SITE_PROBES)
    result = subprocess.run([sys.executable, "-m", "atomslits", *argv], capture_output=True,
                            text=True, env=child_env(tmp_path), cwd=tmp_path, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "finalized" not in result.stderr


HELP_ARGVS = [["--help"], ["--version"]] + [[command, "--help"] for command in
                                            ("pattern", "sweep", "whichway", "report")]
ENTRY_CASES = [
    (["pattern", "--config", "B", "--beta", "0.25", "--eraser", "--samples", "16"], 0),
    (["whichway", "--beta", "0.5", "--delta", "1", "--format", "json"], 0),
    (["pattern", "--config", "B", "--alpha", "0.5"], 2),
    (["pattern", "--config", "Z"], 2),
    (["pattern", "--config", "B", "--beta", "5"], 3),
]
ENTRY_CASES += [case for case in benchmark_rejections() + [(argv, 0) for argv in HELP_ARGVS]
                if case not in ENTRY_CASES]


# the process enters through atomslits.front and in-process callers through cli.main;
# both must parse, check and dispatch alike
@pytest.mark.parametrize("argv,expected", ENTRY_CASES)
def test_module_entry_matches_in_process_main(argv, expected, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "100")  # argparse lays help out to this width in both
    code, out, err = run(argv, capsys)
    result = subprocess.run([sys.executable, "-m", "atomslits", *argv], capture_output=True,
                            env=child_env(), timeout=120)
    assert code == expected
    assert (result.returncode, result.stdout, result.stderr) == (code, out.encode(),
                                                                 err.encode())


# the truncation and perturbative refusals are settled before numpy loads; an empty
# post-selection is found only by computing
DOMAIN_CASES = [case for case in benchmark_rejections() if case[1] == 3] + [
    (["whichway", "--beta", "4.5", "--delta", "0.1"], 3)]
EXPECTED_CODES = {tuple(argv): code for argv, code in benchmark_rejections() + DOMAIN_CASES}


@pytest.mark.parametrize(
    "argv,loads_numpy",
    [(argv, False) for argv in HELP_ARGVS]
    + [(argv, False) for argv, code in benchmark_rejections() if code == 2]
    + [(["whichway", "--beta", "0.5", "--delta", "1"], True)]
    + [(argv, argv == ["pattern", "--config", "A", "--coincidence", "atom1_excited"])
       for argv, _ in DOMAIN_CASES],
)
def test_only_a_call_that_computes_loads_numpy(argv, loads_numpy, tmp_path):
    # sitecustomize runs before `-m atomslits`, so its atexit hook sees the modules
    # the process loaded
    (tmp_path / "sitecustomize.py").write_text(
        "import atexit, sys\n"
        "atexit.register(lambda: sys.stderr.write(f'numpy {\"numpy\" in sys.modules}\\n'))\n")
    result = subprocess.run([sys.executable, "-m", "atomslits", *argv], capture_output=True,
                            text=True, env=child_env(tmp_path), cwd=tmp_path, timeout=120)
    assert result.returncode == EXPECTED_CODES.get(tuple(argv), 0), result.stderr
    assert result.stderr.endswith(f"numpy {loads_numpy}\n"), result.stderr


def test_unwritable_out_is_one_error_line(tmp_path, capsys):
    code, out, err = run(["pattern", "--config", "B", "--out",
                          str(tmp_path / "missing" / "x.csv")], capsys)
    assert code == 2
    assert out == ""
    assert err == "atomslits: error: --out: cannot write output: No such file or directory\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_full_stdout_is_one_error_line():
    with open("/dev/full", "wb") as full:
        result = subprocess.run([sys.executable, "-m", "atomslits", "pattern", "--config", "B"],
                                stdout=full, stderr=subprocess.PIPE, text=True,
                                env=child_env(), timeout=120)
    assert result.returncode == 2
    assert result.stderr == ("atomslits: error: stdout: cannot write output: "
                             "No space left on device\n")


# argparse writes help and version text itself and drops an OSError it meets
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["pattern", "--help"],
                                  ["sweep", "--help"], ["whichway", "--help"],
                                  ["report", "--help"]])
def test_help_to_a_full_stdout_is_one_error_line(argv):
    with open("/dev/full", "wb") as full:
        result = subprocess.run([sys.executable, "-m", "atomslits", *argv],
                                stdout=full, stderr=subprocess.PIPE, text=True,
                                env=child_env(), timeout=120)
    assert result.returncode == 2
    assert result.stderr == ("atomslits: error: stdout: cannot write output: "
                             "No space left on device\n")


CLOSED_STDOUT = ("atomslits: error: stdout: cannot write output: "
                 f"{os.strerror(errno.EBADF)}\n")


# a process started with fd 1 closed has sys.stdout None
@pytest.mark.parametrize("argv", [["pattern", "--config", "B"], ["--help"], ["--version"]])
def test_closed_stdout_is_one_error_line(argv):
    script = ("import os, sys\n"
              "os.close(1)\n"
              "os.execv(sys.executable, [sys.executable, '-m', 'atomslits', *sys.argv[1:]])\n")
    result = subprocess.run([sys.executable, "-c", script, *argv], stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True, env=child_env(), timeout=120)
    assert (result.returncode, result.stderr) == (2, CLOSED_STDOUT)


@pytest.mark.parametrize("argv", [["pattern", "--config", "B"], ["report", "--help"]])
def test_closed_stdout_in_process_is_one_error_line(argv, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", None)
    code = main(argv)
    assert (code, capsys.readouterr().err) == (2, CLOSED_STDOUT)


CLOSED_STDERR_CALLS = [(["pattern", "--config", "B", "--alpha", "0.5"], 2),
                       (["pattern", "--config", "B", "--beta", "5"], 3),
                       (["pattern", "--config", "Q"], 2)]


# a process started with fd 2 closed has a sys.stderr whose writes fail
@pytest.mark.parametrize("argv,code", CLOSED_STDERR_CALLS)
def test_closed_stderr_keeps_the_exit_code(argv, code):
    script = ("import os, sys\n"
              "os.close(2)\n"
              "os.execv(sys.executable, [sys.executable, '-m', 'atomslits', *sys.argv[1:]])\n")
    result = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                            text=True, env=child_env(), timeout=120)
    assert (result.returncode, result.stdout) == (code, "")


class _DeadStream(io.StringIO):
    def write(self, text):
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))


@pytest.mark.parametrize("stderr", [None, _DeadStream()], ids=["missing", "dead"])
@pytest.mark.parametrize("argv,code", CLOSED_STDERR_CALLS)
def test_closed_stderr_in_process_keeps_the_exit_code(argv, code, stderr, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stderr", stderr)
    assert main(argv) == code
    assert capsys.readouterr().out == ""


# the flags of each subcommand, which its parser adds when it first parses
SUBCOMMAND_FLAGS = {
    "pattern": ["--config", "--pulse", "--treatment", "--beta", "--alpha", "--epsilon",
                "--coupling", "--evolve-time", "--nmax", "--eraser", "--dispersive",
                "--coincidence", "--samples", "--format", "--out"],
    "sweep": ["--config", "--pulse", "--treatment", "--alpha", "--epsilon", "--coupling",
              "--evolve-time", "--nmax", "--eraser", "--dispersive", "--coincidence",
              "--format", "--out", "--beta-range"],
    "whichway": ["--beta", "--delta", "--nmax", "--format", "--out"],
    "report": ["--out"],
}


def test_one_parser_parses_every_subcommand_in_turn():
    parser = build_parser()
    for argv in (["pattern", "--config", "B", "--beta", "0.3", "--samples", "32"],
                 ["sweep", "--config", "C1", "--beta-range", "0:0.3:4"],
                 ["whichway", "--beta", "0.5", "--delta", "1"],
                 ["report", "--out", "r.json"],
                 ["pattern", "--config", "D", "--alpha", "0.4", "--format", "json"]):
        args = parser.parse_args(argv)
        assert args.command == argv[0]
        assert {"--" + key.replace("_", "-") for key in vars(args)} >= set(argv[1::2])


@pytest.mark.parametrize("command", SUBCOMMAND_FLAGS)
def test_subcommand_help_lists_every_flag(command, capsys):
    code, out, _ = run([command, "--help"], capsys)
    assert code == 0
    assert set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", out)) == {"--help",
                                                                 *SUBCOMMAND_FLAGS[command]}


# Calls whose truncation drops more than 1e-10 of a kick that reaches a printed
# number, each printed wrong with exit 0 before the runner refused them.
@pytest.mark.parametrize("argv,amplitude", [
    (["pattern", "--config", "C1", "--beta", "5", "--nmax", "32"], "beta = 5+0j"),
    (["pattern", "--config", "C1", "--beta", "1.4", "--nmax", "2"], "beta = 1.4+0j"),
    (["pattern", "--config", "B", "--beta", "3"], "beta = 3+0j"),
    (["pattern", "--config", "D", "--beta", "0.3", "--alpha", "3.9", "--coincidence", "ground"],
     "alpha = 3.9+0j"),
    (["whichway", "--beta", "3.9", "--delta", "2"], "delta = 2"),
])
def test_truncated_kick_is_refused(argv, amplitude, capsys):
    code, out, err = run(argv, capsys)
    assert code == 3
    assert out == ""
    assert f"coherent amplitude {amplitude} loses " in err
    assert "use a larger --nmax" in err


def test_full_contrast_visibility_is_clamped_to_one(capsys):
    # the conditioned coherence rounds to one ulp above full contrast here
    code, out, _ = run(["pattern", "--config", "C2", "--beta=-0.50793+0.142435j",
                        "--coincidence", "single_atom_1", "--samples", "16"], capsys)
    assert code == 0
    assert csv_sections(out)[0]["visibility"] == "1.0"


def test_whichway_unit_overlap_is_clamped_to_one(capsys):
    # at nmax 10 the renormalized overlap <delta|beta> rounds 6 ulps above 1; the
    # truncation drops 7.3e-12 of the state, inside what whichway accepts
    code, out, _ = run(["whichway", "--beta", "0.6", "--delta", "0.6", "--nmax", "10"], capsys)
    assert code == 0
    assert csv_sections(out)[0]["simulated_p_plus"] == "1.0"


def test_eraser_antisym_on_symmetric_exact_b_is_exactly_flat(capsys):
    # after the eraser, path 2's one-quantum amplitude lies wholly in the sym
    # state, so its antisym projection and the coherence must come out as
    # exact zeros, not as rounding residue
    code, out, _ = run(["pattern", "--config", "B", "--treatment", "exact", "--beta=-0.207528",
                        "--eraser", "--coincidence", "antisym"], capsys)
    assert code == 0
    meta, _, _ = csv_sections(out)
    assert meta["visibility"] == "0.0"
    assert meta["phase_offset"] == "0.0"


def test_epsilon_domain_is_flag_error(capsys):
    code, _, err = run(["pattern", "--config", "A", "--epsilon", "0.5"], capsys)
    assert code == 2
    assert "epsilon" in err


# epsilon**2 scales every weight; below sqrt(float_info.min) it is subnormal or 0,
# which turns the true visibility 0.91 into 0.9 at 1e-161 and 0.9100790513833992
# at 1e-160, and leaves no weight at all at 1e-170.
@pytest.mark.parametrize("epsilon", ["1e-170", "1e-161", "1e-160", "1.4916681462400412e-154"])
def test_epsilon_whose_square_is_subnormal_is_flag_error(epsilon, capsys):
    code, out, err = run(["pattern", "--config", "B", "--pulse", "long", "--beta", "0.3",
                          "--epsilon", epsilon], capsys)
    assert code == 2
    assert out == ""
    assert "epsilon" in err


def test_smallest_epsilon_keeps_the_visibility(capsys):
    code, out, _ = run(["pattern", "--config", "B", "--pulse", "long", "--beta", "0.3",
                        "--epsilon", repr(math.sqrt(sys.float_info.min))], capsys)
    assert code == 0
    meta, _, _ = csv_sections(out)
    assert float(meta["visibility"]) == pytest.approx(0.91, abs=1e-15)


def test_report_passes_on_fresh_tree(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["report", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    assert payload["version"]
    ids = [c["id"] for c in payload["criteria"]]
    assert len(ids) == 9
    for criterion in payload["criteria"]:
        assert criterion["passed"] is True
        assert criterion["checks"]


def test_report_fails_with_corrupted_tolerance(monkeypatch, capsys):
    # an impossible tolerance must fail the run and drive a nonzero exit
    corrupted = tuple(dataclasses.replace(c, tolerance=1e-30) if c.id == "b_short_contrast"
                      else c for c in acceptance.CRITERIA)
    monkeypatch.setattr(acceptance, "CRITERIA", corrupted)
    code, out, _ = run(["report"], capsys)
    assert code == 4
    by_id = {c["id"]: c["passed"] for c in json.loads(out)["criteria"]}
    assert by_id.pop("b_short_contrast") is False
    assert all(by_id.values())


def test_a_fault_raised_inside_a_report_criterion_fails_it(monkeypatch, capsys):
    # a mean intensity that drops psi2 empties B long's coincidence cut: the
    # EmptyPatternError is the library's fault, not a domain error of the caller
    from atomslits import twopath

    def dropped(m):
        return sum(c.weight * c.psi1.norm() ** 2 for c in m.components)

    monkeypatch.setattr(twopath, "mean_intensity", dropped)
    code, out, err = run(["report"], capsys)
    assert code == 4 and err == ""

    def refuse(constant):
        raise ValueError(f"report JSON holds {constant}")

    criteria = {c["id"]: c for c in json.loads(out, parse_constant=refuse)["criteria"]}
    failed = criteria["long_pulse_b_irreversible"]
    assert failed["passed"] is False
    [check] = failed["checks"]
    assert check["name"].startswith("raised EmptyPatternError: both paths carry zero")
    assert (check["value"], check["expected"], check["passed"]) == (1.0, 0.0, False)


def test_a_library_fault_in_pattern_is_one_internal_error_line(monkeypatch, capsys):
    # a mean intensity that drops psi2 puts pattern's samples far below zero
    from atomslits import twopath

    def dropped(m):
        return sum(c.weight * c.psi1.norm() ** 2 for c in m.components)

    monkeypatch.setattr(twopath, "mean_intensity", dropped)
    code, out, err = run(["pattern", "--config", "B", "--samples", "16"], capsys)
    assert (code, out) == (1, "")
    assert err == ("atomslits: internal error: intensity went significantly negative; "
                   "bookkeeping bug\n")


def test_version_flag(capsys):
    code, out, _ = run(["--version"], capsys)
    assert code == 0
    assert "atomslits" in out


# The catalogue's undefined (config, pulse, treatment) combinations and the
# flag the CLI names for each; every other combination runs.
CONFIGS = ("A", "B", "C1", "C2", "D", "E")


def undefined_flag(config, pulse, treatment):
    if config == "D" and pulse == "long":
        return "--pulse"
    if config == "E" and pulse == "short" and treatment == "exact":
        return "--treatment"
    return None


@pytest.mark.parametrize("treatment", [None, "exact", "first"])
@pytest.mark.parametrize("pulse", ["short", "long"])
@pytest.mark.parametrize("config", CONFIGS)
def test_every_regime_runs_or_names_the_flag(config, pulse, treatment, capsys):
    argv = ["pattern", "--config", config, "--pulse", pulse, "--beta", "0.3"]
    if treatment is not None:
        argv += ["--treatment", treatment]
    code, out, err = run(argv, capsys)
    flag = undefined_flag(config, pulse, treatment)
    if flag is None:
        assert code == 0
        meta, _, _ = csv_sections(out)
        # config E defaults to first order on both pulses, the rest to exact
        default = "first" if config == "E" else "exact"
        assert meta["treatment"] == (treatment or default)
    else:
        assert code == 2
        assert out == ""
        assert f"error: {flag}:" in err


@pytest.mark.parametrize(
    "config,pulse",
    [(c, p) for c in CONFIGS for p in ("short", "long") if not undefined_flag(c, p, None)],
)
def test_sweep_lanes_and_echo_follow_the_regime(config, pulse, capsys):
    code, out, _ = run(["sweep", "--config", config, "--pulse", pulse,
                        "--beta-range", "0.1:0.3:3"], capsys)
    assert code == 0
    meta, _, rows = csv_sections(out)
    assert meta["treatment"] == ("first" if config == "E" else "exact")
    # two lanes where the regime tells exact from first order, else one lane in both columns
    two_lanes = pulse == "short" and config in ("B", "C1", "C2", "D")
    for row in rows:
        assert (row["visibility_exact"] != row["visibility_first_order"]) is two_lanes


# The config-only flags and the one config that reads each, stated apart from spec._REGIMES.
CONFIG_ONLY = {"--alpha": ("alpha", "D"), "--coupling": ("coupling_g", "E"),
               "--evolve-time": ("evolve_time", "E")}


def test_config_only_flags_are_the_regime_tables():
    assert {field: config.value for field, config in _FIELD_CONFIGS.items()} == dict(
        CONFIG_ONLY.values())


@pytest.mark.parametrize("command", ["pattern", "sweep"])
@pytest.mark.parametrize("flag", CONFIG_ONLY)
@pytest.mark.parametrize("config", CONFIGS)
def test_each_config_only_flag_is_refused_off_its_config(command, flag, config, capsys):
    argv = [command, "--config", config, f"{flag}=0.5"]
    if command == "sweep":
        argv += ["--beta-range", "0:0.1:2"]
    code, out, err = run(argv, capsys)
    field, reader = CONFIG_ONLY[flag]
    if config == reader:
        # the flag reaches its spec field, echoed in the header
        assert (code, err) == (0, "")
        assert csv_sections(out)[0][field] == ("0.5+0j" if field == "alpha" else "0.5")
    else:
        assert (code, out) == (2, "")
        assert err == f"atomslits: error: {flag}: applies to config {reader} only, " \
                      f"not config {config}\n"


# Floats a user could type, weighted towards the values that break numerics;
# the tame ranges keep a share of the calls inside the physical domain.
_wild = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1e300, 0.0, -0.0, 5e-324]),
    st.floats(-3.0, 3.0),
    st.floats(),
)
_kick = st.one_of(st.floats(-0.6, 0.6), _wild, st.builds(complex, _wild, _wild))
_nmax = st.one_of(st.integers(2, 24), st.integers(-5, 400))


def _option(flag, value):
    return [] if value is None else [f"{flag}={value}"]


@st.composite
def pattern_argv(draw):
    config = draw(st.sampled_from(CONFIGS))
    argv = ["pattern", "--config", config, "--pulse", draw(st.sampled_from(["short", "long"]))]
    argv += _option("--treatment", draw(st.sampled_from([None, "exact", "first"])))
    argv += _option("--beta", draw(_kick))
    if config == "D":
        argv += _option("--alpha", draw(st.none() | _kick))
    if config == "E":
        argv += _option("--coupling", draw(st.none() | st.floats(0.0, 2.0) | _wild))
        argv += _option("--evolve-time", draw(st.none() | st.floats(0.0, 2.0) | _wild))
    argv += _option("--epsilon", draw(st.none() | st.floats(1e-3, 0.1) | _wild))
    argv += _option("--nmax", draw(_nmax))
    return argv


@st.composite
def whichway_argv(draw):
    return (["whichway"] + _option("--beta", draw(_wild)) + _option("--delta", draw(_wild))
            + _option("--nmax", draw(_nmax)))


def run_quiet(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_clean_refusal(code, out, err):
    assert code in (2, 3), err
    assert out == ""
    assert "Traceback" not in err


@settings(max_examples=300)
@given(argv=pattern_argv())
def test_pattern_gives_finite_visibility_or_a_clean_refusal(argv):
    code, out, err = run_quiet(argv)
    if code != 0:
        assert_clean_refusal(code, out, err)
        return
    v = float(csv_sections(out)[0]["visibility"])
    assert 0.0 <= v <= 1.0


@settings(max_examples=100)
@given(argv=whichway_argv())
def test_whichway_gives_finite_probabilities_or_a_clean_refusal(argv):
    code, out, err = run_quiet(argv)
    if code != 0:
        assert_clean_refusal(code, out, err)
        return
    meta = csv_sections(out)[0]
    for key in ("p_plus", "p_minus", "detect_prob", "simulated_p_plus", "simulated_p_minus"):
        assert 0.0 <= float(meta[key]) <= 1.0, key
    for key in ("fractional_error", "simulated_ratio"):
        assert math.isfinite(float(meta[key])), key
