import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import atomslits
from atomslits import acceptance
from atomslits.cli import main


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    ],
)
def test_flag_errors_exit_two_and_name_the_flag(argv, needle, capsys):
    code, _, err = run(argv, capsys)
    assert code == 2
    assert needle in err


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
    ],
)
def test_domain_limits_exit_codes(argv, expected, capsys):
    code, _, err = run(argv, capsys)
    assert code == expected
    if expected == 3:
        assert "physics domain error" in err


def test_cli_runs_without_scipy():
    script = (
        "import os, sys\n"
        "import atomslits\n"
        "from atomslits import cli\n"
        "codes = [cli.main(['pattern', '--config', 'B', '--beta', '0.2', '--eraser',"
        " '--coincidence', 'sym', '--out', os.devnull]),"
        " cli.main(['report', '--out', os.devnull])]\n"
        "print(codes, 'scipy' in sys.modules)\n"
    )
    src = str(Path(atomslits.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[0, 0] False\n"


def test_epsilon_domain_is_flag_error(capsys):
    code, _, err = run(["pattern", "--config", "A", "--epsilon", "0.5"], capsys)
    assert code == 2
    assert "epsilon" in err


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
    impossible = acceptance.run_all({"b_short_contrast": 1e-30})
    assert impossible["passed"] is False
    monkeypatch.setattr("atomslits.cli.acceptance.run_all", lambda: impossible)
    code, out, _ = run(["report"], capsys)
    assert code == 4
    assert json.loads(out)["passed"] is False


def test_version_flag(capsys):
    code, out, _ = run(["--version"], capsys)
    assert code == 0
    assert "atomslits" in out
