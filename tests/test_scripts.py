"""Smoke runs of the scripts the README documents."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import atomslits

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(atomslits.__file__).resolve().parents[1])


def run_script(name, *args, cwd, **env):
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, cwd=cwd, timeout=120)


def test_contrast_sweep_writes_one_csv_per_case(tmp_path):
    outdir = tmp_path / "sweep"
    result = run_script("contrast_sweep.py", "--outdir", str(outdir), cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    csvs = sorted(outdir.glob("*.csv"))
    assert len(csvs) == 9
    for path in csvs:
        lines = path.read_text().splitlines()
        assert lines[0] == "beta,visibility,reference,deviation"
        assert len(lines) == 12
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep"]


@pytest.mark.parametrize("args,message", [
    (["--steps", "0"], "--steps must be >= 1"),
    # the first three cases pass up to 0.8; B's long pulse refuses beta 0.72, the grid's
    # tenth, and not even their files are written
    (["--beta-max", "0.8"], "need |beta|^2 < 0.5, got |beta|^2 = 0.5184"),
], ids=["steps", "beta_max"])
def test_contrast_sweep_refuses_before_writing_a_file(tmp_path, args, message):
    outdir = tmp_path / "sweep"
    outdir.mkdir()
    result = run_script("contrast_sweep.py", *args, "--outdir", str(outdir), cwd=tmp_path)
    assert (result.returncode, result.stdout) == (2, "")
    assert "Traceback" not in result.stderr
    errors = [line for line in result.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert errors[0].startswith("contrast_sweep.py: error: ") and message in errors[0]
    assert list(outdir.iterdir()) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep"]


def test_chain_cost_prints_every_stage(tmp_path):
    result = run_script("chain_cost.py", "--nmax", "16", "--seed", "2", "--rounds", "1",
                        cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "nmax 16, seed 2: best of 1 rounds of 24 chains, BLAS on one thread"
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == ["spec", "build", "eraser/beat", "dispersive",
                                        "visibility", "projector", "condition", "pattern",
                                        "total"]
    costs = [float(row[1]) for row in rows]
    assert all(us > 0 for us in costs)
    assert abs(sum(costs[:-1]) - costs[-1]) < 0.5
    assert list(tmp_path.iterdir()) == []


def test_chain_cost_refuses_a_truncated_kick(tmp_path):
    # four levels drop more than 1e-10 of every drawn exact kick, and build refuses it
    result = run_script("chain_cost.py", "--nmax", "4", "--seed", "2", "--rounds", "1",
                        cwd=tmp_path)
    assert (result.returncode, result.stdout) == (2, "")
    errors = [line for line in result.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert errors[0].startswith("chain_cost.py: error: ") and "truncation" in errors[0]


def test_startup_cost_splits_every_kind(tmp_path):
    # no bytecode cache is read or written, so every child compiles atomslits' source
    result = run_script("startup_cost.py", "--runs", "1", cwd=tmp_path,
                        PYTHONDONTWRITEBYTECODE="1", PYTHONPYCACHEPREFIX=str(tmp_path / "none"))
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "median of 1 fresh children per kind, in ms, BLAS on one thread"
    assert lines[1].split() == ["kind", "start", "package", "front", "main", "exit", "total",
                                 "compile", "numpy", "dataclasses"]
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == ["pattern_csv", "pattern_json", "sweep", "sweep_dense",
                                        "whichway", "report", "reject", "reject3", "help",
                                        "version"]
    for row in rows:
        parts = [float(ms) for ms in row[1:7]]
        assert all(ms > 0 for ms in parts)
        assert abs(sum(parts[:-1]) - parts[-1]) < 0.5
        assert 0 < float(row[7]) < parts[-1]
    # only report loads numpy: every other call computes, if at all, at the default nmax,
    # whose spaces are the scalar engine's; the truncation refusal is settled before
    assert [row[-2] for row in rows] == ["no"] * 5 + ["yes"] + ["no"] * 4
    # every call that computes loads dataclasses, for twopath's PatternScan; no refusal does
    assert [row[-1] for row in rows] == ["yes"] * 6 + ["no"] * 4
    assert list(tmp_path.iterdir()) == []


def test_identity_reports_each_call_that_differs(tmp_path):
    result = run_script("identity.py", SRC, SRC, "--limit", "10", cwd=tmp_path)
    assert (result.returncode, result.stdout.splitlines()) == (0, [
        "10 calls: 10 same, 0 differ; at the parent 10 exit 0",
        "no call differs in exit code, stdout or stderr"]), result.stderr
    # a copy whose whichway CSV header differs in one byte; the first ten calls hold one
    copy = tmp_path / "src"
    shutil.copytree(Path(SRC) / "atomslits", copy / "atomslits",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = copy / "atomslits" / "cli.py"
    cli.write_text(cli.read_text().replace('"command": "whichway"', '"command": "whichwaY"'))
    result = run_script("identity.py", SRC, str(copy), "--limit", "10", cwd=tmp_path)
    assert (result.returncode, result.stdout.splitlines()) == (1, [
        "10 calls: 9 same, 1 differ; at the parent 10 exit 0",
        "  whichway --beta 0.5 --delta 1.0: stdout (exit 0 -> 0)"]), result.stderr


def test_identity_library_reports_each_chain_that_differs(tmp_path):
    result = run_script("identity.py", SRC, SRC, "--library", "--limit", "60", cwd=tmp_path)
    lines = result.stdout.splitlines()
    assert (result.returncode, lines[1:]) == (
        0, ["no chain differs in its results or its exception"]), result.stderr
    assert lines[0].startswith("60 chains: 60 same, 0 differ; at the parent ")
    # a copy whose config A weight is one ulp higher: each A chain that builds differs
    copy = tmp_path / "src"
    shutil.copytree(Path(SRC) / "atomslits", copy / "atomslits",
                    ignore=shutil.ignore_patterns("__pycache__"))
    scenarios = copy / "atomslits" / "scenarios.py"
    source = scenarios.read_text()
    weight = "return _mixture((g, g, FreqTag.ELASTIC, spec.epsilon**2))"
    assert source.count(weight) == 1
    scenarios.write_text(source.replace(
        weight, "return _mixture((g, g, FreqTag.ELASTIC, math.nextafter(spec.epsilon**2, 1)))"))
    result = run_script("identity.py", SRC, str(copy), "--library", "--limit", "60",
                        cwd=tmp_path)
    sys.path.insert(0, str(ROOT / "scripts"))
    try:
        import identity
    finally:
        sys.path.remove(str(ROOT / "scripts"))
    built_a = [chain for chain in identity.chains(1, 60)
               if chain[0]["config"] == "A" and identity.chain_outcome(chain)[1] == "built"]
    reported = result.stdout.splitlines()[1:]
    assert result.returncode == 1 and len(built_a) >= 2, result.stderr
    assert result.stdout.splitlines()[0].startswith(
        f"60 chains: {60 - len(built_a)} same, {len(built_a)} differ; ")
    assert [line.split(": built -> built")[0].strip() for line in reported] == [
        f"{fields} eraser={eraser} dispersive={dispersive} coincidence={coincidence}"
        for fields, eraser, dispersive, coincidence in built_a]
