"""Smoke runs of the scripts the README documents."""

import os
import subprocess
import sys
from pathlib import Path

import atomslits

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(atomslits.__file__).resolve().parents[1])


def run_script(name, *args, cwd):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
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



def test_chain_cost_prints_every_stage(tmp_path):
    result = run_script("chain_cost.py", "--nmax", "4", "--seed", "2", "--rounds", "1",
                        cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "nmax 4, seed 2: best of 1 rounds of 24 chains, BLAS on one thread"
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == ["spec", "build", "eraser/beat", "dispersive",
                                        "visibility", "projector", "condition", "pattern",
                                        "total"]
    costs = [float(row[1]) for row in rows]
    assert all(us > 0 for us in costs)
    assert abs(sum(costs[:-1]) - costs[-1]) < 0.5
    assert list(tmp_path.iterdir()) == []


def test_startup_cost_splits_every_kind(tmp_path):
    result = run_script("startup_cost.py", "--runs", "1", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "median of 1 fresh children per kind, in ms, BLAS on one thread"
    assert lines[1].split() == ["kind", "start", "package", "front", "main", "exit", "total",
                                 "numpy"]
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == ["pattern_csv", "pattern_json", "sweep", "whichway",
                                        "report", "reject", "reject3", "help", "version"]
    for row in rows:
        parts = [float(ms) for ms in row[1:-1]]
        assert all(ms > 0 for ms in parts)
        assert abs(sum(parts[:-1]) - parts[-1]) < 0.5
    # only the calls that compute, or that exit 3 after building, load numpy
    assert [row[-1] for row in rows] == ["yes"] * 5 + ["no", "yes", "no", "no"]
    assert list(tmp_path.iterdir()) == []
