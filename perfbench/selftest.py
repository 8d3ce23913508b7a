"""Tests of the benchmark itself: generator, metric names, oracle, tracing.

    python3 -m pytest perfbench/selftest.py -q

The file name keeps these tests out of the repository's own test run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import json
import math
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from atomslits import acceptance, cli  # noqa: E402

from perfbench import generate, oracle, workloads  # noqa: E402
from perfbench.launcher import Launcher  # noqa: E402
from perfbench.tracing import self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _cli_calls(seed, blocks=3):
    return list(itertools.chain.from_iterable(itertools.islice(generate.cli_blocks(seed), blocks)))


def _cli_argvs(seed):
    return [c.argv for c in _cli_calls(seed)]


def _marker_ops(seed, rounds=2):
    gen = generate.marker_rounds(seed)
    return [(op.kind, op.case, op.beat) for _ in range(rounds) for op in next(gen)]


def test_generator_is_deterministic_per_seed():
    assert _cli_argvs(7) == _cli_argvs(7)
    assert _cli_argvs(7) != _cli_argvs(8)
    assert _marker_ops(7) == _marker_ops(7)
    assert _marker_ops(7) != _marker_ops(8)


def test_generator_block_mix_and_domain():
    for block in itertools.islice(generate.cli_blocks(3), 10):
        kinds = [c.kind for c in block]
        assert {k: kinds.count(k) for k in set(kinds)} == dict(generate.CLI_BLOCK)
    for call in _cli_calls(3, blocks=10):
        text = " ".join(call.argv).lower()
        assert "nan" not in text and "inf" not in text
        if call.kind in ("pattern", "sweep"):
            assert abs(complex(call.case.beta)) ** 2 < 0.5
            if call.betas:
                assert call.betas[1] ** 2 < 0.5
        if call.kind == "reject":
            assert (call.argv, call.exit_code) in [(list(a), c) for a, c in generate.REJECTED]
    for _, case, beat in _marker_ops(3):
        assert case.nmax in generate.MARKER_NMAX
        assert abs(complex(case.beta)) ** 2 < 0.5
        assert oracle.predict(case, beat=beat).visibility is not None


def test_metric_names_units_and_benchmark_json_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for table, key in ((workloads.END_TO_END, "end_to_end"), (workloads.PER_LAYER, "per_layer")):
        assert [m["name"] for m in spec[key]] == list(table)
        for entry in spec[key]:
            assert NAME.fullmatch(entry["name"]), entry["name"]
            assert UNIT.fullmatch(entry["unit"]), entry["unit"]
            assert (entry["unit"], entry["better"]) == table[entry["name"]][:2]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert all(NAME.fullmatch(w["name"]) for w in spec["workloads"])
    assert "setup_s" in workloads.END_TO_END


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _first(kind, fmt=None, seed=5, pred=lambda c: True):
    for call in itertools.chain.from_iterable(generate.cli_blocks(seed)):
        if call.kind == kind and (fmt is None or call.fmt == fmt) and pred(call):
            return call
    raise AssertionError("unreachable")


def _shift_number(text: str, key: str, delta: float) -> str:
    """Add delta to the first `key` value in CSV metadata or JSON output."""
    pattern = re.compile(rf'(# {key}=|"{key}": )(-?[0-9.e+-]+)')
    match = pattern.search(text)
    assert match, key
    return text[: match.start(2)] + repr(float(match.group(2)) + delta) + text[match.end(2):]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cli_oracle_accepts_the_program_and_rejects_a_wrong_visibility(fmt):
    call = _first("pattern", fmt)
    code, out, err = _run_cli(call.argv)
    oracle.check_cli(call, code, out, err)
    with pytest.raises(oracle.Mismatch):
        oracle.check_cli(call, code, _shift_number(out, "visibility", 1e-3), err)


def test_cli_oracle_rejects_wrong_exit_codes():
    call = _first("reject")
    code, out, err = _run_cli(call.argv)
    oracle.check_cli(call, code, out, err)
    with pytest.raises(oracle.Mismatch):
        oracle.check_cli(call, 5 - code, out, err)  # 2 <-> 3
    good = _first("pattern")
    with pytest.raises(oracle.Mismatch):
        oracle.check_cli(good, 2, "", "atomslits: error: made up\n")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cli_oracle_rejects_wrong_sweep_and_whichway_numbers(fmt):
    sweep = _first("sweep", fmt)
    code, out, err = _run_cli(sweep.argv)
    oracle.check_cli(sweep, code, out, err)
    if fmt == "json":
        doc = json.loads(out)
        doc["rows"][-1]["visibility_first_order"] += 1e-3
        wrong = json.dumps(doc)
    else:
        lines = out.splitlines()
        cells = lines[-1].split(",")
        cells[2] = repr(float(cells[2]) + 1e-3)
        wrong = "\n".join(lines[:-1] + [",".join(cells)]) + "\n"
    with pytest.raises(oracle.Mismatch):
        oracle.check_cli(sweep, code, wrong, err)

    whichway = _first("whichway", fmt, pred=lambda c: c.whichway[0] > 0)
    code, out, err = _run_cli(whichway.argv)
    oracle.check_cli(whichway, code, out, err)
    key = "p_plus" if fmt == "json" else "simulated_p_plus"
    with pytest.raises(oracle.Mismatch):
        oracle.check_cli(whichway, code, _shift_number(out, key, 1e-3), err)


def test_marker_oracle_rejects_a_wrong_visibility():
    ops = [op for op in next(generate.marker_rounds(4)) if op.case.nmax == 32]
    for op in ops:
        op.case.nmax = 16  # the same chain, small enough for a unit test
        outcome = workloads.marker_chain(op)
        oracle.check_marker(op, outcome)
        unconditioned, scan, post = outcome
        wrong = dataclasses.replace(scan, visibility=scan.visibility - 1e-3)
        with pytest.raises(oracle.Mismatch):
            oracle.check_marker(op, (unconditioned, wrong, post))
        with pytest.raises(oracle.Mismatch):
            oracle.check_marker(op, (unconditioned, scan, post * (1 + 1e-3)))


def test_report_oracle_rejects_a_wrong_check():
    report = acceptance.run_all()
    oracle.check_report(report)
    wrong = json.loads(json.dumps(report))
    check = wrong["criteria"][0]["checks"][0]
    check["value"] += 1e-3
    check["expected"] += 1e-3  # self-consistent: only the closed form catches it
    with pytest.raises(oracle.Mismatch):
        oracle.check_report(wrong)
    failed = json.loads(json.dumps(report))
    failed["passed"] = False
    with pytest.raises(oracle.Mismatch):
        oracle.check_report(failed)


def test_oracle_matches_closed_forms():
    b = 0.3
    case = generate.Case("B", "short", "first", str(b), eraser=True, coincidence="atom1_excited")
    p = oracle.predict(case)
    assert p.visibility == pytest.approx(1.0)
    assert p.post_selection == pytest.approx(b * b / 2)
    assert p.unconditioned_visibility == pytest.approx(1 - b * b)
    long_c = generate.Case("C1", "long", None, str(b), dispersive=["SHIFTED"])
    assert oracle.predict(long_c).visibility == pytest.approx(1.0)
    assert oracle.predict(generate.Case("B", beta=str(b))).visibility == pytest.approx(
        math.exp(-b * b))
    empty = generate.Case("A", coincidence="atom1_excited")
    assert oracle.predict(empty).visibility is None


def test_importtime_attribution():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        150 |     numpy.core",
        "import time:        50 |        200 |   numpy",
        "import time:        10 |         10 |       numpy.linalg",
        "import time:        20 |        300 |     scipy",
        "import time:         5 |        400 |   scipy.linalg",
        "import time:         1 |        700 | atomslits",
    ])
    got = workloads._importtime_ms(text)
    assert got == {"import.numpy_ms": 0.2, "import.scipy_ms": 0.4, "import.atomslits_ms": 0.7}


def test_self_times_subtract_children():
    spans = [["op", 0.0, 1.0, -1, 1], ["a", 0.1, 0.5, 0, 1], ["b", 0.2, 0.3, 1, 1]]
    got = self_times(spans)
    assert got["op"][0] == pytest.approx((600.0, 1000.0))
    assert got["a"][0] == pytest.approx((300.0, 400.0))
    assert got["b"][0] == pytest.approx((100.0, 100.0))


def test_calls_per_op_divide_by_traced_ops():
    spans = [["op", 0, 1, -1, 1], ["scenarios.build", 0, 1, 0, 1],
             ["op", 1, 2, -1, 2], ["scenarios.build", 1, 2, 2, 2],
             ["scenarios.build", 1, 2, 2, 2], ["twopath.condition", 1, 2, 2, 2]]
    got = workloads.calls_per_op([{"spans": spans, "peaks_mb": {}}], ops=2)
    assert got["scenarios.build_calls_per_op"] == 1.5
    assert got["twopath.condition_calls_per_op"] == 0.5
    assert got["fockspace.displacement_operator_calls_per_op"] == 0.0


def test_end_to_end_times_scale_with_the_reference():
    result = workloads.Outcome(plain_ms=[100.0, 300.0], rss_mb=[50.0], elapsed_s=0.5)
    clock = workloads.LoopClock(1.0, launcher=None, pairs=2)
    clock.setup_ms = [400.0, 900.0]
    clock.reference_ms = {"start": [200.0, 300.0], "kernel": [100.0, 150.0]}
    for reference, mean in (("start", 250.0), ("kernel", 125.0)):
        scaled, raw = workloads.end_to_end(result, clock, reference)
        speed = workloads.REFERENCE_MS[reference] / mean
        assert raw["op_ms.mean"] == 200.0 and raw["ops_per_s"] == 4.0
        assert scaled["op_ms.mean"] == pytest.approx(200.0 * speed)
        assert scaled["ops_per_s"] == pytest.approx(4.0 / speed)
        assert scaled["setup_s"] == pytest.approx(2.5 * workloads.REFERENCE_MS["start"] / 1e3)
        assert scaled["peak_rss_mb"] == 50.0


def test_launcher_reports_the_child_rss_not_its_callers(tmp_path):
    launcher = Launcher.start(ROOT, tmp_path)
    try:
        ballast = bytearray(256 * 2**20)
        ballast[::4096] = b"\1" * len(ballast[::4096])  # resident in this process
        wall_ms, rss_mb, code, out, err = launcher.run(
            [sys.executable, "-c", "import sys; print('hi'); sys.exit(3)"])
        del ballast
    finally:
        launcher.stop()
    assert (code, out, err) == (3, "hi\n", "")
    assert wall_ms > 0
    assert rss_mb < 128
