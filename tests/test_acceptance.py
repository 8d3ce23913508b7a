"""Acceptance gate: every criterion runs at its stated tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s; pytest -v shows
the same verdicts through the test ids) and fails with the full check table
of the offending criterion.
"""

import json

import pytest

from atomslits import acceptance


@pytest.mark.parametrize("criterion", acceptance.CRITERIA, ids=lambda c: c.id)
def test_criterion(criterion):
    result = criterion.run()
    verdict = "PASS" if result["passed"] else "FAIL"
    print(f"{result['id']}: {verdict} ({len(result['checks'])} checks)")
    assert result["passed"], json.dumps(
        [c for c in result["checks"] if not c["passed"]], indent=2
    )


def test_full_report_passes():
    report = acceptance.run_all()
    assert report["passed"] is True
    assert len(report["criteria"]) == len(acceptance.CRITERIA)


def test_tolerance_overrides_are_honored():
    # corrupting a tolerance must fail the criterion, not be absorbed
    by_id = {c.id: c for c in acceptance.CRITERIA}
    result = by_id["b_short_contrast"].run(1e-30)
    assert result["passed"] is False
    assert result["tolerance"] == 1e-30
    assert by_id["c_long_dispersive"].run(1e-30)["passed"] is True
