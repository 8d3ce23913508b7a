"""Acceptance gate: every criterion runs at its stated tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s; pytest -v shows
the same verdicts through the test ids) and fails with the full check table
of the offending criterion. The criteria check the code the CLI prints from
against closedform, which the last tests pin by changing one of the two.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest

from atomslits import (FreqTag, Projector, ScenarioSpec, TruncationError, TwoPathComponent,
                       TwoPathMixture, acceptance, build, closedform, condition,
                       scenarios)
from atomslits.cli import main


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


def test_criteria_hold_every_crit_function_once_in_definition_order():
    # a _crit_* function defined without the decorator would never run
    defined = [fn for name, fn in vars(acceptance).items() if name.startswith("_crit_")]
    assert [c.fn for c in acceptance.CRITERIA] == defined
    ids = [c.id for c in acceptance.CRITERIA]
    assert ids == [fn.__name__.removeprefix("_crit_") for fn in defined]
    assert len(set(ids)) == len(ids)


def test_tolerance_overrides_are_honored():
    # corrupting a tolerance must fail the criterion, not be absorbed
    by_id = {c.id: c for c in acceptance.CRITERIA}
    result = by_id["b_short_contrast"].run(1e-30)
    assert result["passed"] is False
    assert result["tolerance"] == 1e-30
    assert by_id["c_long_dispersive"].run(1e-30)["passed"] is True


def _checks(criterion_id):
    by_id = {c.id: c for c in acceptance.CRITERIA}
    return by_id[criterion_id].run()


def _whichway_json(beta, delta):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["whichway", f"--beta={beta!r}", f"--delta={delta!r}", "--nmax", "24",
                     "--format", "json"])
    assert code == 0
    return json.loads(out.getvalue())["simulated"]


def test_report_takes_its_contrast_from_closedform(monkeypatch):
    real = closedform.contrast_B
    monkeypatch.setattr(closedform, "contrast_B", lambda beta: real(beta) + 1e-6)
    assert _checks("b_short_contrast")["passed"] is False


def test_the_unit_interval_check_reads_the_contrast_before_its_clamp(monkeypatch):
    # visibility clamps 2|S|/d to 1, so a check of its value could never fail; a mean
    # intensity that drops half the light doubles A's contrast to 2
    real = acceptance.mean_intensity
    monkeypatch.setattr(acceptance, "mean_intensity", lambda m: real(m) / 2.0)
    check, = (c for c in _checks("property_suite")["checks"]
              if c["name"] == "visibility_within_unit_interval")
    assert check["passed"] is False and check["value"] == 1.0


def test_whichway_and_report_read_out_through_one_function(monkeypatch):
    monkeypatch.setattr(scenarios, "_whichway", lambda beta, delta, nmax: (0.5, 0.25))
    assert _whichway_json(0.5, 0.5) == {"p_plus": 0.5, "p_minus": 0.25, "ratio": 0.5}
    result = _checks("whichway_discrimination")
    assert {c["value"] for c in result["checks"]} == {0.5, 0.25}
    assert result["passed"] is False


def test_whichway_prints_the_report_values_to_the_bit():
    values = {c["name"]: c["value"] for c in _checks("whichway_discrimination")["checks"]}
    for b in (0.2, 0.5, 1.0):
        for d in (0.2, 0.5, 1.0):
            point = f"(beta={b},delta={d})"
            p_plus, p_minus = values["p_plus" + point], values["p_minus" + point]
            assert scenarios._whichway(b, d, 24) == (p_plus, p_minus)
            simulated = _whichway_json(b, d)
            # the CLI clamps a unit overlap that rounds above 1; the report does not
            assert (simulated["p_plus"], simulated["p_minus"]) == (min(p_plus, 1.0),
                                                                   min(p_minus, 1.0))


def test_z_excitation_readout_refuses_a_truncated_common_kick():
    # at nmax 16 the alpha = 3.9 kick loses 0.45 of its state to the cutoff; read without
    # the refusal, P(n_z >= 1) came out 0.9999995464 against 1 - exp(-3.9**2) = 0.9999997520
    m = build(ScenarioSpec("D", beta=0.3, alpha=3.9, nmax=16))
    z_ground = Projector(m.space, np.eye(16 * 16, 16))
    with pytest.raises(TruncationError, match=r"alpha = 3\.9"):
        condition(m, z_ground)


def test_mixture_gap_is_infinite_across_structures():
    short = build(ScenarioSpec("B", beta=0.3))
    assert acceptance._mixture_gap(short, short) == 0.0
    # B long holds three components, B short one
    assert acceptance._mixture_gap(short, build(ScenarioSpec("B", "long", beta=0.3))) == math.inf
    (c,) = short.components
    retagged = TwoPathMixture((TwoPathComponent(c.psi1, c.psi2, FreqTag.SHIFTED, c.weight),))
    assert acceptance._mixture_gap(short, retagged) == math.inf
