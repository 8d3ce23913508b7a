import math

import pytest

from atomslits import closedform
from atomslits.errors import PhysicsDomainError
from atomslits.fockspace import coherent_state, inner


def test_contrast_b_values_and_domain():
    assert closedform.contrast_B(0.0) == 1.0
    assert closedform.contrast_B(0.2) == pytest.approx(0.96)
    assert closedform.contrast_B(0.3j) == pytest.approx(0.91)
    with pytest.raises(PhysicsDomainError):
        closedform.contrast_B(1.0)


def test_contrast_c_values_and_domain():
    assert closedform.contrast_C(0.0) == 1.0
    assert closedform.contrast_C(0.3) == pytest.approx(0.82)
    with pytest.raises(PhysicsDomainError):
        closedform.contrast_C(0.71)


def test_contrast_exact_values():
    assert closedform.contrast_exact("A", 0.9) == 1.0
    assert closedform.contrast_exact("B", 0.2) == pytest.approx(0.960789439152, abs=1e-12)
    assert closedform.contrast_exact("C1", 0.3) == pytest.approx(0.835270211411, abs=1e-12)
    assert closedform.contrast_exact("D", 0.3) == closedform.contrast_exact("C2", 0.3)
    assert closedform.contrast_exact("C", 0.0) == 1.0
    with pytest.raises(ValueError):
        closedform.contrast_exact("E", 0.1)
    with pytest.raises(ValueError):
        closedform.contrast_exact("F", 0.1)


def test_first_order_contrast_covers_all_configs():
    assert closedform.first_order_contrast("A", 0.5) == 1.0
    assert closedform.first_order_contrast("B", 0.2) == pytest.approx(0.96)
    assert closedform.first_order_contrast("E", 0.2) == pytest.approx(0.96)
    assert closedform.first_order_contrast("C1", 0.2) == pytest.approx(0.92)
    assert closedform.first_order_contrast("D", 0.2) == pytest.approx(0.92)


def test_contrast_monotone_decreasing():
    grid = [0.05 * k for k in range(1, 14)]
    values_b = [closedform.contrast_B(b) for b in grid]
    assert all(a > b for a, b in zip(values_b, values_b[1:]))
    grid_c = [0.05 * k for k in range(1, 14) if (0.05 * k) ** 2 < 0.5]
    values_c = [closedform.contrast_C(b) for b in grid_c]
    assert all(a > b for a, b in zip(values_c, values_c[1:]))


def test_whichway_probabilities_unit_kick():
    res = closedform.whichway_probabilities(1.0, 1.0)
    assert res.p_plus == pytest.approx(1.0)
    assert res.p_minus == pytest.approx(math.exp(-4), abs=1e-15)
    assert res.fractional_error == pytest.approx(0.018315638888734179, abs=1e-15)
    assert res.detect_prob == pytest.approx(math.exp(-1), abs=1e-15)


def test_whichway_zero_probe_gives_no_discrimination():
    beta = 0.7
    res = closedform.whichway_probabilities(beta, 0.0)
    assert res.p_plus == res.p_minus == pytest.approx(math.exp(-beta * beta))
    assert res.fractional_error == 1.0
    assert res.detect_prob == 1.0


def test_whichway_rejects_negative_inputs():
    with pytest.raises(ValueError):
        closedform.whichway_probabilities(-0.1, 0.5)
    with pytest.raises(ValueError):
        closedform.whichway_probabilities(0.5, -0.1)


def test_projection_probability_accepts_complex():
    assert closedform.projection_probability(0.3j, -0.3j) == pytest.approx(math.exp(-0.36))


def test_whichway_matches_truncated_fock_overlaps():
    # two-implementation check: scalar formulas against brute-force inner products
    for b in (0.2, 0.5, 1.0):
        for d in (0.2, 0.5, 1.0):
            probe = coherent_state(d, 24)
            plus = coherent_state(b, 24)
            minus = coherent_state(-b, 24)
            ref = closedform.whichway_probabilities(b, d)
            assert abs(abs(inner(probe, plus)) ** 2 - ref.p_plus) < 1e-8
            assert abs(abs(inner(probe, minus)) ** 2 - ref.p_minus) < 1e-8


def test_fractional_error_monotone_in_kick_times_probe():
    products = [0.1, 0.3, 0.9, 1.5, 4.0]
    errors = [closedform.whichway_probabilities(1.0, p).fractional_error for p in products]
    assert all(a > b for a, b in zip(errors, errors[1:]))


def test_longpulse_weights_tables():
    assert closedform.longpulse_weights("B", 0.0) == {"elastic": 1.0, "atom1": 0.0, "atom2": 0.0}
    weights = closedform.longpulse_weights("C1", 0.5)
    assert weights == {"elastic": 0.75, "shifted": 0.25}
    for config in ("B", "C", "E"):
        for b in (0.0, 0.2, 0.5, 0.7):
            table = closedform.longpulse_weights(config, b)
            assert sum(table.values()) == pytest.approx(1.0, abs=1e-12)
            assert all(v >= 0 for v in table.values())
    with pytest.raises(PhysicsDomainError):
        closedform.longpulse_weights("C", 0.8)
    with pytest.raises(ValueError):
        closedform.longpulse_weights("D", 0.1)


def test_required_probe_and_tradeoff_curve():
    beta = 0.5
    target = 0.01
    delta = closedform.required_probe(beta, target)
    assert delta == pytest.approx(-math.log(target) / (4 * beta))
    curve = closedform.tradeoff_curve(beta)
    assert [p.fractional_error for p in curve] == [10.0 ** (-6.0 + 5.7 * k / 24.0)
                                                   for k in range(25)]
    for point in curve:
        assert point.delta == closedform.required_probe(beta, point.fractional_error)
        expected = math.exp(-(math.log(point.fractional_error) ** 2) / (16 * beta**2))
        assert point.detect_prob == pytest.approx(expected, rel=1e-12)
    # more certainty (smaller error) always costs detection probability: the grid's
    # errors rise, and so do its detection probabilities
    probs = [p.detect_prob for p in curve]
    assert all(a < b for a, b in zip(probs, probs[1:]))
    with pytest.raises(ValueError):
        closedform.required_probe(0.0, 0.01)
    with pytest.raises(ValueError):
        closedform.required_probe(0.5, 1.5)
    # -ln(1e-6) / (4 beta) is above the largest float for beta below about 1.9e-308
    for beta in (1e-310, 5e-324):
        with pytest.raises(PhysicsDomainError, match="overflows"):
            closedform.tradeoff_curve(beta)
    assert math.isfinite(closedform.required_probe(1e-300, 1e-6))


def test_default_tradeoff_grid_is_monotone():
    curve = closedform.tradeoff_curve(0.4)
    assert len(curve) == 25
    errs = [p.fractional_error for p in curve]
    assert all(a < b for a, b in zip(errs, errs[1:]))
    assert errs[0] == pytest.approx(1e-6)


_CLOSED_FORMS = {
    "contrast_B": closedform.contrast_B,
    "contrast_C": closedform.contrast_C,
    "contrast_exact": lambda x: closedform.contrast_exact("A", x),
    "first_order_contrast": lambda x: closedform.first_order_contrast("A", x),
    "longpulse_weights": lambda x: closedform.longpulse_weights("B", x),
    "projection_probability": lambda x: closedform.projection_probability(0.3, x),
    "whichway_probabilities": lambda x: closedform.whichway_probabilities(0.3, x),
    "required_probe": lambda x: closedform.required_probe(x, 0.01),
    "tradeoff_curve": closedform.tradeoff_curve,
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", sorted(_CLOSED_FORMS))
def test_every_closed_form_refuses_a_non_finite_input(name, value):
    with pytest.raises(ValueError, match="finite"):
        _CLOSED_FORMS[name](value)
    if name not in ("whichway_probabilities", "required_probe", "tradeoff_curve"):
        with pytest.raises(ValueError, match="finite"):  # a complex kick with one bad part
            _CLOSED_FORMS[name](complex(0.1, value))
