"""Closed-form reference results, kept independent of the simulator.

Every function here is plain scalar math (no numpy, no Fock machinery), so
agreement between these formulas and the simulated mixtures is a genuine
two-implementation check rather than a tautology.

Contrast formulas: config B loses fringe contrast as 1 - |b|^2 (exactly
exp(-|b|^2) for full coherent-state markers), config C and D as 1 - 2|b|^2
(exactly exp(-2|b|^2)). Which-way readout by projection onto a probe coherent
state |delta> succeeds with probability exp(-|delta -+ b|^2) for |+-b>
markers; the ratio of the two gives a fractional identification error
exp(-4 b delta), available only with detection probability about
exp(-|delta|^2). tradeoff_curve(beta) tabulates that trade-off on a fixed grid
of errors; required_probe(beta, e) gives the probe for any one error.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import PhysicsDomainError

__all__ = [
    "WhichwayProbabilities",
    "TradeoffPoint",
    "contrast_B",
    "contrast_C",
    "contrast_exact",
    "first_order_contrast",
    "longpulse_weights",
    "projection_probability",
    "required_probe",
    "tradeoff_curve",
    "whichway_probabilities",
]


def _abs2(z: complex) -> float:
    """|z|^2 of a finite z; every formula here would carry a NaN or inf to its result."""
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"closed forms need finite inputs, got {z!r}")
    return z.real * z.real + z.imag * z.imag


def _gaussian(x: float) -> float:
    """exp(-x^2), 0.0 where x^2 overflows a float."""
    try:
        return math.exp(-(x**2))
    except OverflowError:
        return 0.0


def _norm_config(config) -> str:
    name = getattr(config, "value", config)
    name = str(name).upper()
    if name in ("C", "C1", "C2"):
        return "C"
    if name in ("A", "B", "D", "E"):
        return name
    raise ValueError(f"unknown configuration {config!r}")


def contrast_B(beta: complex) -> float:
    """First-order fringe contrast 1 - |b|^2 of independent slits."""
    b2 = _abs2(beta)
    if b2 >= 1.0:
        raise PhysicsDomainError(f"contrast_B needs |beta| < 1, got |beta|^2 = {b2:.4g}")
    return 1.0 - b2


def contrast_C(beta: complex) -> float:
    """First-order fringe contrast 1 - 2|b|^2 of a single recoiling slit."""
    b2 = _abs2(beta)
    if b2 >= 0.5:
        raise PhysicsDomainError(
            f"contrast_C needs |beta|^2 < 0.5, got |beta|^2 = {b2:.4g}"
        )
    return 1.0 - 2.0 * b2


def contrast_exact(config, beta: complex) -> float:
    """Coherent-state overlap contrast: exp(-|b|^2) for B, exp(-2|b|^2) for C/D."""
    name = _norm_config(config)
    b2 = _abs2(beta)
    if name == "A":
        return 1.0
    if name == "B":
        return math.exp(-b2)
    if name in ("C", "D"):
        return math.exp(-2.0 * b2)
    raise ValueError("config E has no exact coherent-state treatment")


def first_order_contrast(config, beta: complex) -> float:
    """First-order unconditioned contrast for any configuration.

    A is always 1; B and E share 1 - |b|^2 (the beat evolution is unitary on
    the marker, so it cannot change the unconditioned value); C and D share
    1 - 2|b|^2.
    """
    name = _norm_config(config)
    if name == "A":
        _abs2(beta)  # refuses a non-finite beta, as every other config does
        return 1.0
    if name in ("B", "E"):
        return contrast_B(beta)
    return contrast_C(beta)


def longpulse_weights(config, beta: complex) -> dict[str, float]:
    """Golden-rule outcome probabilities of the long-pulse mixtures.

    Keys name the outcome; values sum to one. Defined for configs B, C and E.
    """
    b2 = _abs2(beta)
    if b2 >= 0.5:
        raise PhysicsDomainError(
            f"golden-rule weights need |beta|^2 < 0.5, got |beta|^2 = {b2:.4g}"
        )
    name = _norm_config(config)
    if name == "B":
        return {"elastic": 1.0 - b2, "atom1": b2 / 2.0, "atom2": b2 / 2.0}
    if name == "C":
        return {"elastic": 1.0 - b2, "shifted": b2}
    if name == "E":
        return {"elastic": 1.0 - b2, "sym": b2 / 2.0, "antisym": b2 / 2.0}
    raise ValueError(f"no long-pulse weights for config {config!r}")


def projection_probability(delta: complex, beta: complex) -> float:
    """exp(-|delta - beta|^2): overlap probability of two coherent states."""
    return math.exp(-_abs2(complex(delta) - complex(beta)))


class WhichwayProbabilities(NamedTuple):
    p_plus: float
    p_minus: float
    fractional_error: float
    detect_prob: float


def whichway_probabilities(beta: float, delta: float) -> WhichwayProbabilities:
    """Path discrimination by projecting |+-beta> markers onto a probe |delta>.

    p_plus and p_minus are the click probabilities for the two marker signs,
    their ratio exp(-4 beta delta) is the fractional error of calling the
    path, and detect_prob = exp(-delta^2) is the probability of the probe
    firing at all. Real nonnegative inputs only; the error formula assumes
    collinear kicks.
    """
    beta = float(beta)
    delta = float(delta)
    if beta < 0 or delta < 0:
        raise ValueError("whichway_probabilities needs finite real beta, delta >= 0")
    return WhichwayProbabilities(
        p_plus=projection_probability(delta, beta),
        p_minus=projection_probability(delta, -beta),
        # beta * delta first: 4 * 1e308 overflows, and inf * 0 is NaN
        fractional_error=math.exp(-4.0 * (beta * delta)),
        detect_prob=_gaussian(delta),
    )


class TradeoffPoint(NamedTuple):
    fractional_error: float
    delta: float
    detect_prob: float


def required_probe(beta: float, fractional_error: float) -> float:
    """Probe amplitude delta = -ln(e)/(4 beta) that reaches a target error e, which
    must be finite: a tiny beta whose delta overflows raises PhysicsDomainError."""
    if not 0 < fractional_error < 1:
        raise ValueError("fractional_error must lie in (0, 1)")
    if not 0 < beta < math.inf:
        raise ValueError("required_probe needs a finite beta > 0")
    delta = -math.log(fractional_error) / (4.0 * beta)
    if delta == math.inf:
        raise PhysicsDomainError(f"the probe for fractional error {fractional_error:.4g} at "
                                 f"beta = {beta:.4g} overflows a float")
    return delta


def tradeoff_curve(beta: float) -> list[TradeoffPoint]:
    """Certainty versus detection probability for which-way readout.

    For each target fractional error e on a fixed grid of 25 errors from 1e-6 to
    10^-0.3 the probe must reach delta = -ln(e)/(4 beta), which fires only with
    probability exp(-(ln e)^2 / (16 beta^2)). Smaller error (more certainty)
    always means a smaller chance of getting the information at all.
    """
    points = []
    for e in [10.0 ** (-6.0 + 5.7 * k / 24.0) for k in range(25)]:
        d = required_probe(beta, e)
        points.append(TradeoffPoint(e, d, _gaussian(d)))
    return points
