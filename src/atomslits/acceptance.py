"""Programmatic acceptance suite behind `atomslits report`.

Each criterion rebuilds its scenarios from scratch through the code the CLI
prints from: every chain runs through scenarios._run and the which-way
readout is scenarios._whichway. The values are compared with the references
in closedform at fixed tolerances, and every individual check is reported.
tests/test_acceptance.py wraps the same functions, so the CLI report and the
pytest suite cannot drift apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import closedform, scenarios
from ._version import __version__
from .fockspace import coherent_state, displacement_operator
from .scenarios import Config, Pulse, ScenarioSpec, Treatment, _run
from .transforms import apply_eraser, quarter_beat_time
from .twopath import (FreqTag, Projector, TwoPathMixture, condition, pattern, phase_offset,
                      visibility)

__all__ = ["CRITERIA", "Criterion", "run_all"]


def _check(name: str, value: float, expected: float, tolerance: float,
           deviation: float | None = None) -> dict:
    """One check record; the deviation defaults to |value - expected|."""
    if deviation is None:
        deviation = abs(value - expected)
    return {
        "name": name,
        "value": float(value),
        "expected": float(expected),
        "tolerance": float(tolerance),
        "deviation": float(deviation),
        "passed": bool(deviation <= tolerance),
    }


def _phase_gap(a: float, b: float) -> float:
    return abs((a - b + math.pi) % (2.0 * math.pi) - math.pi)


def _phase_check(name: str, value: float, expected: float, tolerance: float) -> dict:
    return _check(name, value, expected, tolerance, _phase_gap(value, expected))


def _mixture_gap(a: TwoPathMixture, b: TwoPathMixture) -> float:
    """Max elementwise difference between two mixtures; inf on a structure mismatch."""
    if len(a.components) != len(b.components):
        return math.inf
    gap = 0.0
    for ca, cb in zip(a.components, b.components):
        if ca.tag is not cb.tag or ca.space != cb.space:
            return math.inf
        gap = max(gap, abs(ca.weight - cb.weight))
        gap = max(gap, float(np.max(np.abs(ca.psi1.amplitudes - cb.psi1.amplitudes))))
        gap = max(gap, float(np.max(np.abs(ca.psi2.amplitudes - cb.psi2.amplitudes))))
    return gap


# --- criteria -----------------------------------------------------------


def _crit_b_short_contrast(tol: float) -> list[dict]:
    checks = []
    for b in (0.05, 0.1, 0.2, 0.3):
        first, exact = (visibility(_run(ScenarioSpec(Config.B, beta=b, treatment=t))[0])
                        for t in (Treatment.FIRST_ORDER, Treatment.EXACT))
        checks.append(_check(f"first_order_visibility(beta={b})", first,
                             closedform.contrast_B(b), tol))
        checks.append(_check(f"exact_visibility(beta={b})", exact,
                             closedform.contrast_exact(Config.B, b), tol))
        checks.append(_check(f"treatment_gap(beta={b})", abs(exact - first), 0.0, 5.0 * b**4))
    return checks


def _crit_eraser_restores_contrast(tol: float) -> list[dict]:
    checks = []
    for b in (0.1, 0.3):
        spec = ScenarioSpec(Config.B, Pulse.SHORT, beta=b, treatment=Treatment.FIRST_ORDER)
        v_before = visibility(_run(spec)[0])
        erased, _ = _run(spec, eraser=True)
        on_1, _ = _run(spec, eraser=True, coincidence="atom1_excited")
        on_2, _ = _run(spec, eraser=True, coincidence="atom2_excited")
        checks.append(_check(f"conditioned_vis_atom1(beta={b})", visibility(on_1), 1.0, tol))
        checks.append(_phase_check(f"conditioned_phase_atom1(beta={b})", phase_offset(on_1), 0.0, tol))
        checks.append(_check(f"conditioned_vis_atom2(beta={b})", visibility(on_2), 1.0, tol))
        checks.append(_phase_check(f"conditioned_phase_atom2(beta={b})", phase_offset(on_2), math.pi, tol))
        checks.append(
            _check(f"unconditioned_vis_unchanged(beta={b})", visibility(erased), v_before, tol)
        )
    return checks


def _crit_long_pulse_b_irreversible(tol: float) -> list[dict]:
    checks = []
    spec = ScenarioSpec(Config.B, Pulse.LONG, beta=0.3)
    for name in ("atom1_excited", "atom2_excited", "sym", "antisym"):
        cm, _ = _run(spec, eraser=True, coincidence=name)
        checks.append(_check(f"excited_sector_visibility({name})", visibility(cm), 0.0, tol))
    return checks


def _crit_c_contrast_and_coincidence(tol: float) -> list[dict]:
    checks = []
    for b in (0.1, 0.3, 0.5):
        first, exact = (visibility(_run(ScenarioSpec(Config.C1, beta=b, treatment=t))[0])
                        for t in (Treatment.FIRST_ORDER, Treatment.EXACT))
        checks.append(_check(f"first_order_visibility(beta={b})", first,
                             closedform.contrast_C(b), tol))
        checks.append(_check(f"exact_visibility(beta={b})", exact,
                             closedform.contrast_exact(Config.C1, b), tol))
    b = 0.3
    for treatment in (Treatment.EXACT, Treatment.FIRST_ORDER):
        spec = ScenarioSpec(Config.C1, Pulse.SHORT, beta=b, treatment=treatment)
        on_0, _ = _run(spec, coincidence="single_atom_0")
        on_1, _ = _run(spec, coincidence="single_atom_1")
        label = treatment.value
        checks.append(_check(f"conditioned_vis_level0({label})", visibility(on_0), 1.0, tol))
        checks.append(_phase_check(f"conditioned_phase_level0({label})", phase_offset(on_0), 0.0, tol))
        checks.append(_check(f"conditioned_vis_level1({label})", visibility(on_1), 1.0, tol))
        checks.append(_phase_check(f"conditioned_phase_level1({label})", phase_offset(on_1), math.pi, tol))
        gap = _mixture_gap(_run(spec)[0], _run(spec._replace(config=Config.C2))[0])
        checks.append(_check(f"c1_c2_elementwise({label})", gap, 0.0, 0.0))
    return checks


def _crit_c_long_dispersive(tol: float) -> list[dict]:
    checks = []
    for b in (0.3, 0.5):
        spec = ScenarioSpec(Config.C1, Pulse.LONG, beta=b)
        checks.append(_check(f"long_pulse_visibility(beta={b})", visibility(_run(spec)[0]),
                             closedform.contrast_C(b), 1e-12))
        restored, _ = _run(spec, dispersive={FreqTag.SHIFTED})
        checks.append(_check(f"dispersive_restores(beta={b})", visibility(restored), 1.0, tol))
    return checks


def _crit_whichway_discrimination(tol: float) -> list[dict]:
    checks = []
    nmax = 24
    for b in (0.2, 0.5, 1.0):
        for d in (0.2, 0.5, 1.0):
            p_plus, p_minus = scenarios._whichway(b, d, nmax)
            ref = closedform.whichway_probabilities(b, d)
            checks.append(_check(f"p_plus(beta={b},delta={d})", p_plus, ref.p_plus, tol))
            checks.append(_check(f"p_minus(beta={b},delta={d})", p_minus, ref.p_minus, tol))
            checks.append(
                _check(f"ratio(beta={b},delta={d})", p_minus / p_plus, ref.fractional_error, tol)
            )
    return checks


def _z_excitation_probability(m: TwoPathMixture, z_ground: Projector) -> float:
    """P(n_z >= 1) of D's marker, read as the norm condition() keeps on the n_z = 0
    levels; condition refuses a truncated common kick."""
    num = 0.0
    den = 0.0
    for c, kept in zip(m.components, condition(m, z_ground)[0].components):
        for psi, image in ((c.psi1, kept.psi1), (c.psi2, kept.psi2)):
            den += c.weight * psi.norm() ** 2
            num += c.weight * image.norm() ** 2
    return 1.0 - num / den


def _crit_d_common_mode(tol: float) -> list[dict]:
    checks = []
    b = 0.3
    nmax = 40  # the alpha = 3 coherent tail must sit far below the 1e-8 tolerance
    base, _ = _run(ScenarioSpec(Config.D, beta=b, alpha=0.0, nmax=nmax))
    reference = visibility(base)
    # n_z = 0 is the first nmax flat levels of the row-major (z, y) marker space
    z_ground = Projector(base.space, np.eye(nmax * nmax, nmax), "z_ground")
    for a in (0.0, 1.0, 3.0):
        m, _ = _run(ScenarioSpec(Config.D, beta=b, alpha=a, nmax=nmax))
        checks.append(_check(f"visibility_alpha_independent(alpha={a})", visibility(m),
                             reference, tol))
        checks.append(_check(f"z_excitation_probability(alpha={a})",
                             _z_excitation_probability(m, z_ground),
                             1.0 - closedform.projection_probability(0, a), 1e-8))
    return checks


def _crit_e_quarter_beat_eraser(tol: float) -> list[dict]:
    checks = []
    b = 0.2
    g = 0.8
    beat = ScenarioSpec(Config.E, Pulse.SHORT, beta=b, coupling_g=g,
                        evolve_time=quarter_beat_time(g), treatment=Treatment.FIRST_ORDER)
    plain = ScenarioSpec(Config.B, Pulse.SHORT, beta=b, treatment=Treatment.FIRST_ORDER)
    for name in ("atom1_excited", "atom2_excited"):
        vb = visibility(_run(beat, coincidence=name)[0])
        ve = visibility(_run(plain, eraser=True, coincidence=name)[0])
        checks.append(_check(f"quarter_beat_matches_eraser({name})", vb, ve, tol))
    frozen, _ = _run(ScenarioSpec(Config.E, Pulse.SHORT, beta=b, coupling_g=g, evolve_time=0.0,
                                  treatment=Treatment.FIRST_ORDER))
    checks.append(_check("zero_time_equals_first_order_B", _mixture_gap(frozen, _run(plain)[0]),
                         0.0, 0.0))
    return checks


def _crit_property_suite(tol: float) -> list[dict]:
    checks = []
    nmax = 16

    # unitarity of the displacement operator inside the guard domain
    rng = np.random.default_rng(7)
    v = rng.normal(size=nmax) + 1j * rng.normal(size=nmax)
    for b in (0.5, -0.4j, 1 + 1j, 2.0):
        d = displacement_operator(b, nmax)
        ratio = np.linalg.norm(d @ v) / np.linalg.norm(v)
        checks.append(_check(f"displacement_unitary(beta={b})", ratio, 1.0, 1e-8))

    # normalization of constructed states
    coh = coherent_state(0.5, nmax)
    checks.append(_check("coherent_state_normalized", coh.norm(), 1.0, 1e-10))
    first_b = ScenarioSpec(Config.B, Pulse.SHORT, beta=0.3, treatment=Treatment.FIRST_ORDER)
    m, _ = _run(first_b)
    checks.append(_check("first_order_path_normalized", m.components[0].psi1.norm(), 1.0, 1e-10))

    # visibility stays in [0, 1] across the scenario grid
    grid = [
        ScenarioSpec(Config.A),
        ScenarioSpec(Config.B, Pulse.SHORT, beta=0.35, treatment=Treatment.EXACT),
        ScenarioSpec(Config.B, Pulse.SHORT, beta=0.35, treatment=Treatment.FIRST_ORDER),
        ScenarioSpec(Config.B, Pulse.LONG, beta=0.35),
        ScenarioSpec(Config.C1, Pulse.SHORT, beta=0.35, treatment=Treatment.EXACT),
        ScenarioSpec(Config.C1, Pulse.LONG, beta=0.35),
        ScenarioSpec(Config.D, Pulse.SHORT, beta=0.35, alpha=0.8),
        ScenarioSpec(
            Config.E, Pulse.SHORT, beta=0.35, coupling_g=0.9, evolve_time=0.4,
            treatment=Treatment.FIRST_ORDER,
        ),
        ScenarioSpec(Config.E, Pulse.LONG, beta=0.35),
    ]
    worst = 0.0
    for spec in grid:
        vis = visibility(_run(spec)[0])
        worst = max(worst, -vis, vis - 1.0)
    checks.append(_check("visibility_within_unit_interval", worst, 0.0, 1e-12))

    # incoherent additivity of patterns
    mixture, _ = _run(ScenarioSpec(Config.B, Pulse.LONG, beta=0.4))
    total = pattern(mixture, 128).intensities
    parts = sum(pattern(TwoPathMixture((c,)), 128).intensities for c in mixture.components)
    checks.append(_check("pattern_additivity", float(np.max(np.abs(total - parts))), 0.0, 1e-12))

    # eraser reversibility
    roundtrip = apply_eraser(_run(first_b, eraser=True)[0], inverse=True)
    checks.append(_check("eraser_roundtrip_identity", _mixture_gap(m, roundtrip), 0.0, 1e-10))

    # truncation convergence: nmax 16 -> 20 moves nothing by more than 1e-10
    def _at(nmax_val: int) -> list[tuple[float, float]]:
        specs = [
            ScenarioSpec(Config.B, Pulse.SHORT, beta=0.5, treatment=Treatment.EXACT, nmax=nmax_val),
            ScenarioSpec(Config.B, Pulse.SHORT, beta=0.5, treatment=Treatment.FIRST_ORDER, nmax=nmax_val),
            ScenarioSpec(Config.B, Pulse.LONG, beta=0.5, nmax=nmax_val),
            ScenarioSpec(Config.C1, Pulse.SHORT, beta=0.5, treatment=Treatment.EXACT, nmax=nmax_val),
            ScenarioSpec(Config.C1, Pulse.LONG, beta=0.5, nmax=nmax_val),
            ScenarioSpec(Config.D, Pulse.SHORT, beta=0.5, alpha=1.0, nmax=nmax_val),
            ScenarioSpec(
                Config.E, Pulse.SHORT, beta=0.5, coupling_g=1.0, evolve_time=0.7,
                treatment=Treatment.FIRST_ORDER, nmax=nmax_val,
            ),
            ScenarioSpec(Config.E, Pulse.LONG, beta=0.5, nmax=nmax_val),
        ]
        out = []
        for spec in specs:
            mix, _ = _run(spec)
            out.append((visibility(mix), phase_offset(mix)))
        return out

    coarse = _at(16)
    fine = _at(20)
    vis_shift = max(abs(a[0] - b[0]) for a, b in zip(coarse, fine))
    phase_shift = max(_phase_gap(a[1], b[1]) for a, b in zip(coarse, fine))
    checks.append(_check("truncation_convergence_visibility", vis_shift, 0.0, 1e-10))
    checks.append(_check("truncation_convergence_phase", phase_shift, 0.0, 1e-10))
    c16 = coherent_state(0.5, 16)
    c20 = coherent_state(0.5, 20)
    amp_shift = float(np.max(np.abs(c16.amplitudes - c20.amplitudes[:16])))
    checks.append(_check("truncation_convergence_amplitudes", amp_shift, 0.0, 1e-10))
    return checks


@dataclass(frozen=True)
class Criterion:
    id: str
    title: str
    tolerance: float
    fn: Callable[[float], list[dict]]

    def run(self, tolerance: float | None = None) -> dict:
        tol = self.tolerance if tolerance is None else float(tolerance)
        checks = self.fn(tol)
        return {
            "id": self.id,
            "title": self.title,
            "tolerance": tol,
            "passed": all(c["passed"] for c in checks),
            "checks": checks,
        }


CRITERIA = (
    Criterion(
        "b_short_contrast",
        "config B short pulse: first-order contrast 1-|b|^2, exact exp(-|b|^2)",
        1e-9,
        _crit_b_short_contrast,
    ),
    Criterion(
        "eraser_restores_contrast",
        "eraser on first-order B: conditioned full contrast at phases 0 and pi",
        1e-9,
        _crit_eraser_restores_contrast,
    ),
    Criterion(
        "long_pulse_b_irreversible",
        "eraser cannot restore contrast after a long pulse on config B",
        1e-9,
        _crit_long_pulse_b_irreversible,
    ),
    Criterion(
        "c_contrast_and_coincidence",
        "config C: contrast 1-2|b|^2 / exp(-2|b|^2), coincidence phases 0 and pi, C1 = C2",
        1e-9,
        _crit_c_contrast_and_coincidence,
    ),
    Criterion(
        "c_long_dispersive",
        "long-pulse C: contrast 1-2|b|^2, dispersive element restores 1",
        1e-9,
        _crit_c_long_dispersive,
    ),
    Criterion(
        "whichway_discrimination",
        "coherent-probe readout matches exp(-|delta -+ beta|^2) and exp(-4 beta delta)",
        1e-8,
        _crit_whichway_discrimination,
    ),
    Criterion(
        "d_common_mode",
        "config D: common-mode kick is detectable but leaves the fringe untouched",
        1e-9,
        _crit_d_common_mode,
    ),
    Criterion(
        "e_quarter_beat_eraser",
        "config E: quarter-beat evolution acts as the eraser; t=0 equals first-order B",
        1e-9,
        _crit_e_quarter_beat_eraser,
    ),
    Criterion(
        "property_suite",
        "unitarity, normalization, bounds, additivity, reversibility, truncation stability",
        1e-10,
        _crit_property_suite,
    ),
)


def run_all() -> dict:
    """Run every acceptance criterion at its own tolerance."""
    results = [c.run() for c in CRITERIA]
    return {
        "version": __version__,
        "passed": all(r["passed"] for r in results),
        "criteria": results,
    }
