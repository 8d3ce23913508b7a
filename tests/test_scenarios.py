import math
import sys

import numpy as np
import pytest

from atomslits.errors import PerturbationError, ScenarioError, TruncationError
from atomslits.fockspace import project
from atomslits.scenarios import (
    Config,
    Pulse,
    ScenarioSpec,
    Treatment,
    build,
    build_A,
    build_B_long,
    build_B_short,
    build_C_long,
    build_C_short,
    build_E_long,
)
from atomslits.spec import _REGIMES
from atomslits.transforms import apply_dispersive, apply_eraser, named_projector
from atomslits.twopath import FreqTag, condition, pattern, phase_offset, visibility


def spec(config, pulse=Pulse.SHORT, treatment=Treatment.EXACT, **kw):
    return ScenarioSpec(config=config, pulse=pulse, treatment=treatment, **kw)


def mixture_gap(a, b):
    gap = 0.0
    assert len(a.components) == len(b.components)
    for ca, cb in zip(a.components, b.components):
        assert ca.tag is cb.tag
        gap = max(gap, abs(ca.weight - cb.weight))
        gap = max(gap, float(np.max(np.abs(ca.psi1.amplitudes - cb.psi1.amplitudes))))
        gap = max(gap, float(np.max(np.abs(ca.psi2.amplitudes - cb.psi2.amplitudes))))
    return gap


# --- config A -------------------------------------------------------------


def test_a_full_contrast():
    m = build(spec(Config.A))
    assert visibility(m) == pytest.approx(1.0)
    assert phase_offset(m) == 0.0


def test_a_equals_b_at_zero_kick():
    a = build(spec(Config.A))
    for treatment in Treatment:
        b = build(spec(Config.B, treatment=treatment, beta=0))
        assert mixture_gap(a, b) == 0.0


# --- config B -------------------------------------------------------------


def test_b_short_exact_contrast():
    b = 0.2
    m = build(spec(Config.B, beta=b))
    assert abs(visibility(m) - math.exp(-b * b)) < 1e-9
    assert abs(visibility(m) - 0.9607894391523232) < 1e-12


def test_b_short_first_order_contrast_is_exact_formula():
    for b in (0.05, 0.1, 0.2, 0.3):
        m = build(spec(Config.B, treatment=Treatment.FIRST_ORDER, beta=b))
        assert abs(visibility(m) - (1 - b * b)) < 1e-12


def test_b_short_outcome_probabilities():
    b = 0.2
    m = build(spec(Config.B, treatment=Treatment.FIRST_ORDER, beta=b))
    _, p1 = condition(m, named_projector("atom1_excited", m.space))
    _, p2 = condition(m, named_projector("atom2_excited", m.space))
    _, p0 = condition(m, named_projector("ground", m.space))
    assert p1 == pytest.approx(b * b / 2, abs=1e-12)
    assert p2 == pytest.approx(b * b / 2, abs=1e-12)
    assert p0 == pytest.approx(1 - b * b, abs=1e-12)
    assert p0 + p1 + p2 == pytest.approx(1.0, abs=1e-12)


def test_b_long_visibility_matches_short():
    b = 0.3
    assert abs(visibility(build(spec(Config.B, Pulse.LONG, beta=b))) - (1 - b * b)) < 1e-12


def test_b_long_outcome_fractions():
    b = 0.4
    m = build(spec(Config.B, Pulse.LONG, beta=b))
    _, p1 = condition(m, named_projector("atom1_excited", m.space))
    _, p0 = condition(m, named_projector("ground", m.space))
    assert p1 == pytest.approx(b * b / 2, abs=1e-12)
    assert p0 == pytest.approx(1 - b * b, abs=1e-12)


def test_b_long_eraser_cannot_restore():
    m = apply_eraser(build(spec(Config.B, Pulse.LONG, beta=0.3)))
    for name in ("atom1_excited", "atom2_excited", "sym", "antisym"):
        cm, _ = condition(m, named_projector(name, m.space))
        assert visibility(cm) < 1e-9


def test_b_long_reduces_to_a_at_zero_kick():
    a = pattern(build(spec(Config.A)), 64)
    b = pattern(build(spec(Config.B, Pulse.LONG, beta=0)), 64)
    assert np.max(np.abs(a.intensities - b.intensities)) < 1e-15


# --- config C -------------------------------------------------------------


def test_c_short_first_order_contrast():
    b = 0.3
    m = build(spec(Config.C1, treatment=Treatment.FIRST_ORDER, beta=b))
    assert abs(visibility(m) - 0.82) < 1e-12


def test_c_short_exact_contrast():
    b = 0.3
    m = build(spec(Config.C1, beta=b))
    assert abs(visibility(m) - math.exp(-2 * b * b)) < 1e-9
    assert abs(visibility(m) - 0.835270211411272) < 1e-10


@pytest.mark.parametrize("treatment", list(Treatment))
def test_c_coincidence_phases(treatment):
    m = build(spec(Config.C1, treatment=treatment, beta=0.3))
    on0, _ = condition(m, named_projector("single_atom_0", m.space))
    on1, _ = condition(m, named_projector("single_atom_1", m.space))
    assert visibility(on0) == pytest.approx(1.0, abs=1e-9)
    assert phase_offset(on0) == pytest.approx(0.0, abs=1e-9)
    assert visibility(on1) == pytest.approx(1.0, abs=1e-9)
    assert abs(phase_offset(on1)) == pytest.approx(math.pi, abs=1e-9)


@pytest.mark.parametrize("treatment", list(Treatment))
@pytest.mark.parametrize("pulse", list(Pulse))
def test_c1_c2_identical(pulse, treatment):
    m1 = build(spec(Config.C1, pulse=pulse, treatment=treatment, beta=0.3))
    m2 = build(spec(Config.C2, pulse=pulse, treatment=treatment, beta=0.3))
    assert mixture_gap(m1, m2) == 0.0


def test_c_long_visibility_and_dispersive():
    b = 0.5
    m = build(spec(Config.C1, Pulse.LONG, beta=b))
    assert visibility(m) == pytest.approx(1 - 2 * b * b, abs=1e-12)
    restored = apply_dispersive(m, {FreqTag.SHIFTED})
    assert visibility(restored) == pytest.approx(1.0, abs=1e-12)


def test_c_long_reduces_to_a_at_zero_kick():
    a = pattern(build(spec(Config.A)), 64)
    c = pattern(build(spec(Config.C1, Pulse.LONG, beta=0)), 64)
    assert np.max(np.abs(a.intensities - c.intensities)) < 1e-15


# --- config D -------------------------------------------------------------


def test_d_common_mode_leaves_visibility():
    b = 0.3
    base = visibility(build(spec(Config.D, beta=b, alpha=0.0)))
    for a in (1.0, 3.0):
        v = visibility(build(spec(Config.D, beta=b, alpha=a)))
        assert abs(v - base) < 1e-9


def test_d_alpha_zero_matches_c():
    b = 0.25
    d = pattern(build(spec(Config.D, beta=b, alpha=0.0)), 64)
    c = pattern(build(spec(Config.C1, beta=b)), 64)
    assert np.max(np.abs(d.intensities - c.intensities)) < 1e-12


def test_d_z_excitation_detectable():
    b, a, nmax = 0.3, 3.0, 40
    m = build(spec(Config.D, beta=b, alpha=a, nmax=nmax))
    num = den = 0.0
    for comp in m.components:
        for psi in (comp.psi1, comp.psi2):
            den += comp.weight * psi.norm() ** 2
            num += comp.weight * project(psi, 0, 0)[1]
    p_excited = 1 - num / den
    assert abs(p_excited - (1 - math.exp(-a * a))) < 1e-8
    assert p_excited > 0.999


def test_d_first_order_visibility():
    b = 0.3
    m = build(spec(Config.D, treatment=Treatment.FIRST_ORDER, beta=b, alpha=2.0))
    assert visibility(m) == pytest.approx(1 - 2 * b * b, abs=1e-12)


def test_d_rejects_long_pulse():
    with pytest.raises(ScenarioError):
        build(spec(Config.D, pulse=Pulse.LONG, beta=0.1))


# --- config E -------------------------------------------------------------


def e_spec(beta=0.2, g=0.8, t=0.0):
    return spec(
        Config.E, treatment=Treatment.FIRST_ORDER, beta=beta, coupling_g=g, evolve_time=t
    )


def test_e_zero_time_equals_first_order_b():
    e = build(e_spec(t=0.0))
    b = build(spec(Config.B, treatment=Treatment.FIRST_ORDER, beta=0.2))
    assert mixture_gap(e, b) == 0.0


def test_e_quarter_beat_restores_slit_basis_contrast():
    g = 0.8
    m = build(e_spec(g=g, t=math.pi / (4 * g)))
    for name in ("atom1_excited", "atom2_excited"):
        cm, _ = condition(m, named_projector(name, m.space))
        assert visibility(cm) == pytest.approx(1.0, abs=1e-9)


def test_e_half_beat_swaps_excitation():
    b, g = 0.2, 0.8
    m = build(e_spec(beta=b, g=g, t=math.pi / (2 * g)))
    psi1 = m.components[0].psi1
    assert project(psi1, 0, 1)[1] < 1e-24  # slit 1 emptied
    assert project(psi1, 1, 1)[1] == pytest.approx(b * b, abs=1e-12)


def test_e_population_follows_cosine_law():
    b, g, t = 0.2, 0.8, 0.7 / 0.8  # g t = 0.7
    m = build(e_spec(beta=b, g=g, t=t))
    psi1 = m.components[0].psi1
    assert project(psi1, 0, 1)[1] == pytest.approx(b * b * math.cos(0.7) ** 2, abs=1e-12)
    assert project(psi1, 1, 1)[1] == pytest.approx(b * b * math.sin(0.7) ** 2, abs=1e-12)


def test_e_long_mixture():
    b = 0.3
    m = build(spec(Config.E, Pulse.LONG, beta=b))
    assert visibility(m) == pytest.approx(1 - b * b, abs=1e-12)
    on_sym, _ = condition(m, named_projector("sym", m.space))
    on_anti, _ = condition(m, named_projector("antisym", m.space))
    assert visibility(on_sym) == pytest.approx(1.0, abs=1e-9)
    assert phase_offset(on_sym) == pytest.approx(0.0, abs=1e-9)
    assert visibility(on_anti) == pytest.approx(1.0, abs=1e-9)
    assert abs(phase_offset(on_anti)) == pytest.approx(math.pi, abs=1e-9)
    assert visibility(apply_dispersive(m, {FreqTag.ANTISYM})) == pytest.approx(1.0, abs=1e-12)


def test_e_rejects_exact_treatment():
    with pytest.raises(ScenarioError):
        build(spec(Config.E, treatment=Treatment.EXACT, beta=0.1))


# --- cross-configuration invariants ----------------------------------------


def test_perturbative_consistency_bound():
    for b in (0.05, 0.1, 0.2):
        for config in (Config.B, Config.C1, Config.D):
            exact = visibility(build(spec(config, beta=b)))
            first = visibility(build(spec(config, treatment=Treatment.FIRST_ORDER, beta=b)))
            assert abs(exact - first) <= 5 * b**4


def test_all_configs_reach_full_contrast_at_zero_kick():
    specs = [
        spec(Config.A),
        spec(Config.B, beta=1e-4),
        spec(Config.B, Pulse.LONG, beta=1e-4),
        spec(Config.C1, beta=1e-4),
        spec(Config.C1, Pulse.LONG, beta=1e-4),
        spec(Config.D, beta=1e-4, alpha=0.5),
        e_spec(beta=1e-4, t=0.3),
        spec(Config.E, Pulse.LONG, beta=1e-4),
    ]
    for s in specs:
        assert visibility(build(s)) > 1 - 1e-7


def test_b_keeps_more_contrast_than_c():
    for b in (0.1, 0.3, 0.5):
        vb = visibility(build(spec(Config.B, treatment=Treatment.FIRST_ORDER, beta=b)))
        vc = visibility(build(spec(Config.C1, treatment=Treatment.FIRST_ORDER, beta=b)))
        assert vb >= vc


def test_epsilon_cancels_from_visibility():
    for eps in (0.001, 0.05, 0.1):
        m = build(spec(Config.B, beta=0.2, epsilon=eps))
        assert visibility(m) == pytest.approx(math.exp(-0.04), abs=1e-9)


def test_builders_accept_complex_kick():
    b = 0.2j
    m = build(spec(Config.C1, treatment=Treatment.FIRST_ORDER, beta=b))
    assert visibility(m) == pytest.approx(1 - 2 * abs(b) ** 2, abs=1e-12)
    m = build(spec(Config.B, beta=-0.2))
    assert visibility(m) == pytest.approx(math.exp(-0.04), abs=1e-9)


# --- ScenarioSpec ---------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        ScenarioSpec(Config.A, epsilon=0.0)
    with pytest.raises(ValueError):
        ScenarioSpec(Config.A, epsilon=0.2)
    with pytest.raises(ValueError):
        ScenarioSpec(Config.E, coupling_g=-1.0)
    with pytest.raises(ValueError):
        ScenarioSpec(Config.A, nmax=1)
    with pytest.raises(TruncationError):
        ScenarioSpec(Config.A, nmax=172)
    for field in ("beta", "alpha", "coupling_g", "evolve_time"):
        with pytest.raises(ValueError, match="must be finite"):
            ScenarioSpec(Config.E, **{field: math.inf})
    with pytest.raises(PerturbationError):
        build(spec(Config.C1, Pulse.LONG, beta=0.71))
    with pytest.raises(PerturbationError):
        build(spec(Config.B, treatment=Treatment.FIRST_ORDER, beta=1.0))


def test_spec_refuses_an_overflowing_beat_phase():
    with pytest.raises(ValueError, match=r"coupling_g \* evolve_time must be finite"):
        ScenarioSpec(Config.E, coupling_g=1e300, evolve_time=1e300)
    assert ScenarioSpec(Config.E, coupling_g=1e154, evolve_time=1e154).coupling_g == 1e154


def test_spec_refuses_an_epsilon_whose_square_is_not_normal():
    smallest = math.sqrt(sys.float_info.min)
    assert ScenarioSpec(Config.B, epsilon=smallest).epsilon**2 >= sys.float_info.min
    for eps in (math.nextafter(smallest, 0.0), 1e-160, 5e-324):
        with pytest.raises(ValueError, match="epsilon"):
            ScenarioSpec(Config.B, epsilon=eps)


# The catalogue's undefined (config, pulse, treatment) combinations and the
# field each refusal names; every other combination builds.
def undefined_field(config, pulse, treatment):
    if config is Config.D and pulse is Pulse.LONG:
        return "pulse"
    if config is Config.E and pulse is Pulse.SHORT and treatment is Treatment.EXACT:
        return "treatment"
    return None


@pytest.mark.parametrize("treatment", [None, *Treatment])
@pytest.mark.parametrize("pulse", list(Pulse))
@pytest.mark.parametrize("config", list(Config))
def test_regime_table_walk(config, pulse, treatment):
    field = undefined_field(config, pulse, treatment)
    if field is not None:
        # refused at construction, ahead of the nmax ceiling
        with pytest.raises(ScenarioError) as refused:
            ScenarioSpec(config, pulse, beta=0.3, treatment=treatment, nmax=500)
        assert refused.value.field == field
        return
    s = ScenarioSpec(config, pulse, beta=0.3, treatment=treatment)
    default = Treatment.FIRST_ORDER if config is Config.E else Treatment.EXACT
    assert s.treatment is (treatment or default)
    m = build(s)
    assert 0.0 <= visibility(m) <= 1.0
    # the front refuses an eraser or a projector by this count, before any build
    assert m.space.nmodes == _REGIMES[config].modes


def test_spec_flat_serialization_round_trip():
    s = ScenarioSpec(
        Config.E,
        Pulse.SHORT,
        beta=0.1 + 0.2j,
        epsilon=0.02,
        coupling_g=0.7,
        evolve_time=1.5,
        treatment=Treatment.FIRST_ORDER,
        nmax=12,
    )
    flat = s.to_dict()
    assert flat["config"] == "E"
    assert isinstance(flat["beta"], str)


def test_spec_accepts_plain_strings():
    s = ScenarioSpec("C2", "long", beta=0.4)
    assert s.config is Config.C2
    assert s.pulse is Pulse.LONG
    assert build(s) is not None


def test_treatments_a_regime_tells_apart():
    both = (Treatment.EXACT, Treatment.FIRST_ORDER)
    assert ScenarioSpec(Config.B).treatments == both
    assert ScenarioSpec(Config.D, treatment=Treatment.FIRST_ORDER).treatments == both
    assert ScenarioSpec(Config.E).treatments == (Treatment.FIRST_ORDER,)
    assert ScenarioSpec(Config.A).treatments == ()
    assert ScenarioSpec(Config.B, Pulse.LONG).treatments == ()
    assert ScenarioSpec(Config.E, Pulse.LONG, treatment=Treatment.EXACT).treatments == ()
