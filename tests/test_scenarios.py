import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomslits import closedform, scenarios
from atomslits.errors import (EmptyPatternError, PerturbationError, PhysicsDomainError,
                              ScenarioError, TruncationError)
from atomslits.fockspace import basis_state, inner
from atomslits.scenarios import (
    Config,
    Pulse,
    ScenarioSpec,
    Treatment,
    build,
)
from atomslits.spec import _REGIMES, _poisson_tail, check_domain
from atomslits.transforms import (apply_dispersive, apply_eraser, evolve_beat, named_projector,
                                  quarter_beat_time)
from atomslits.twopath import (
    FreqTag,
    TwoPathMixture,
    condition,
    mean_intensity,
    pattern,
    phase_offset,
    visibility,
)


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


def _level_probability(psi, mode, level):
    """|psi|^2 on the levels with one mode at one Fock level: a slice of the amplitudes."""
    picked = np.take(psi.amplitudes.reshape(psi.space.mode_dims), level, axis=mode)
    return float(np.vdot(picked, picked).real)


def test_d_z_excitation_detectable():
    b, a, nmax = 0.3, 3.0, 40
    m = build(spec(Config.D, beta=b, alpha=a, nmax=nmax))
    num = den = 0.0
    for comp in m.components:
        for psi in (comp.psi1, comp.psi2):
            den += comp.weight * psi.norm() ** 2
            num += comp.weight * _level_probability(psi, 0, 0)
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
    assert _level_probability(psi1, 0, 1) < 1e-24  # slit 1 emptied
    assert _level_probability(psi1, 1, 1) == pytest.approx(b * b, abs=1e-12)


def test_e_population_follows_cosine_law():
    b, g, t = 0.2, 0.8, 0.7 / 0.8  # g t = 0.7
    m = build(e_spec(beta=b, g=g, t=t))
    psi1 = m.components[0].psi1
    assert _level_probability(psi1, 0, 1) == pytest.approx(b * b * math.cos(0.7) ** 2, abs=1e-12)
    assert _level_probability(psi1, 1, 1) == pytest.approx(b * b * math.sin(0.7) ** 2, abs=1e-12)


def test_e_quarter_beat_phases_follow_the_beat_direction():
    # <psi1|psi2> on |1,0> is conj(b cos gt) (b (-i sin gt)), on |0,1> conj(b (-i sin gt))
    # (b cos gt): at gt = pi/4 the phases are -pi/2 and +pi/2
    g = 0.8
    m = build(e_spec(beta=0.2, g=g, t=quarter_beat_time(g)))
    for name, phase in (("atom1_excited", -math.pi / 2), ("atom2_excited", math.pi / 2)):
        conditioned, _ = condition(m, named_projector(name, m.space))
        assert phase_offset(conditioned) == pytest.approx(phase, abs=1e-12)


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


def long_pulse_fractions(m, epsilon):
    """Each outcome's share of the two-path intensity, sum_k w_k (|psi1_k|^2 + |psi2_k|^2)
    / 2 / eps^2, keyed as closedform.longpulse_weights keys it: by tag, and a B shifted
    line by the atom it excites, which must be the atom of the path that carries it."""
    fractions = {}
    for c in m.components:
        key = c.tag.value.lower()
        if m.space.nmodes == 2 and c.tag is FreqTag.SHIFTED:
            path, marker = (1, c.psi1) if c.psi2.norm() == 0.0 else (2, c.psi2)
            excited = [f"atom{atom}" for atom, levels in ((1, (1, 0)), (2, (0, 1)))
                       if inner(basis_state(m.space, levels), marker) == 1.0]
            assert excited == [f"atom{path}"]
            key = excited[0]
        share = c.weight * (c.psi1.norm() ** 2 + c.psi2.norm() ** 2) / 2.0 / epsilon**2
        fractions[key] = fractions.get(key, 0.0) + share
    return fractions


@pytest.mark.parametrize("beta", [0.3, 0.2 - 0.25j])
@pytest.mark.parametrize("config", [Config.B, Config.C1, Config.C2, Config.E])
def test_long_pulse_outcome_fractions_are_the_golden_rule_weights(config, beta):
    # at beta 0.3, E's are 0.91 elastic and 0.045 per normal mode
    s = ScenarioSpec(config, Pulse.LONG, beta=beta)
    fractions = long_pulse_fractions(build(s), s.epsilon)
    weights = closedform.longpulse_weights(config, beta)
    assert fractions.keys() == weights.keys()
    for outcome, weight in weights.items():
        assert fractions[outcome] == pytest.approx(weight, abs=1e-15), outcome


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


@pytest.mark.parametrize("fields,message", [
    ({"config": "Z"}, "'Z' is not a valid Config"),
    ({"config": "B", "pulse": "medium"}, "'medium' is not a valid Pulse"),
    ({"config": "B", "treatment": "second"}, "'second' is not a valid Treatment"),
    ({"config": ["B"]}, r"\['B'\] is not a valid Config"),  # unhashable: no table lookup
])
def test_spec_refuses_a_value_of_no_enum_by_the_enum_call(fields, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ScenarioSpec(**fields)


def test_regime_table_and_builder_tables_agree():
    assert set(scenarios._LONG) == {c for c, r in _REGIMES.items() if r.long}
    assert set(scenarios._SHORT) == set(Config)


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


# --- perturbative bounds: the regime table against the closed forms -------------


def _nudged(x, ulps):
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


# Every regime with a perturbative bound: each short pulse at first order, and each long
# pulse of a config with golden-rule weights.
_BOUNDED = [(c, Pulse.SHORT) for c in Config] + [
    (c, Pulse.LONG) for c in (Config.B, Config.C1, Config.C2, Config.E)]


def assert_refused_where_the_closed_forms_are(config, pulse, beta):
    """check_domain refuses the first-order spec of beta exactly where the closed form of
    its regime raises."""
    s = spec(config, pulse, Treatment.FIRST_ORDER, beta=beta)
    try:
        if pulse is Pulse.SHORT:
            closedform.first_order_contrast(config, beta)
        else:
            closedform.longpulse_weights(config, beta)
        reference = False
    except PhysicsDomainError:
        reference = True
    try:
        check_domain(s)
        refused = False
    except PerturbationError:
        refused = True
    assert refused == reference, (config, pulse, beta)


@settings(max_examples=1000)
@given(regime=st.sampled_from(_BOUNDED), edge=st.sampled_from((0.5, 1.0)),
       ulps=st.integers(-40, 40), axis=st.sampled_from((1, -1, 1j, -1j)))
def test_domain_bounds_refuse_where_the_closed_forms_do(regime, edge, ulps, axis):
    # |beta| within 40 ulps of either edge, along the real or the imaginary axis. The table
    # and the closed forms both square re*re + im*im (abs(x)**2 is not that float for about
    # 1 in 1,100 uniform reals in [-2, 2], since float pow is not correctly rounded).
    config, pulse = regime
    assert_refused_where_the_closed_forms_are(config, pulse, _nudged(math.sqrt(edge), ulps) * axis)


@settings(max_examples=2000)
@given(regime=st.sampled_from(_BOUNDED), edge=st.sampled_from((0.5, 1.0)),
       offset=st.floats(-1e-15, 1e-15), turn=st.floats(0.0, 2.0 * math.pi))
def test_complex_kicks_at_the_bounds_are_refused_where_the_closed_forms_do(regime, edge,
                                                                            offset, turn):
    # complex betas with |beta|^2 within about 1e-15 (relative) of either edge; there
    # abs(b)**2 and re*re + im*im fall on different sides of the bound for about 1 in 40,
    # so a table that squared with abs would refuse where the closed forms do not
    config, pulse = regime
    size = math.sqrt(edge * (1.0 + offset))
    beta = complex(size * math.cos(turn), size * math.sin(turn))
    assert_refused_where_the_closed_forms_are(config, pulse, beta)


# --- truncation: the function that owns the state refuses it -----------------


@pytest.mark.parametrize("door", [build, check_domain], ids=lambda f: f.__name__)
def test_exact_builders_refuse_a_truncated_beta(door):
    # |3>'s tail past level 15 holds 2.2% of its norm
    for config in (Config.B, Config.C1, Config.D):
        with pytest.raises(TruncationError, match=r"beta = 3\+0j loses 0\.022 .* at nmax 16"):
            door(spec(config, beta=3.0))


def test_refusals_hold_at_their_thresholds():
    # the tail of C1's exact kick at nmax 16 is 3.0e-10 here, above 1e-10, and 4.3e-11 at 1.3
    with pytest.raises(TruncationError, match="loses 3e-10 "):
        build(spec(Config.C1, beta=1.3909426050339602, nmax=16))
    assert visibility(build(spec(Config.C1, beta=1.3, nmax=16))) > 0.0
    # B's atom1_excited cut at beta 1e-13 keeps 1e-26 of its weight, below 1e-24
    m, _ = scenarios._run(spec(Config.B, beta=1e-13), coincidence="atom1_excited")
    assert mean_intensity(m) / m.total_weight == pytest.approx(1e-26, rel=1e-12)
    with pytest.raises(EmptyPatternError):
        pattern(m)


def d_chain(nmax):
    """D at alpha 3.9, then the eraser, the inverse eraser, the beat and the flip."""
    stages = [build(spec(Config.D, beta=0.3, alpha=3.9, nmax=nmax))]
    for step in (apply_eraser, lambda m: apply_eraser(m, inverse=True),
                 lambda m: evolve_beat(m, 0.8, 0.7),
                 lambda m: apply_dispersive(m, [FreqTag.ELASTIC])):
        stages.append(step(stages[-1]))
    return stages


def test_d_common_kick_rides_every_transform_and_condition_refuses_it():
    # nmax 16 drops 45% of |3.9>, which cancels from V and the phase
    cut, fine = d_chain(16), d_chain(80)
    assert cut[0].common_kick == 3.9
    assert _poisson_tail(3.9**2, 16) > 0.4
    for m, reference in zip(cut, fine):
        assert m.common_kick is cut[0].common_kick
        assert visibility(m) == pytest.approx(visibility(reference), abs=1e-15)
        # the flip leaves the coherence on the negative real axis, at +-pi
        gap = phase_offset(m) - phase_offset(reference)
        assert abs((gap + math.pi) % (2 * math.pi) - math.pi) <= 1e-15
    with pytest.raises(TruncationError, match="alpha = 3.9"):
        condition(cut[-1], named_projector("ground", cut[-1].space))
    conditioned, _ = condition(fine[-1], named_projector("ground", fine[-1].space))
    assert conditioned.common_kick is fine[0].common_kick
    with pytest.raises(AttributeError, match="cannot assign"):
        cut[0].common_kick = None


def test_only_d_carries_a_common_kick():
    for config in (Config.A, Config.B, Config.C1, Config.E):
        assert build(ScenarioSpec(config, beta=0.3)).common_kick is None
    m = build(spec(Config.D, treatment=Treatment.FIRST_ORDER, beta=0.3, alpha=0.5j))
    assert m.common_kick == 0.5j
    assert TwoPathMixture(m.components).common_kick is None


@pytest.mark.parametrize("beta,delta,field", [
    (-0.5, 0.3, "beta"), (math.nan, 0.3, "beta"), (0.5, math.inf, "delta"), (-1.0, -1.0, "beta")])
def test_whichway_refuses_a_negative_or_non_finite_amplitude_by_field(beta, delta, field):
    # the library refuses what whichway's --beta and --delta refuse, beta first
    with pytest.raises(ScenarioError, match="^must be finite and >= 0$") as refused:
        scenarios._whichway(beta, delta, 16)
    assert refused.value.field == field
