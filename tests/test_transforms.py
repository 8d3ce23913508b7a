import math

import numpy as np
import pytest

from atomslits.errors import SpaceMismatchError
from atomslits.fockspace import FockSpace, FockVector, basis_state, ground_state
from atomslits.scenarios import Config, Pulse, ScenarioSpec, Treatment, build
from atomslits.transforms import (
    PROJECTOR_NAMES,
    apply_dispersive,
    apply_eraser,
    evolve_beat,
    named_projector,
    quarter_beat_time,
)
from atomslits.twopath import (
    FreqTag,
    Projector,
    TwoPathComponent,
    TwoPathMixture,
    condition,
    phase_offset,
    visibility,
)

TWO = FockSpace((3, 3))
E10 = basis_state(TWO, (1, 0))
E01 = basis_state(TWO, (0, 1))


def first_order_b(beta=0.2):
    return build(
        ScenarioSpec(Config.B, Pulse.SHORT, beta=beta, treatment=Treatment.FIRST_ORDER)
    )


def test_eraser_conditioned_patterns():
    erased = apply_eraser(first_order_b())
    on1, _ = condition(erased, named_projector("atom1_excited", erased.space))
    on2, _ = condition(erased, named_projector("atom2_excited", erased.space))
    assert visibility(on1) == pytest.approx(1.0, abs=1e-9)
    assert phase_offset(on1) == pytest.approx(0.0, abs=1e-9)
    assert visibility(on2) == pytest.approx(1.0, abs=1e-9)
    assert abs(phase_offset(on2)) == pytest.approx(math.pi, abs=1e-9)


def test_eraser_twice_is_pi_rotation():
    m = TwoPathMixture((TwoPathComponent(E10, E01),))
    twice = apply_eraser(apply_eraser(m))
    # |1,0> -> -|0,1> and |0,1> -> |1,0>
    assert np.max(np.abs(twice.components[0].psi1.amplitudes - (-E01).amplitudes)) < 1e-12
    assert np.max(np.abs(twice.components[0].psi2.amplitudes - E10.amplitudes)) < 1e-12


def test_eraser_noop_without_excitation():
    a = build(ScenarioSpec(Config.A))
    erased = apply_eraser(a)
    assert np.array_equal(
        erased.components[0].psi1.amplitudes, a.components[0].psi1.amplitudes
    )


def test_eraser_preserves_norm_and_unconditioned_visibility():
    m = first_order_b(0.3)
    erased = apply_eraser(m)
    for before, after in zip(m.components, erased.components):
        assert abs(before.psi1.norm() - after.psi1.norm()) < 1e-10
        assert abs(before.psi2.norm() - after.psi2.norm()) < 1e-10
    assert abs(visibility(m) - visibility(erased)) < 1e-10


def test_eraser_inverse_round_trip():
    m = first_order_b(0.3)
    back = apply_eraser(apply_eraser(m), inverse=True)
    for orig, rt in zip(m.components, back.components):
        assert np.max(np.abs(orig.psi1.amplitudes - rt.psi1.amplitudes)) < 1e-10
        assert np.max(np.abs(orig.psi2.amplitudes - rt.psi2.amplitudes)) < 1e-10


def test_eraser_requires_two_mode_space():
    m = build(ScenarioSpec(Config.C1, beta=0.2))
    with pytest.raises(SpaceMismatchError):
        apply_eraser(m)


def test_beat_zero_time_is_identity():
    m = TwoPathMixture((TwoPathComponent(E10, E01),))
    out = evolve_beat(m, 0.9, 0.0)
    assert np.array_equal(out.components[0].psi1.amplitudes, E10.amplitudes)


def test_beat_quarter_period_matches_eraser_visibilities():
    g = 0.7
    m = first_order_b(0.25)
    beat = evolve_beat(m, g, quarter_beat_time(g))
    erased = apply_eraser(m)
    for name in ("atom1_excited", "atom2_excited"):
        vb = visibility(condition(beat, named_projector(name, beat.space))[0])
        ve = visibility(condition(erased, named_projector(name, erased.space))[0])
        assert abs(vb - ve) < 1e-9


def test_beat_half_period_transfers_population():
    g = 0.7
    m = TwoPathMixture((TwoPathComponent(E10, E01),))
    out = evolve_beat(m, g, math.pi / (2 * g))
    psi1 = out.components[0].psi1.amplitudes
    assert abs(psi1[TWO.index((1, 0))]) < 1e-12
    assert abs(abs(psi1[TWO.index((0, 1))]) - 1.0) < 1e-12


def test_beat_rejects_negative_coupling():
    m = TwoPathMixture((TwoPathComponent(E10, E01),))
    with pytest.raises(ValueError):
        evolve_beat(m, -0.1, 1.0)
    with pytest.raises(ValueError):
        quarter_beat_time(0.0)
    assert quarter_beat_time(2.0) == pytest.approx(math.pi / 8)


@pytest.mark.parametrize("g,t", [(1e300, 1e300), (math.nan, 1.0), (1.0, math.inf)])
def test_beat_refuses_a_non_finite_phase(g, t):
    m = TwoPathMixture((TwoPathComponent(E10, E01),))
    with pytest.raises(ValueError, match=r"g \* time t must be finite"):
        evolve_beat(m, g, t)


def test_dispersive_restores_long_pulse_c():
    m = build(ScenarioSpec(Config.C1, Pulse.LONG, beta=0.5))
    assert visibility(apply_dispersive(m, {FreqTag.SHIFTED})) == pytest.approx(1.0, abs=1e-12)


def test_dispersive_restores_long_pulse_e():
    m = build(ScenarioSpec(Config.E, Pulse.LONG, beta=0.4))
    assert visibility(apply_dispersive(m, {"ANTISYM"})) == pytest.approx(1.0, abs=1e-12)


def test_dispersive_absent_tag_is_noop_and_involution():
    m = build(ScenarioSpec(Config.C1, Pulse.LONG, beta=0.5))
    untouched = apply_dispersive(m, {FreqTag.SYM})
    for orig, new in zip(m.components, untouched.components):
        assert np.array_equal(orig.psi2.amplitudes, new.psi2.amplitudes)
    twice = apply_dispersive(apply_dispersive(m, {FreqTag.SHIFTED}), {FreqTag.SHIFTED})
    for orig, new in zip(m.components, twice.components):
        assert np.array_equal(orig.psi2.amplitudes, new.psi2.amplitudes)
    with pytest.raises(ValueError):
        apply_dispersive(m, set())


def test_named_projectors_orthogonal_and_complete():
    sym = named_projector("sym", TWO)
    antisym = named_projector("antisym", TWO)
    ground = named_projector("ground", TWO)
    assert np.max(np.abs(sym.columns.conj().T @ antisym.columns)) < 1e-15
    for occ in ((0, 0), (1, 0), (0, 1)):
        v = basis_state(TWO, occ)
        resolved = sum(p.apply(v).amplitudes for p in (sym, antisym, ground))
        assert np.max(np.abs(resolved - v.amplitudes)) < 1e-12


def test_named_projector_errors():
    with pytest.raises(ValueError):
        named_projector("nonsense", TWO)
    with pytest.raises(SpaceMismatchError):
        named_projector("single_atom_0", TWO)
    with pytest.raises(SpaceMismatchError):
        named_projector("sym", FockSpace((4,)))
    assert set(PROJECTOR_NAMES) >= {"ground", "sym", "antisym"}


def test_c_short_conditioned_on_excited_is_pi_shifted():
    m = build(ScenarioSpec(Config.C1, beta=0.3))
    on1, _ = condition(m, named_projector("single_atom_1", m.space))
    assert abs(phase_offset(on1)) == pytest.approx(math.pi, abs=1e-9)


def test_ground_projector_works_on_any_space():
    single = FockSpace((4,))
    p = named_projector("ground", single)
    assert p.columns.shape == (4, 1)
    assert p.columns[0, 0] == 1.0
    assert np.count_nonzero(p.columns) == 1
    g = ground_state(TWO)
    p2 = named_projector("ground", TWO)
    assert np.max(np.abs(p2.apply(g).amplitudes - g.amplitudes)) < 1e-15


# --- dense references -----------------------------------------------------


def _random_mixture(space, seed):
    rng = np.random.default_rng(seed)
    paths = [
        FockVector(space, rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim))
        for _ in range(2)
    ]
    return TwoPathMixture((TwoPathComponent(*paths),))


def _embedded_pair_unitary(space, block):
    """The 2x2 block on span{|1,0>, |0,1>} inside an identity on the whole space."""
    pair = (space.index((1, 0)), space.index((0, 1)))
    u = np.eye(space.dim, dtype=np.complex128)
    u[np.ix_(pair, pair)] = block
    return u


# Even dimensions only: for an odd dimension BLAS's remainder path rounds the
# pair rows of the dense reference product itself one ulp differently.
@pytest.mark.parametrize("space", [FockSpace((4, 4)), FockSpace((16, 16))])
def test_pair_rotations_equal_dense_embedding(space):
    m = _random_mixture(space, 5)
    eraser = np.array([[1.0, 1.0], [-1.0, 1.0]], dtype=np.complex128) / math.sqrt(2.0)
    c, s = math.cos(0.8 * 0.37), math.sin(0.8 * 0.37)
    beat = np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)
    for out, block in (
        (apply_eraser(m), eraser),
        (apply_eraser(m, inverse=True), eraser.conj().T),
        (evolve_beat(m, 0.8, 0.37), beat),
    ):
        u = _embedded_pair_unitary(space, block)
        for got, orig in zip(
            (out.components[0].psi1, out.components[0].psi2),
            (m.components[0].psi1, m.components[0].psi2),
        ):
            assert np.array_equal(got.amplitudes, u @ orig.amplitudes)


def test_named_projectors_equal_dense_outer_product():
    root = 1.0 / math.sqrt(2.0)
    single = FockSpace((5,))
    two = FockSpace((6, 6))
    i10, i01 = two.index((1, 0)), two.index((0, 1))
    columns = {
        ("ground", single): {0: 1.0},
        ("single_atom_0", single): {0: 1.0},
        ("single_atom_1", single): {1: 1.0},
        ("ground", two): {0: 1.0},
        ("atom1_excited", two): {i10: 1.0},
        ("atom2_excited", two): {i01: 1.0},
        ("sym", two): {i10: root, i01: root},
        ("antisym", two): {i10: root, i01: -root},
    }
    rng = np.random.default_rng(9)
    for (name, space), entries in columns.items():
        u = np.zeros(space.dim, dtype=np.complex128)
        for index, value in entries.items():
            u[index] = value
        v = FockVector(space, rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim))
        got = named_projector(name, space).apply(v).amplitudes
        assert np.max(np.abs(got - np.outer(u, u.conj()) @ v.amplitudes)) < 1e-15


def test_chain_results_are_read_only_with_exact_cached_norm():
    space = FockSpace((6, 6))
    m = _random_mixture(space, 3)
    source = np.random.default_rng(4).normal(size=(space.dim, 2)) + 0j
    columns, _ = np.linalg.qr(source)
    custom = Projector(space, columns)
    steps = [
        apply_eraser(m),
        apply_eraser(m, inverse=True),
        evolve_beat(m, 0.8, 0.37),
        apply_dispersive(m, [FreqTag.ELASTIC]),
        condition(m, named_projector("sym", space))[0],
        condition(m, custom)[0],
    ]
    paths = [p for out in steps for c in out.components for p in (c.psi1, c.psi2)]
    paths.append(custom.apply(m.components[0].psi1))
    for v in paths:
        assert not v.amplitudes.flags.writeable
        assert v.norm() == float(np.linalg.norm(v.amplitudes))
    assert not custom.columns.flags.writeable
    assert not np.shares_memory(custom.columns, columns)


def test_projector_apply_is_u_times_u_dagger_v_bit_for_bit():
    space = FockSpace((5, 5))
    m = _random_mixture(space, 8)
    for name in ("ground", "atom1_excited", "sym", "antisym"):
        projector = named_projector(name, space)
        u = projector.columns
        v = m.components[0].psi2
        assert np.array_equal(projector.apply(v).amplitudes, u @ (u.conj().T @ v.amplitudes))
