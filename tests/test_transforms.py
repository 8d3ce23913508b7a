import math
import re
import struct

import numpy as np
import pytest

from atomslits import spec, transforms
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
    # a coupling whose quarter period is not a finite float
    for g in (math.nan, math.inf, 1e-310, 5e-324):
        with pytest.raises(ValueError, match="finite positive coupling"):
            quarter_beat_time(g)
    for g in (0.8, 1e-300, 3e-308):
        assert quarter_beat_time(g) == math.pi / (4.0 * g)
    # 4 g overflows here, but the quarter period is a finite subnormal
    assert quarter_beat_time(1e308) == pytest.approx(7.853981633974483e-309, rel=1e-9, abs=0.0)


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


@pytest.mark.parametrize("tags", [
    ["SHIFTED"], [FreqTag.SHIFTED], ("SYM", FreqTag.ANTISYM), {"ELASTIC", FreqTag.ELASTIC},
    list(FreqTag), [member.value for member in FreqTag],
], ids=["str", "member", "mixed", "equal", "members", "values"])
def test_dispersive_maps_values_and_members_as_the_enum_call(tags):
    components = tuple(TwoPathComponent(E10, E01, tag) for tag in FreqTag)
    m = TwoPathMixture(components)
    # an iterator too, read once
    flipped = {c.tag for old, c in zip(components, apply_dispersive(m, iter(tags)).components)
               if c.psi2 is not old.psi2}
    assert flipped == {FreqTag(t) for t in tags}
    assert all(type(tag) is FreqTag for tag in flipped)


@pytest.mark.parametrize("tags", [["LOUD"], ["SHIFTED", "LOUD"], [["SYM"]], [None], [3]])
def test_dispersive_refuses_an_unknown_tag_as_the_enum_call(tags):
    m = TwoPathMixture((TwoPathComponent(E10, E01, FreqTag.SHIFTED),))
    with pytest.raises(ValueError) as expected:
        for t in tags:
            FreqTag(t)
    with pytest.raises(type(expected.value), match=re.escape(str(expected.value))):
        apply_dispersive(m, tags)


@pytest.mark.parametrize("tag", ["SHIFTED", FreqTag.SHIFTED], ids=["value", "member"])
def test_dispersive_refuses_a_bare_tag(tag):
    # a FreqTag is a str: iterated, its letters would be looked up, and 'S' is no tag
    m = build(ScenarioSpec(Config.C1, Pulse.LONG, beta=0.3))
    with pytest.raises(ValueError, match=re.escape(
            f"apply_dispersive takes a collection of tags, got the bare tag {tag!r}")):
        apply_dispersive(m, tag)
    assert visibility(apply_dispersive(m, [tag])) == pytest.approx(1.0, abs=1e-12)


# the other constructors that look a member up by its value: the enum, the member read back
# from the constructed object, and a member to pass
_LOOKUPS = {
    "spec_config": (Config, lambda v: ScenarioSpec(v).config, Config.C1),
    "spec_pulse": (Pulse, lambda v: ScenarioSpec(Config.B, v).pulse, Pulse.LONG),
    "spec_treatment": (Treatment, lambda v: ScenarioSpec(Config.B, treatment=v).treatment,
                       Treatment.FIRST_ORDER),
    "component_tag": (FreqTag, lambda v: TwoPathComponent(E10, E01, v).tag, FreqTag.ANTISYM),
}


@pytest.mark.parametrize("lookup", _LOOKUPS)
@pytest.mark.parametrize("form", [lambda m: m.value, lambda m: m], ids=["str", "member"])
def test_spec_and_component_map_values_and_members_as_the_enum_call(lookup, form):
    enum, read, member = _LOOKUPS[lookup]
    assert read(form(member)) is enum(form(member)) is member


@pytest.mark.parametrize("lookup", _LOOKUPS)
@pytest.mark.parametrize("form", [lambda m: "LOUD", lambda m: [m.value]], ids=["unknown", "list"])
def test_spec_and_component_refuse_an_unknown_value_as_the_enum_call(lookup, form):
    enum, read, member = _LOOKUPS[lookup]
    with pytest.raises(ValueError) as expected:
        enum(form(member))
    with pytest.raises(ValueError) as refused:
        read(form(member))
    assert (refused.type, str(refused.value)) == (expected.type, str(expected.value))


def test_named_projectors_orthogonal_and_complete():
    sym = named_projector("sym", TWO)
    antisym = named_projector("antisym", TWO)
    ground = named_projector("ground", TWO)
    assert np.max(np.abs(sym.columns.conj().T @ antisym.columns)) < 1e-15
    for occ in ((0, 0), (1, 0), (0, 1)):
        v = basis_state(TWO, occ)
        resolved = sum(p._image(v, {}).amplitudes for p in (sym, antisym, ground))
        assert np.max(np.abs(resolved - v.amplitudes)) < 1e-12


def test_named_projector_errors():
    with pytest.raises(ValueError):
        named_projector("nonsense", TWO)
    with pytest.raises(SpaceMismatchError):
        named_projector("single_atom_0", TWO)
    with pytest.raises(SpaceMismatchError):
        named_projector("sym", FockSpace((4,)))
    assert set(PROJECTOR_NAMES) >= {"ground", "sym", "antisym"}


# The sectors of each long pulse's outcomes after its elastic line on ground, path 1 and
# path 2: a projector name, "-name" for its negation, None for an empty path.
LONG_SECTORS = {
    Config.B: [("atom1_excited", None), (None, "atom2_excited")],
    Config.C1: [("single_atom_1", "-single_atom_1")],
    Config.C2: [("single_atom_1", "-single_atom_1")],
    Config.E: [("sym", "sym"), ("antisym", "-antisym")],
}


@pytest.mark.parametrize("config", list(LONG_SECTORS))
def test_long_pulse_paths_are_the_projector_columns(config):
    m = build(ScenarioSpec(config, Pulse.LONG, beta=0.3, nmax=5))
    outcomes = [("ground", "ground"), *LONG_SECTORS[config]]
    assert len(m.components) == len(outcomes)
    for c, sectors in zip(m.components, outcomes):
        for path, sector in zip((c.psi1, c.psi2), sectors):
            if sector is None:
                assert not path.amplitudes.any()
                continue
            column = named_projector(sector.lstrip("-"), m.space).columns[:, 0]
            if sector.startswith("-"):  # the bitwise negation, signed zeros too
                negated = np.negative(column.view(np.float64))
                assert path.amplitudes.tobytes() == negated.tobytes()
            else:  # the very vector the projector's column is a view of
                assert np.shares_memory(path.amplitudes, column)
                assert path.amplitudes.tobytes() == column.tobytes()


def test_a_long_pulse_path_stays_the_projector_column_when_the_state_table_turns_over():
    projectors = {name: named_projector(name, TWO) for name in ("ground", "sym")}
    many = FockSpace((40,))
    for n in range(40):  # more fixed states than the table holds: TWO's are dropped
        basis_state(many, (n,))
    m = build(ScenarioSpec(Config.E, Pulse.LONG, beta=0.3, nmax=3))
    assert m.space == TWO
    elastic, sym = m.components[:2]
    assert elastic.psi1 is projectors["ground"]._columns[0]
    assert sym.psi1 is sym.psi2 is projectors["sym"]._columns[0]


def test_check_modes_takes_each_sector_on_as_many_modes_as_its_occupations():
    modes = {"ground": 0, "atom1_excited": 2, "atom2_excited": 2, "single_atom_0": 1,
             "single_atom_1": 1, "sym": 2, "antisym": 2}
    assert {name: len(terms[0][0]) for name, terms in spec._SECTORS.items()} == modes
    for name, needed in modes.items():
        for nmodes in (1, 2, 3):
            if needed in (0, nmodes):  # ground, 0, fits any space
                spec.check_modes(nmodes, name)
            else:
                with pytest.raises(SpaceMismatchError):
                    spec.check_modes(nmodes, name)


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
    assert np.max(np.abs(p2._image(g, {}).amplitudes - g.amplitudes)) < 1e-15


def _bits(rows):
    """The float64 parts of each entry, as bytes: tells -0.0 from +0.0."""
    return [[struct.pack("<dd", z.real, z.imag) for z in row] for row in rows]


def test_eraser_rows_are_the_literal_rotation_to_the_bit():
    # the rows built from the antisym and sym sectors, against their literal statement
    r = 1.0 / math.sqrt(2.0)
    assert _bits(transforms._ERASER_ROWS) == _bits([[complex(r, 0.0), complex(r, 0.0)],
                                                    [complex(-r, 0.0), complex(r, 0.0)]])
    assert _bits(transforms._INVERSE_ROWS) == _bits([[complex(r, -0.0), complex(-r, -0.0)],
                                                     [complex(r, -0.0), complex(r, -0.0)]])


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
        got = named_projector(name, space)._image(v, {}).amplitudes
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
    paths.append(custom._image(m.components[0].psi1, {}))
    for v in paths:
        assert not v.amplitudes.flags.writeable
        # the scalar engine's norm on this 36-level space: its squared magnitudes summed by
        # np.add.reduce
        a = v.amplitudes
        assert v.norm() == math.sqrt(np.add.reduce(a.real * a.real + a.imag * a.imag))
    assert not custom.columns.flags.writeable
    assert not np.shares_memory(custom.columns, columns)


def test_projector_apply_is_u_times_u_dagger_v_bit_for_bit():
    space = FockSpace((5, 5))
    m = _random_mixture(space, 8)
    for name in ("ground", "atom1_excited", "sym", "antisym"):
        projector = named_projector(name, space)
        u = projector.columns
        v = m.components[0].psi2
        assert np.array_equal(projector._image(v, {}).amplitudes,
                              u @ (u.conj().T @ v.amplitudes))
