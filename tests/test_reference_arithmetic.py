"""The marker hot path against plain numpy forms of the same arithmetic.

Each kernel below does the floating-point operations of a plainer form (np.kron,
np.linalg.norm, matmul, sums of scaled basis vectors) with fewer numpy calls and
no dense temporaries. The plain form is the reference, and equality is on the
raw bytes, so a changed signed zero would show as well. The tables computed
once (levels, sample grids, spaces) are compared with their fresh formulas, and
results shared within a call with the results computed one by one. The last
tests bound the peak memory of a whole chain.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from atomslits.fockspace import (
    FockSpace,
    FockVector,
    _levels,
    basis_state,
    coherent_state,
    ground_state,
    tensor,
    zero_vector,
)
from atomslits.scenarios import Config, Pulse, ScenarioSpec, Treatment, build
from atomslits.transforms import (
    PROJECTOR_NAMES,
    apply_dispersive,
    apply_eraser,
    evolve_beat,
    named_projector,
)
from atomslits.twopath import (
    FreqTag,
    Projector,
    TwoPathComponent,
    TwoPathMixture,
    coherence_sum,
    condition,
    _unit_circle,
    mean_intensity,
    pattern,
)

ERASER = np.array([[1.0, 1.0], [-1.0, 1.0]], dtype=np.complex128) / math.sqrt(2.0)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def random_amplitudes(rng, dim, zeros=0):
    """Dense complex amplitudes; `zeros` of them set to +-0 in each part."""
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    for k in rng.choice(dim, size=zeros, replace=False):
        amps[k] = complex(rng.choice([0.0, -0.0]), rng.choice([0.0, -0.0]))
    return amps


def beat_block(g, t):
    c, s = math.cos(g * t), math.sin(g * t)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)


# --- fockspace ---------------------------------------------------------------


@pytest.mark.parametrize("dims", [(2, 2), (16, 64), (64, 64), (2, 3, 4), (16, 16, 16),
                                  (64, 3, 64)])
def test_tensor_is_np_kron(dims):
    rng = np.random.default_rng(sum(dims))
    factors = [FockVector(FockSpace((d,)), random_amplitudes(rng, d, zeros=d // 4))
               for d in dims]
    expected = factors[0].amplitudes
    for v in factors[1:]:
        expected = np.kron(expected, v.amplitudes)
    got = tensor(factors)
    assert same_bits(got.amplitudes, expected)
    assert got.space.mode_dims == dims


@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
def test_norm_is_np_linalg_norm(scale):
    rng = np.random.default_rng(7)
    for _ in range(5):
        amps = scale * random_amplitudes(rng, 4096, zeros=100)
        assert FockVector(FockSpace((64, 64)), amps).norm() == float(np.linalg.norm(amps))


@pytest.mark.parametrize("nmax", [2, 3, 16, 64, 171])
def test_coherent_state_is_the_integer_cumprod_series(nmax):
    for beta in (0, 0.3 + 0.1j, -0.2j, -1.1 + 0.4j, 0.9 * math.sqrt(nmax)):
        b = complex(beta)
        n = np.arange(nmax)
        amps = math.exp(-abs(b) ** 2 / 2.0) * b**n / np.sqrt(
            np.cumprod(np.maximum(n, 1), dtype=float))
        captured = float(np.vdot(amps, amps).real)
        state, residual = coherent_state(beta, nmax)
        assert same_bits(state.amplitudes, amps / math.sqrt(captured))
        assert residual == max(0.0, 1.0 - captured)


@pytest.mark.parametrize("nmax", [2, 16, 64, 171])
def test_ground_state_is_coherent_state_at_zero(nmax):
    assert same_bits(ground_state(FockSpace((nmax,))).amplitudes,
                     coherent_state(0, nmax)[0].amplitudes)


@pytest.mark.parametrize("nmax", [2, 16, 64, 171])
def test_level_table_is_read_only_and_the_fresh_formula(nmax):
    n, root_factorial = _levels(nmax)
    fresh = np.arange(nmax)
    assert same_bits(n, fresh)
    assert same_bits(root_factorial, np.sqrt(np.maximum(fresh, 1.0).cumprod()))
    assert not n.flags.writeable and not root_factorial.flags.writeable
    assert _levels(nmax)[1] is root_factorial


def test_builds_share_spaces_and_the_empty_path(monkeypatch):
    specs = [ScenarioSpec(Config.B, beta=0.3, nmax=24),
             ScenarioSpec(Config.B, beta=0.1, treatment=Treatment.FIRST_ORDER, nmax=24),
             ScenarioSpec(Config.D, beta=0.2, alpha=0.4, nmax=24),
             ScenarioSpec(Config.C1, beta=0.2, nmax=24)]
    warm = [build(spec) for spec in specs]
    constructed = []
    original = FockSpace.__post_init__
    monkeypatch.setattr(FockSpace, "__post_init__",
                        lambda self: constructed.append(self) or original(self))
    again = [build(spec) for spec in specs]
    assert constructed == []
    assert again[0].space is again[1].space is warm[0].space
    assert again[2].space is warm[2].space and again[3].space is warm[3].space
    two_mode = [build(ScenarioSpec(config, beta=0.1, nmax=24)).space
                for config in (Config.B, Config.E, Config.D)]
    assert two_mode[0] is two_mode[1] is two_mode[2] is warm[0].space
    assert coherent_state(0.3, 24)[0].space is coherent_state(-0.1j, 24)[0].space
    factors = [ground_state(FockSpace((3,))), ground_state(FockSpace((4,)))]
    assert tensor(factors).space is tensor(factors).space
    _, left, right = build(ScenarioSpec(Config.B, Pulse.LONG, beta=0.3, nmax=24)).components
    assert left.psi2 is right.psi1  # one zero vector for both empty paths


# --- projectors and pair rotations ---------------------------------------------


@pytest.mark.parametrize("nmax", [16, 64])
def test_named_projectors_apply_as_u_times_u_dagger_v(nmax):
    rng = np.random.default_rng(nmax)
    for space in (FockSpace((nmax,)), FockSpace((nmax, nmax))):
        vectors = [FockVector(space, random_amplitudes(rng, space.dim, zeros=space.dim // 3))
                   for _ in range(3)]
        vectors.append(basis_state(space, (1,) * space.nmodes))
        for name in PROJECTOR_NAMES:
            try:
                projector = named_projector(name, space)
            except ValueError:  # a projector for the other marker space
                continue
            u = projector.columns
            for v in vectors:
                assert same_bits(projector.apply(v).amplitudes,
                                 u @ (u.conj().T @ v.amplitudes)), name


def test_custom_projector_block_matches_matmul():
    space = FockSpace((16, 16))
    rng = np.random.default_rng(3)
    columns, _ = np.linalg.qr(rng.normal(size=(space.dim, 3))
                              + 1j * rng.normal(size=(space.dim, 3)))
    projector = Projector(space, columns)
    for _ in range(5):
        v = FockVector(space, random_amplitudes(rng, space.dim))
        expected = columns @ (columns.conj().T @ v.amplitudes)
        assert np.max(np.abs(projector.apply(v).amplitudes - expected)) < 1e-15


def _reference_rotation(amps, block, pair):
    out = amps.copy()
    out[list(pair)] = block @ out[list(pair)]
    return out


def test_pair_rotations_are_the_block_matmul():
    space = FockSpace((16, 16))
    pair = (space.index((1, 0)), space.index((0, 1)))
    rng = np.random.default_rng(11)
    states = [random_amplitudes(rng, space.dim, zeros=40) for _ in range(20)]
    for a, b in itertools.product(
        [complex(x, y) for x in (0.0, -0.0, 0.5) for y in (0.0, -0.0, -2.0)], repeat=2
    ):
        amps = random_amplitudes(rng, space.dim)
        amps[list(pair)] = a, b
        states.append(amps)
    transforms = [(lambda m: apply_eraser(m), ERASER),
                  (lambda m: apply_eraser(m, inverse=True), ERASER.conj().T)]
    for g, t in ((0.8, 0.37), (1.0, math.pi / 4), (2.0, math.pi / 2), (0.3, 9.1), (1.0, 0.0)):
        transforms.append((lambda m, g=g, t=t: evolve_beat(m, g, t), beat_block(g, t)))
    for psi1, psi2 in zip(states[::2], states[1::2]):
        m = TwoPathMixture((TwoPathComponent(FockVector(space, psi1), FockVector(space, psi2)),))
        for transform, block in transforms:
            out = transform(m).components[0]
            assert same_bits(out.psi1.amplitudes, _reference_rotation(psi1, block, pair))
            assert same_bits(out.psi2.amplitudes, _reference_rotation(psi2, block, pair))


def test_rotation_keeps_a_path_whose_pair_is_plus_zero_and_rotates_a_shared_path_once():
    space = FockSpace((16, 16))
    pair = [space.index((1, 0)), space.index((0, 1))]
    g, e = ground_state(space), basis_state(space, (2, 3))
    rng = np.random.default_rng(12)
    v = FockVector(space, random_amplitudes(rng, space.dim))
    m = TwoPathMixture((TwoPathComponent(g, e), TwoPathComponent(v, v)))
    for out, block in ((apply_eraser(m), ERASER),
                       (apply_eraser(m, inverse=True), ERASER.conj().T),
                       (evolve_beat(m, 0.8, 0.37), beat_block(0.8, 0.37))):
        kept, shared = out.components
        assert kept.psi1 is g and kept.psi2 is e
        assert shared.psi1 is shared.psi2
        assert same_bits(shared.psi1.amplitudes, _reference_rotation(v.amplitudes, block, pair))
    # any other zero pair is rewritten to the +0+0j that block @ x gives
    for a, b in itertools.product([0j, complex(-0.0, 0.0), complex(0.0, -0.0)], repeat=2):
        amps = g.amplitudes.copy()
        amps[pair] = a, b
        w = FockVector(space, amps)
        out = apply_eraser(TwoPathMixture((TwoPathComponent(w, g),))).components[0].psi1
        assert (out is w) == (np.array([a, b]).tobytes() == bytes(32))
        assert same_bits(out.amplitudes, _reference_rotation(amps, ERASER, pair))


def test_condition_shares_equal_projections_and_matches_the_one_by_one_form():
    space = FockSpace((16, 16))
    rng = np.random.default_rng(13)
    v = FockVector(space, random_amplitudes(rng, space.dim, zeros=30))
    twin = FockVector(space, v.amplitudes)  # equal bytes, another object
    u = FockVector(space, random_amplitudes(rng, space.dim))
    z = zero_vector(space)
    m = TwoPathMixture((TwoPathComponent(v, v), TwoPathComponent(twin, u, weight=0.5),
                        TwoPathComponent(z, -z, FreqTag.SHIFTED), TwoPathComponent(u, z)))
    columns, _ = np.linalg.qr(rng.normal(size=(space.dim, 3)) + 1j * rng.normal(size=(space.dim, 3)))
    projectors = [named_projector(name, space) for name in
                  ("ground", "atom1_excited", "atom2_excited", "sym", "antisym")]
    for projector in projectors + [Projector(space, columns)]:
        cm, post = condition(m, projector)
        (a, b, c, d) = cm.components
        assert a.psi1 is a.psi2 is b.psi1  # one image for v and its twin
        assert d.psi1 is b.psi2 and d.psi2 is c.psi1
        for before, after in zip(m.components, cm.components):
            for path, image in ((before.psi1, after.psi1), (before.psi2, after.psi2)):
                assert same_bits(image.amplitudes, projector.apply(path).amplitudes)
                if projector.columns.shape[1] == 1:
                    u_ = projector.columns
                    assert same_bits(image.amplitudes, u_ @ (u_.conj().T @ path.amplitudes))
        assert post == mean_intensity(cm) / mean_intensity(m)


# --- builders ----------------------------------------------------------------


def _kron(*factors):
    amps = factors[0]
    for f in factors[1:]:
        amps = np.kron(amps, f)
    return amps


def reference_paths(spec):
    """The builders' path states as (psi1, psi2, tag, weight), in the plain form.

    Basis-vector sums for the first-order markers and the E-long normal modes,
    each written as scaled basis amplitudes added elementwise, np.kron for
    products, and coherent_state(0) for B's resting atom.
    """
    b, nmax = spec.beta, spec.nmax
    one, two = FockSpace((nmax,)), FockSpace((nmax, nmax))
    w = spec.epsilon**2

    def e(space, occupations):
        return basis_state(space, occupations).amplitudes

    def kicked(beta):
        c0 = math.sqrt(1.0 - abs(beta) ** 2)
        return e(one, (0,)) * complex(c0) + e(one, (1,)) * complex(beta)

    def first_order_b():
        c0 = math.sqrt(1.0 - abs(b) ** 2)
        return (e(two, (0, 0)) * complex(c0) + e(two, (1, 0)) * complex(b),
                e(two, (0, 0)) * complex(c0) + e(two, (0, 1)) * complex(b))

    lane = (spec.config, spec.pulse, spec.treatment)
    if lane == (Config.B, Pulse.SHORT, Treatment.EXACT):
        k, still = coherent_state(b, nmax)[0].amplitudes, coherent_state(0, nmax)[0].amplitudes
        return [(_kron(k, still), _kron(still, k), FreqTag.ELASTIC, w)]
    if lane == (Config.B, Pulse.SHORT, Treatment.FIRST_ORDER):
        psi1, psi2 = first_order_b()
        return [(psi1, psi2, FreqTag.ELASTIC, w)]
    if lane[:2] == (Config.E, Pulse.SHORT):
        block = beat_block(spec.coupling_g, spec.evolve_time)
        pair = (two.index((1, 0)), two.index((0, 1)))
        psi1, psi2 = (_reference_rotation(p, block, pair) for p in first_order_b())
        return [(psi1, psi2, FreqTag.ELASTIC, w)]
    if lane in ((Config.C1, Pulse.SHORT, Treatment.FIRST_ORDER),
                (Config.C2, Pulse.SHORT, Treatment.FIRST_ORDER)):
        return [(kicked(b), kicked(-b), FreqTag.ELASTIC, w)]
    if lane == (Config.D, Pulse.SHORT, Treatment.FIRST_ORDER):
        common = coherent_state(spec.alpha, nmax)[0].amplitudes
        return [(_kron(common, kicked(b)), _kron(common, kicked(-b)), FreqTag.ELASTIC, w)]
    if lane[:2] == (Config.E, Pulse.LONG):
        b2 = abs(b) ** 2
        g = ground_state(two).amplitudes
        root = 1.0 / math.sqrt(2.0)
        e10, e01 = e(two, (1, 0)), e(two, (0, 1))
        sym = (e10 + e01) * complex(root)
        anti = (e10 - e01) * complex(root)
        return [(g, g, FreqTag.ELASTIC, w * (1.0 - b2)),
                (sym, sym, FreqTag.SYM, w * b2 / 2.0),
                (anti, -anti, FreqTag.ANTISYM, w * b2 / 2.0)]
    raise AssertionError(f"no reference for {lane}")


REWRITTEN_LANES = [
    (Config.B, Pulse.SHORT, Treatment.EXACT),
    (Config.B, Pulse.SHORT, Treatment.FIRST_ORDER),
    (Config.C1, Pulse.SHORT, Treatment.FIRST_ORDER),
    (Config.C2, Pulse.SHORT, Treatment.FIRST_ORDER),
    (Config.D, Pulse.SHORT, Treatment.FIRST_ORDER),
    (Config.E, Pulse.SHORT, Treatment.FIRST_ORDER),
    (Config.E, Pulse.LONG, Treatment.FIRST_ORDER),
]


@pytest.mark.parametrize("nmax", [2, 16, 64])
@pytest.mark.parametrize("lane", REWRITTEN_LANES, ids=lambda lane: "-".join(x.value for x in lane))
def test_builders_equal_their_basis_sum_forms(lane, nmax):
    config, pulse, treatment = lane
    for beta in (0.3 + 0.1j, -0.2j, complex(-0.0, 0.4), 0j, -0.41 + 0.05j, 0.69):
        spec = ScenarioSpec(config, pulse, beta=beta, treatment=treatment, nmax=nmax,
                            alpha=0.4 - 0.2j if config is Config.D else 0j,
                            coupling_g=0.7 if config is Config.E else 0.0,
                            evolve_time=0.9 if config is Config.E else 0.0)
        got = build(spec).components
        expected = reference_paths(spec)
        assert len(got) == len(expected)
        for c, (psi1, psi2, tag, weight) in zip(got, expected):
            assert same_bits(c.psi1.amplitudes, psi1)
            assert same_bits(c.psi2.amplitudes, psi2)
            assert (c.tag, c.weight) == (tag, weight)


# --- pattern -------------------------------------------------------------------


def test_pattern_samples_are_the_clipped_closed_form():
    rng = np.random.default_rng(2)
    space = FockSpace((6, 6))
    mixtures = [build(ScenarioSpec(Config.A))]  # V = 1: its minimum needs the clip
    for _ in range(5):
        psi1, psi2 = (FockVector(space, random_amplitudes(rng, space.dim)) for _ in range(2))
        mixtures.append(TwoPathMixture((TwoPathComponent(psi1, psi2, weight=0.3),
                                        TwoPathComponent(psi1, psi1, FreqTag.SYM, 0.1))))
    for m in mixtures:
        for nsamples in (16, 64, 256):
            d, c = mean_intensity(m), coherence_sum(m)
            phis = 2.0 * np.pi * np.arange(nsamples) / nsamples
            expected = np.clip(d + 2.0 * np.real(c * np.exp(1j * phis)), 0.0, None)
            scan = pattern(m, nsamples)
            assert same_bits(scan.phis, phis)
            assert same_bits(scan.intensities, expected)
            assert not scan.phis.flags.writeable and not scan.intensities.flags.writeable


@pytest.mark.parametrize("nsamples", [16, 256, 1000, 65536])
def test_unit_circle_table_is_read_only_and_the_fresh_formula(nsamples):
    phis, circle = _unit_circle(nsamples)
    fresh = 2.0 * np.pi * np.arange(nsamples) / nsamples
    assert same_bits(phis, fresh)
    assert same_bits(circle, np.exp(1j * fresh))
    assert not phis.flags.writeable and not circle.flags.writeable
    assert _unit_circle(nsamples)[1] is circle


def test_interleaved_sample_counts_give_identical_bytes():
    m = build(ScenarioSpec(Config.B, beta=0.3 + 0.1j))
    d, c = mean_intensity(m), coherence_sum(m)
    # more distinct counts than the table holds, each asked for again later
    counts = [16, 256, 1000, 65536, 17, 64] + list(range(20, 32)) + [256, 16, 1000, 17]
    for nsamples in counts:
        phis = 2.0 * np.pi * np.arange(nsamples) / nsamples
        scan = pattern(m, nsamples)
        assert same_bits(scan.phis, phis)
        assert same_bits(scan.intensities,
                         np.clip(d + 2.0 * np.real(c * np.exp(1j * phis)), 0.0, None))


# --- memory ----------------------------------------------------------------------

# ROADMAP item 2's ceiling for a whole chain at nmax 64. One dense dim x dim
# operator there would take 268 MB; the chain itself peaks under 1 MiB.
PEAK_LIMIT_BYTES = 5 * 10**6

# Every regime: each config and pulse, with each treatment it tells apart.
REGIMES = [
    ("A", "short", None), ("A", "long", None),
    ("B", "short", "exact"), ("B", "short", "first"), ("B", "long", None),
    ("C1", "short", "exact"), ("C1", "short", "first"), ("C1", "long", None),
    ("C2", "short", "exact"), ("C2", "short", "first"), ("C2", "long", None),
    ("D", "short", "exact"), ("D", "short", "first"),
    ("E", "short", "first"), ("E", "long", None),
]


def chain_peak_bytes(regime):
    """tracemalloc peak of build -> eraser or beat -> dispersive -> condition -> pattern."""
    config, pulse, treatment = regime
    spec = ScenarioSpec(config, pulse, beta=0.3 + 0.1j, treatment=treatment, nmax=64,
                        alpha=0.5 if config == "D" else 0j)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        m = build(spec)
        if m.space.nmodes == 2:
            m = evolve_beat(m, 0.7, 0.9) if config == "E" else apply_eraser(m)
        if pulse == "long":
            m = apply_dispersive(m, [FreqTag.SHIFTED, FreqTag.ANTISYM])
        m, _ = condition(m, named_projector("ground", m.space))
        pattern(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if started:
            tracemalloc.stop()
    return peak


@pytest.mark.parametrize("regime", REGIMES, ids=lambda r: "-".join(filter(None, r)))
def test_chain_at_nmax_64_peaks_below_5_mb(regime):
    assert chain_peak_bytes(regime) < PEAK_LIMIT_BYTES


# A long pulse holds its ground, excited and empty path states side by side.
# Unchanged path states are kept and equal projections shared, so these chains
# peak at 8 to 9 arrays of 64 KiB (0.50 and 0.57 MiB); copying every path state
# at every stage took 14 (0.88 MiB).
LONG_PULSE_PEAK_LIMIT_BYTES = 0.7 * 2**20


@pytest.mark.parametrize("config", ["B", "E"])
def test_long_pulse_chain_at_nmax_64_peaks_below_0_7_mib(config):
    assert chain_peak_bytes((config, "long", None)) < LONG_PULSE_PEAK_LIMIT_BYTES
