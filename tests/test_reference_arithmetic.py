"""The marker hot path against plain numpy forms of the same arithmetic.

Each kernel below does the floating-point operations of a plainer form (np.kron,
np.linalg.norm, matmul, sums of scaled basis vectors) with fewer numpy calls and
no dense temporaries. The plain form is the reference, and equality is on the
raw bytes, so a changed signed zero would show as well. On a space of the
scalar engine the plain form is its reference arithmetic, written with numpy's
elementwise float64 operations: complex products from float64 parts, and sums
by np.add.reduce. The tables computed
once (levels, sample grids, spaces, fixed states, named projectors) are
compared with their fresh formulas, and results shared within a call with the
results computed one by one. The last tests bound the peak memory of a whole
chain, with the tables cold and warm.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from atomslits.errors import TruncationError
from atomslits.fockspace import (
    FockSpace,
    FockVector,
    _fixed_state,
    _scalar,
    _levels,
    _product,
    _space,
    basis_state,
    coherent_state,
    ground_state,
    zero_vector,
)
from atomslits.scenarios import Config, Pulse, ScenarioSpec, Treatment, build
from atomslits.spec import _SECTORS, _poisson_tail
from atomslits.transforms import (
    PROJECTOR_NAMES,
    _named_projector,
    _sector,
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
ROOT = 1.0 / math.sqrt(2.0)

# every table of fixed parts the package computes once
TABLES = (_space, _levels, _fixed_state, _named_projector, _unit_circle)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def parts(re, im):
    """The complex128 array of these float64 parts, each written as it is."""
    out = np.empty(np.shape(re), dtype=np.complex128)
    out.real, out.imag = re, im
    return out


def float_part_product(a, b):
    """a * b elementwise from float64 parts, the scalar engine's complex product."""
    return parts(a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real)


def reference_kron(space, a, b):
    """np.kron, or on a space of the scalar engine its float-part form."""
    if not _scalar(space):
        return np.kron(a, b)
    return float_part_product(np.repeat(a, len(b)), np.tile(b, len(a)))


def scalar_inner(u, v):
    """<u|v> of the scalar engine: conj(u) v from float64 parts, each part np.add.reduce'd."""
    return complex(np.add.reduce(u.real * v.real + u.imag * v.imag),
                   np.add.reduce(u.real * v.imag - u.imag * v.real))


def reference_image(space, u, v):
    """U (U^dag v) of one column: matmul, or on a space of the scalar engine u <u|v>."""
    if not _scalar(space):
        return u @ (u.conj().T @ v)
    return float_part_product(u[:, 0], scalar_inner(u[:, 0], v))


def reference_norm(space, amps):
    """np.linalg.norm, or on a space of the scalar engine the square root of the
    np.add.reduce'd squared magnitudes."""
    if not _scalar(space):
        return np.float64(np.linalg.norm(amps))
    return np.float64(math.sqrt(np.add.reduce(amps.real * amps.real + amps.imag * amps.imag)))


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
    got = _product(factors)
    expected = factors[0].amplitudes
    for v in factors[1:]:
        expected = reference_kron(got.space, expected, v.amplitudes)
    assert same_bits(got.amplitudes, expected)
    assert got.space.mode_dims == dims


@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
def test_norm_is_np_linalg_norm(scale):
    rng = np.random.default_rng(7)
    for _ in range(5):
        amps = scale * random_amplitudes(rng, 4096, zeros=100)
        assert FockVector(FockSpace((64, 64)), amps).norm() == float(np.linalg.norm(amps))


def scalar_coherent_series(b, nmax):
    """The scalar engine's series: b^n a running float-part product, and each part
    scaled by exp(-|b|^2/2), then divided by sqrt(n!)."""
    powers = [1 + 0j]
    for _ in range(nmax - 1):
        p = powers[-1]
        powers.append(complex(p.real * b.real - p.imag * b.imag, p.real * b.imag + p.imag * b.real))
    p = np.array(powers)
    scale = math.exp(-(b.real * b.real + b.imag * b.imag) / 2.0)
    root = np.sqrt(np.cumprod(np.maximum(np.arange(nmax), 1), dtype=float))
    return parts(scale * p.real / root, scale * p.imag / root)


@pytest.mark.parametrize("nmax", [2, 3, 16, 64, 171])
def test_coherent_state_is_the_integer_cumprod_series(nmax):
    for beta in (0, 0.3 + 0.1j, -0.2j, -1.1 + 0.4j, 0.9 * math.sqrt(nmax)):
        b = complex(beta)
        n = np.arange(nmax)
        b2 = b.real * b.real + b.imag * b.imag
        if _scalar(FockSpace((nmax,))):
            amps = scalar_coherent_series(b, nmax)
            root = reference_norm(FockSpace((nmax,)), amps)
            expected = parts(amps.real / root, amps.imag / root)
            captured = float(root * root)
        else:
            amps = math.exp(-b2 / 2.0) * b**n / np.sqrt(np.cumprod(np.maximum(n, 1), dtype=float))
            captured = float(np.vdot(amps, amps).real)
            expected = amps / math.sqrt(captured)
        assert same_bits(coherent_state(beta, nmax).amplitudes, expected)
        assert abs(max(0.0, 1.0 - captured) - _poisson_tail(b2, nmax)) <= 1e-12


@pytest.mark.parametrize("nmax", [2, 16, 64, 171])
def test_ground_state_is_coherent_state_at_zero(nmax):
    assert same_bits(ground_state(FockSpace((nmax,))).amplitudes,
                     coherent_state(0, nmax).amplitudes)


@pytest.mark.parametrize("nmax", [2, 16, 64, 171])
def test_level_table_is_read_only_and_the_fresh_formula(nmax):
    n, root_factorial = _levels(nmax)
    fresh = np.arange(nmax)
    assert same_bits(n, fresh)
    assert same_bits(root_factorial, np.sqrt(np.maximum(fresh, 1.0).cumprod()))
    assert not n.flags.writeable and not root_factorial.flags.writeable
    assert _levels(nmax)[1] is root_factorial


def fresh_state(space, writes):
    """np.zeros with each (occupations, amplitude) written in."""
    amps = np.zeros(space.dim, dtype=np.complex128)
    for occupations, c in writes:
        amps[space.index(occupations)] = c
    return amps


def fixed_states(space):
    """(name, a call giving the shared state, its fresh formula) for each fixed state
    of the space, the builders' normal modes and negations among them."""
    nmax = space.mode_dims[0]
    states = [("ground", lambda: ground_state(space), fresh_state(space, [((0,) * space.nmodes, 1.0)])),
              ("zero", lambda: zero_vector(space), fresh_state(space, []))]
    for level in itertools.product((0, 1), repeat=space.nmodes):
        states.append((f"basis{level}", lambda level=level: basis_state(space, level),
                       fresh_state(space, [(level, 1.0)])))
    if space.nmodes == 1:
        long_c = lambda: build(ScenarioSpec(Config.C1, Pulse.LONG, beta=0.2, nmax=nmax))
        states.append(("-e1", lambda: long_c().components[1].psi2,
                       -fresh_state(space, [((1,), 1.0)])))
    else:
        long_e = lambda: build(ScenarioSpec(Config.E, Pulse.LONG, beta=0.2, nmax=nmax))
        states += [("sym", lambda: long_e().components[1].psi1,
                    fresh_state(space, [((1, 0), ROOT), ((0, 1), ROOT)])),
                   ("antisym", lambda: long_e().components[2].psi1,
                    fresh_state(space, [((1, 0), ROOT), ((0, 1), -ROOT)])),
                   ("-antisym", lambda: long_e().components[2].psi2,
                    -fresh_state(space, [((1, 0), ROOT), ((0, 1), -ROOT)]))]
    return states


@pytest.mark.parametrize("nmax", [2, 16, 64])
@pytest.mark.parametrize("nmodes", [1, 2])
def test_fixed_states_are_shared_read_only_and_their_fresh_formula(nmax, nmodes):
    space = FockSpace((nmax,) * nmodes)  # equal to the shared space, another object
    for name, shared, expected in fixed_states(space):
        v = shared()
        assert shared() is v, name
        assert v.space is _space(space.mode_dims), name
        assert not v.amplitudes.flags.writeable, name
        assert same_bits(v.amplitudes, expected), name
        assert v.norm() == reference_norm(space, expected), name


def test_states_of_a_space_beyond_the_marker_spaces_are_not_held():
    space = FockSpace((172, 172))
    for make in (lambda: ground_state(space), lambda: basis_state(space, (1, 0)),
                 lambda: zero_vector(space), lambda: named_projector("sym", space)):
        assert make() is not make()
    assert same_bits(basis_state(space, (1, 0)).amplitudes, fresh_state(space, [((1, 0), 1.0)]))


def test_negation_is_the_bytes_of_numpy_negation():
    rng = np.random.default_rng(21)
    signed_zeros = [complex(x, y) for x, y in itertools.product((0.0, -0.0), repeat=2)]
    for dims in ((2,), (3, 5), (64, 64)):
        space = FockSpace(dims)
        for amps in (random_amplitudes(rng, space.dim, zeros=space.dim // 2),
                     np.resize(signed_zeros, space.dim)):
            v = FockVector(space, amps)
            negated = -v
            assert same_bits(negated.amplitudes, -v.amplitudes)
            assert negated.space is v.space and not negated.amplitudes.flags.writeable
            assert not np.shares_memory(negated.amplitudes, v.amplitudes)


def test_tables_are_bounded():
    for table in TABLES:
        assert 0 < table.cache_info().maxsize <= 32, table


def test_a_space_a_table_still_holds_stays_the_shared_one():
    # the fixed-state table can hold a space after the 32-entry space table let it go
    held = ground_state(_space((16, 16))).space
    for nmax in range(2, 60):
        _space((nmax,))
    assert held is _space((16, 16)) is ground_state(FockSpace((16, 16))).space


def test_builds_share_spaces_and_the_empty_path(monkeypatch):
    specs = [ScenarioSpec(Config.B, beta=0.3, nmax=24),
             ScenarioSpec(Config.B, beta=0.1, treatment=Treatment.FIRST_ORDER, nmax=24),
             ScenarioSpec(Config.D, beta=0.2, alpha=0.4, nmax=24),
             ScenarioSpec(Config.C1, beta=0.2, nmax=24)]
    warm = [build(spec) for spec in specs]
    constructed = []
    original = FockSpace.__init__
    monkeypatch.setattr(FockSpace, "__init__",
                        lambda self, dims: constructed.append(self) or original(self, dims))
    again = [build(spec) for spec in specs]
    assert constructed == []
    assert again[0].space is again[1].space is warm[0].space
    assert again[2].space is warm[2].space and again[3].space is warm[3].space
    two_mode = [build(ScenarioSpec(config, beta=0.1, nmax=24)).space
                for config in (Config.B, Config.E, Config.D)]
    assert two_mode[0] is two_mode[1] is two_mode[2] is warm[0].space
    assert coherent_state(0.3, 24).space is coherent_state(-0.1j, 24).space
    factors = [ground_state(FockSpace((3,))), ground_state(FockSpace((4,)))]
    assert _product(factors).space is _product(factors).space
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
                assert same_bits(projector._image(v, {}).amplitudes,
                                 reference_image(space, u, v.amplitudes)), name


def projector_state(name, space):
    """The shared state a named projector's column should be a view of."""
    nmax = space.mode_dims[0]
    if name in ("sym", "antisym"):
        long_e = build(ScenarioSpec(Config.E, Pulse.LONG, beta=0.2, nmax=nmax))
        return long_e.components[1 if name == "sym" else 2].psi1
    levels = {"ground": (0,) * space.nmodes, "single_atom_0": (0,), "single_atom_1": (1,),
              "atom1_excited": (1, 0), "atom2_excited": (0, 1)}
    return basis_state(space, levels[name])


@pytest.mark.parametrize("nmax", [2, 16, 64])
@pytest.mark.parametrize("nmodes", [1, 2])
def test_named_projectors_are_shared_read_only_views_of_the_shared_states(nmax, nmodes):
    space = FockSpace((nmax,) * nmodes)
    names = [n for n in PROJECTOR_NAMES
             if n == "ground" or n.startswith("single") == (nmodes == 1)]
    rng = np.random.default_rng(nmax * nmodes)
    vectors = [random_amplitudes(rng, space.dim, zeros=space.dim // 2) for _ in range(4)]
    vectors += [-v for v in vectors] + [np.full(space.dim, complex(-0.0, 0.0))]
    others = {id(v): v for v in (state() for _, state, _ in fixed_states(space))}.values()
    for name in names:
        projector = named_projector(name, space)
        assert named_projector(name, FockSpace(space.mode_dims)) is projector
        assert projector.space is _space(space.mode_dims) and projector.name == name
        u = projector.columns
        state = projector_state(name, space)
        assert same_bits(u, state.amplitudes[:, None])
        assert not u.flags.writeable and not projector._adjoint.flags.writeable
        # the column is the shared state itself, and U^dag a view of it: the column is
        # real, so its transpose takes U^dag v to the bytes of the conjugate's
        assert np.shares_memory(u, state.amplitudes)
        assert np.shares_memory(projector._adjoint, u)
        for v in vectors:
            assert same_bits(np.dot(projector._adjoint, v), u.conj().T @ v), name
        assert sum(np.shares_memory(u, other.amplitudes) for other in others) == 1, name


def test_a_complex_custom_column_keeps_a_conjugate_copy():
    space = FockSpace((16, 16))
    rng = np.random.default_rng(5)
    column = random_amplitudes(rng, space.dim, zeros=space.dim // 3)
    projector = Projector(space, column[:, None] / np.linalg.norm(column))
    u = projector.columns
    assert same_bits(projector._adjoint, u.conj().T)
    assert not projector._adjoint.flags.writeable
    assert not np.shares_memory(projector._adjoint, u)


def traced_peak(run):
    """tracemalloc peak of run(), from a reset peak, tracing only for the call unless
    tracing already."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        if started:
            tracemalloc.stop()


def test_named_projectors_of_tabled_sector_states_allocate_no_array():
    space = FockSpace((64, 64))
    names = [name for name in PROJECTOR_NAMES if not name.startswith("single")]
    for name in names:
        _sector(name, space)  # each column's state already in its table
    _named_projector.cache_clear()
    peak = traced_peak(lambda: [named_projector(name, space) for name in names])
    assert len(names) == 5
    assert peak < space.dim * np.dtype(np.complex128).itemsize  # one 64 KiB array


def test_projector_columns_share_no_memory_with_the_callers_array():
    space = FockSpace((16, 16))
    columns = np.zeros((space.dim, 1), dtype=np.complex128)
    columns[space.index((1, 0))] = 1.0
    projector = Projector(space, columns)
    assert not np.shares_memory(projector.columns, columns)
    v = FockVector(space, columns[:, 0])
    assert not np.shares_memory(v.amplitudes, columns)
    for name in ("ground", "atom1_excited"):
        image = named_projector(name, space)._image(v, {})
        assert not np.shares_memory(image.amplitudes, columns)
        assert not np.shares_memory(named_projector(name, space).columns, columns)


def test_custom_projector_block_matches_matmul():
    space = FockSpace((16, 16))
    rng = np.random.default_rng(3)
    columns, _ = np.linalg.qr(rng.normal(size=(space.dim, 3))
                              + 1j * rng.normal(size=(space.dim, 3)))
    projector = Projector(space, columns)
    for _ in range(5):
        v = FockVector(space, random_amplitudes(rng, space.dim))
        expected = columns @ (columns.conj().T @ v.amplitudes)
        assert np.max(np.abs(projector._image(v, {}).amplitudes - expected)) < 1e-15


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
                assert same_bits(image.amplitudes, projector._image(path, {}).amplitudes)
                if projector.columns.shape[1] == 1:
                    u_ = projector.columns
                    assert same_bits(image.amplitudes, reference_image(space, u_, path.amplitudes))
        assert post == mean_intensity(cm) / mean_intensity(m)


# --- norms known without a dense sum -------------------------------------------

# Amplitudes that stress a sum of squares: signed zeros, subnormals, and parts
# whose squares underflow to subnormals.
EDGE_AMPLITUDES = [complex(x, y) for x, y in itertools.product(
    (0.0, -0.0, 5e-324, -2.5e-320, 1e-160, -3.3e-155), repeat=2)]
SINGLE_ENTRY_PROJECTORS = {1: ("ground", "single_atom_0", "single_atom_1"),
                           2: ("ground", "atom1_excited", "atom2_excited")}


def edge_vectors(rng, space, level):
    """Dense random vectors at scales 1 and 1e+-100, each also with every edge
    amplitude written at `level`."""
    vectors = []
    for scale in (1.0, 1e-100, 1e100):
        amps = scale * random_amplitudes(rng, space.dim, zeros=space.dim // 4)
        vectors.append(FockVector(space, amps))
        for z in EDGE_AMPLITUDES[:: 1 if scale == 1.0 else 5]:
            amps[level] = z
            vectors.append(FockVector(space, amps))
    return vectors


@pytest.mark.parametrize("nmax", [2, 16, 64, 171])
@pytest.mark.parametrize("nmodes", [1, 2])
def test_single_entry_projector_images_carry_the_dense_norm(nmax, nmodes):
    space = FockSpace((nmax,) * nmodes)
    rng = np.random.default_rng(nmax * nmodes)
    for name in SINGLE_ENTRY_PROJECTORS[nmodes]:
        projector = named_projector(name, space)
        level = int(np.flatnonzero(projector.columns[:, 0])[0])
        vectors = edge_vectors(rng, space, level)
        cm, _ = condition(TwoPathMixture(tuple(TwoPathComponent(v, v) for v in vectors)),
                          projector)
        images = [projector._image(v, {}) for v in vectors] + [c.psi1 for c in cm.components]
        for image in images:
            assert "_norm" in image.__dict__, name  # known before any dense sum
            assert same_bits(np.float64(image.norm()),
                             reference_norm(space, image.amplitudes)), name


@pytest.mark.parametrize("nmax", [2, 16, 17, 64])
@pytest.mark.parametrize("nmodes", [1, 2])
def test_only_a_one_term_sector_at_one_takes_the_known_norm(nmax, nmodes):
    space = FockSpace((nmax,) * nmodes)
    taken = []
    for name in PROJECTOR_NAMES:
        try:
            projector = named_projector(name, space)
        except ValueError:  # a projector for the other marker space
            continue
        taken.append(name)
        one_term_at_one = [amplitude for _, amplitude in _SECTORS[name]] == [1.0]
        assert one_term_at_one == (name in SINGLE_ENTRY_PROJECTORS[nmodes]), name
        assert projector._single is one_term_at_one, name
    assert len(taken) == (3 if nmodes == 1 else 5)


@pytest.mark.parametrize("dims", [(16,), (17,), (64, 64)])
def test_constructed_one_hot_projector_images_sum_their_norms_densely(dims):
    space = FockSpace(dims)
    rng = np.random.default_rng(sum(dims))
    level = space.dim // 3
    column = np.zeros((space.dim, 1), dtype=np.complex128)
    column[level] = 1.0
    projector = Projector(space, column)
    for v in edge_vectors(rng, space, level):
        image = projector._image(v, {})
        assert "_norm" not in image.__dict__  # summed densely when first read
        assert same_bits(np.float64(image.norm()), reference_norm(space, image.amplitudes))


@pytest.mark.parametrize("nmax", [2, 16, 64])
def test_sym_and_antisym_images_sum_their_norms_densely(nmax):
    space = FockSpace((nmax, nmax))
    rng = np.random.default_rng(nmax)
    i10 = space.index((1, 0))
    for name in ("sym", "antisym"):
        projector = named_projector(name, space)
        for v in edge_vectors(rng, space, i10):
            image = projector._image(v, {})
            assert "_norm" not in image.__dict__, name
            assert same_bits(np.float64(image.norm()), reference_norm(space, image.amplitudes)), name


@pytest.mark.parametrize("dims", [(2,), (16,), (171,), (64, 64)])
def test_negation_carries_the_norm_whether_known_before_or_after(dims):
    space = FockSpace(dims)
    rng = np.random.default_rng(sum(dims))
    for v in edge_vectors(rng, space, space.dim - 1):
        expected = reference_norm(space, -v.amplitudes)
        known = v  # the public constructor computes the norm
        assert same_bits(np.float64((-known).norm()), expected)
        unknown = FockVector._wrap(space, v.amplitudes)
        negated = -unknown
        assert "_norm" not in negated.__dict__
        assert same_bits(np.float64(negated.norm()), expected)
        assert same_bits(np.float64(unknown.norm()), reference_norm(space, v.amplitudes))
        assert same_bits(np.float64((-unknown).norm()), expected)


def test_rotated_paths_sum_their_norms_densely():
    rng = np.random.default_rng(17)
    transforms = [lambda m: apply_eraser(m), lambda m: apply_eraser(m, inverse=True),
                  lambda m: evolve_beat(m, 0.8, 0.37)]
    for dims in ((2, 2), (16, 16), (64, 64)):
        space = FockSpace(dims)
        for _ in range(20):
            # the constructor computes each path's norm before the rotation
            psi1, psi2 = (FockVector(space, random_amplitudes(rng, space.dim)) for _ in range(2))
            m = TwoPathMixture((TwoPathComponent(psi1, psi2),))
            for transform in transforms:
                for path in (transform(m).components[0].psi1, transform(m).components[0].psi2):
                    assert same_bits(np.float64(path.norm()),
                                     reference_norm(space, path.amplitudes))


# --- builders ----------------------------------------------------------------


def _kron(*factors):
    amps = factors[0]
    for f in factors[1:]:
        amps = reference_kron(FockSpace((len(amps), len(f))), amps, f)
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
        c0 = math.sqrt(1.0 - (beta.real * beta.real + beta.imag * beta.imag))
        return e(one, (0,)) * complex(c0) + e(one, (1,)) * complex(beta)

    def first_order_b():
        c0 = math.sqrt(1.0 - (b.real * b.real + b.imag * b.imag))
        return (e(two, (0, 0)) * complex(c0) + e(two, (1, 0)) * complex(b),
                e(two, (0, 0)) * complex(c0) + e(two, (0, 1)) * complex(b))

    lane = (spec.config, spec.pulse, spec.treatment)
    if lane == (Config.B, Pulse.SHORT, Treatment.EXACT):
        k, still = coherent_state(b, nmax).amplitudes, coherent_state(0, nmax).amplitudes
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
        common = coherent_state(spec.alpha, nmax).amplitudes
        return [(_kron(common, kicked(b)), _kron(common, kicked(-b)), FreqTag.ELASTIC, w)]
    if lane[:2] == (Config.E, Pulse.LONG):
        b2 = b.real * b.real + b.imag * b.imag
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
        if treatment is Treatment.EXACT and nmax == 2 and beta != 0:
            # two levels drop far more than 1e-10 of any nonzero exact kick
            with pytest.raises(TruncationError, match="coherent amplitude beta"):
                build(spec)
            continue
        got = build(spec).components
        expected = reference_paths(spec)
        assert len(got) == len(expected)
        for c, (psi1, psi2, tag, weight) in zip(got, expected):
            assert same_bits(c.psi1.amplitudes, psi1)
            assert same_bits(c.psi2.amplitudes, psi2)
            assert (c.tag, c.weight) == (tag, weight)


# --- pattern -------------------------------------------------------------------


def reference_samples(space, d, c, phis):
    """d + 2 Re(c e^{i phi}) clipped at zero: numpy's complex product, or on a space of the
    scalar engine Re(c e^{i phi}) from float64 parts."""
    e = np.exp(1j * phis)
    re = c.real * e.real - c.imag * e.imag if _scalar(space) else np.real(c * e)
    return np.clip(d + 2.0 * re, 0.0, None)


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
            expected = reference_samples(m.space, d, c, phis)
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
    # the scalar engine's lists: the same grid, and cos + i sin with exp's bits
    values = _unit_circle(nsamples, True)
    assert same_bits(np.array(values[0]), fresh) and same_bits(np.array(values[1]), circle)
    assert _unit_circle(nsamples, True) is values


def test_interleaved_sample_counts_give_identical_bytes():
    m = build(ScenarioSpec(Config.B, beta=0.3 + 0.1j))
    d, c = mean_intensity(m), coherence_sum(m)
    # more distinct counts than the table holds, each asked for again later
    counts = [16, 256, 1000, 65536, 17, 64] + list(range(20, 32)) + [256, 16, 1000, 17]
    for nsamples in counts:
        phis = 2.0 * np.pi * np.arange(nsamples) / nsamples
        scan = pattern(m, nsamples)
        assert same_bits(scan.phis, phis)
        assert same_bits(scan.intensities, reference_samples(m.space, d, c, phis))


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


def _chain(regime):
    """build -> eraser or beat -> dispersive -> condition -> pattern at nmax 64."""
    config, pulse, treatment = regime
    spec = ScenarioSpec(config, pulse, beta=0.3 + 0.1j, treatment=treatment, nmax=64,
                        alpha=0.5 if config == "D" else 0j)
    m = build(spec)
    if m.space.nmodes == 2:
        m = evolve_beat(m, 0.7, 0.9) if config == "E" else apply_eraser(m)
    if pulse == "long":
        m = apply_dispersive(m, [FreqTag.SHIFTED, FreqTag.ANTISYM])
    m, _ = condition(m, named_projector("ground", m.space))
    pattern(m)


def chain_peak_bytes(regime, warm):
    """tracemalloc peak of one chain: after clearing every table (cold), or after
    the same chain has filled them (warm), whatever the tests before it ran."""
    for table in TABLES:
        table.cache_clear()
    if warm:
        _chain(regime)
    return traced_peak(lambda: _chain(regime))


@pytest.mark.parametrize("regime", REGIMES, ids=lambda r: "-".join(filter(None, r)))
def test_chain_at_nmax_64_peaks_below_5_mb(regime):
    assert chain_peak_bytes(regime, warm=False) < PEAK_LIMIT_BYTES
    assert chain_peak_bytes(regime, warm=True) < PEAK_LIMIT_BYTES


# A long pulse holds its ground, excited and empty path states side by side.
# Unchanged path states are kept and equal projections shared. Cold, the chain
# also fills the tables, 9 arrays of 64 KiB (0.57 MiB); copying every path
# state at every stage took 14 (0.88 MiB). Warm, it allocates only the states
# the transforms and the projection make, 5 arrays (0.32 MiB).
LONG_PULSE_PEAK_LIMIT_BYTES = 0.7 * 2**20
WARM_LONG_PULSE_PEAK_LIMIT_BYTES = 0.4 * 2**20


@pytest.mark.parametrize("config", ["B", "E"])
def test_long_pulse_chain_at_nmax_64_peaks_below_0_7_mib(config):
    assert chain_peak_bytes((config, "long", None), warm=False) < LONG_PULSE_PEAK_LIMIT_BYTES
    assert chain_peak_bytes((config, "long", None), warm=True) < LONG_PULSE_PEAK_LIMIT_BYTES


@pytest.mark.parametrize("config", ["B", "E"])
def test_warm_long_pulse_chain_at_nmax_64_peaks_below_0_4_mib(config):
    assert chain_peak_bytes((config, "long", None), warm=True) < WARM_LONG_PULSE_PEAK_LIMIT_BYTES
