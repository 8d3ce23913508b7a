import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomslits.errors import ScenarioError, SpaceMismatchError, TruncationError
from atomslits.fockspace import (
    FockSpace,
    FockVector,
    _product,
    basis_state,
    coherent_state,
    displacement_operator,
    ground_state,
    inner,
)
from atomslits.spec import Config, ScenarioSpec, _poisson_tail
from atomslits.twopath import Projector, TwoPathComponent, TwoPathMixture, condition, pattern


def test_space_dim_and_index_convention():
    space = FockSpace((2, 3))
    assert space.dim == 6
    # first listed mode is slowest
    assert space.index((1, 0)) == 3
    assert space.index((0, 2)) == 2


def test_space_rejects_degenerate_modes():
    with pytest.raises(ValueError):
        FockSpace((1, 4))
    with pytest.raises(ValueError):
        FockSpace(())


def test_vector_is_frozen_and_checked():
    space = FockSpace((3,))
    v = basis_state(space, (1,))
    with pytest.raises(ValueError):
        v.amplitudes[0] = 5.0
    with pytest.raises(ValueError):
        FockVector(space, np.ones(4))


def test_coherent_zero_displacement_is_ground():
    vec = coherent_state(0, 8)
    assert vec.amplitudes[0] == 1.0
    assert np.all(vec.amplitudes[1:] == 0.0)
    assert _poisson_tail(0.0, 8) == 0.0


def test_coherent_overlap_matches_closed_form():
    # the analytic overlap law |<delta|beta>|^2 = exp(-|delta - beta|^2) is the
    # independent reference for the truncated-series construction
    delta, beta = 0.5, 0.2
    vd = coherent_state(delta, 20)
    vb = coherent_state(beta, 20)
    p = abs(inner(vd, vb)) ** 2
    assert abs(p - math.exp(-abs(delta - beta) ** 2)) < 1e-10


def test_opposite_coherent_overlap_frozen_value():
    vb = coherent_state(0.3, 20)
    vm = coherent_state(-0.3, 20)
    p = abs(inner(vm, vb)) ** 2
    assert abs(p - math.exp(-4 * 0.3**2)) < 1e-10
    assert abs(p - 0.6976763260710304) < 1e-12  # exp(-0.36)


@pytest.mark.parametrize("delta", [0.0, 0.2, -0.2, 0.5, -0.5, 0.3j])
@pytest.mark.parametrize("beta", [0.0, 0.2, -0.2, 0.5, -0.5, 0.3j])
def test_overlap_law_grid(delta, beta):
    vd = coherent_state(delta, 16)
    vb = coherent_state(beta, 16)
    p = abs(inner(vd, vb)) ** 2
    assert abs(p - math.exp(-abs(delta - beta) ** 2)) < 1e-8


def test_coherent_truncation_residual_reported():
    # the mass the cutoff drops is spec's Poisson tail: above n = 8 at mean 4
    assert 0.01 < _poisson_tail(2.0**2, 8) < 0.1
    assert _poisson_tail(0.3**2, 16) < 1e-20


@settings(max_examples=300)
@given(nmax=st.integers(2, 171), share=st.floats(0.0, 0.999), theta=st.floats(0.0, 6.3))
def test_poisson_tail_is_the_residual_of_the_coherent_series(nmax, share, theta):
    # the scalar tail that spec refuses by, against 1 - sum |c_n|^2 of the series before
    # coherent_state renormalizes it
    beta = cmath.rect(math.sqrt(share * nmax), theta)
    b2 = beta.real * beta.real + beta.imag * beta.imag
    n = np.arange(nmax)
    series = math.exp(-b2 / 2.0) * beta**n / np.sqrt(np.cumprod(np.maximum(n, 1), dtype=float))
    residual = max(0.0, 1.0 - float(np.vdot(series, series).real))
    assert abs(residual - _poisson_tail(b2, nmax)) <= 1e-12


def test_poisson_tail_matches_the_regularized_gamma_function():
    # P(N >= nmax) of a Poisson N of mean x is the regularized lower gamma P(nmax, x)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for nmax in (2, 5, 16, 40, 100, 170, 171):
            for share in (1e-3, 0.05, 0.2, 0.35, 0.5, 0.8, 1.0):
                x = share * nmax
                exact = float(mpmath.gammainc(nmax, 0, x, regularized=True))
                if exact > 1e-290:
                    assert abs(_poisson_tail(x, nmax) - exact) <= 1e-12 * exact, (nmax, x)
    assert _poisson_tail(0.0, 16) == 0.0


def test_truncation_guards():
    with pytest.raises(ValueError):
        coherent_state(0.1, 1)
    with pytest.raises(TruncationError):
        coherent_state(5.0, 16)
    with pytest.raises(TruncationError):
        displacement_operator(5.0, 16)
    # 170! is the largest float64 factorial: levels >= 171 are refused, and a
    # huge request fails before anything is allocated
    assert coherent_state(0.3, 171).amplitudes[170] != 0.0
    for nmax in (172, 10**12):
        with pytest.raises(TruncationError):
            coherent_state(0.1, nmax)
        with pytest.raises(TruncationError):
            displacement_operator(0.1, nmax)


def test_coherent_series_uses_exact_factorials():
    # reference: the series with n! from exact integers, rounded once to float;
    # up to level 24 the implementation's float factorial must match it bit for bit
    beta, nmax = 0.7 - 0.2j, 25
    n = np.arange(nmax)
    exact = np.array([float(math.factorial(k)) for k in range(nmax)])
    b2 = beta.real * beta.real + beta.imag * beta.imag
    amps = math.exp(-b2 / 2.0) * beta**n / np.sqrt(exact)
    reference = amps / math.sqrt(float(np.vdot(amps, amps).real))
    vec = coherent_state(beta, nmax)
    assert np.array_equal(vec.amplitudes, reference)


def test_displacement_identity_at_zero():
    assert np.allclose(displacement_operator(0, 6), np.eye(6), atol=1e-14)


def test_displacement_matches_coherent_series():
    beta, nmax = 0.2, 16
    d = displacement_operator(beta, nmax)
    from_operator = d @ basis_state(FockSpace((nmax,)), (0,)).amplitudes
    from_series = coherent_state(beta, nmax)
    assert np.max(np.abs(from_operator - from_series.amplitudes)) < 1e-8


def test_displacement_preserves_norm():
    rng = np.random.default_rng(3)
    v = rng.normal(size=16) + 1j * rng.normal(size=16)
    d = displacement_operator(0.4j, 16)
    assert abs(np.linalg.norm(d @ v) - np.linalg.norm(v)) < 1e-9


def test_displacement_composition_inverts():
    d = displacement_operator(0.3, 16) @ displacement_operator(-0.3, 16)
    assert np.max(np.abs(d - np.eye(16))) < 1e-8


def test_inner_is_sesquilinear_and_positive():
    space = FockSpace((4,))
    v = FockVector(space, [0.6, 0.0, 0.3 + 0.4j, 0.0])
    self_overlap = inner(v, v)
    assert self_overlap.imag == 0.0
    assert abs(self_overlap.real - v.norm() ** 2) < 1e-14
    w = FockVector(space, 1j * v.amplitudes)
    assert abs(inner(v, w) - 1j * self_overlap) < 1e-14
    with pytest.raises(SpaceMismatchError):
        inner(v, ground_state(FockSpace((5,))))


def test_truncation_convergence():
    for beta in (0.2, 0.5):
        lo = coherent_state(beta, 16)
        hi = coherent_state(beta, 20)
        assert np.max(np.abs(lo.amplitudes - hi.amplitudes[:16])) < 1e-10


_small = st.floats(-1.4, 1.4, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(re=_small, im=_small)
def test_displacement_unitary_hypothesis(re, im):
    # |beta|^2 <= 3.92 < nmax/4 with nmax = 16
    beta = complex(re, im)
    rng = np.random.default_rng(11)
    v = rng.normal(size=16) + 1j * rng.normal(size=16)
    d = displacement_operator(beta, 16)
    ratio = np.linalg.norm(d @ v) / np.linalg.norm(v)
    assert abs(ratio - 1.0) < 1e-8


@settings(max_examples=60, deadline=None)
@given(
    b=st.floats(-1.0, 1.0, allow_nan=False),
    d=st.floats(-1.0, 1.0, allow_nan=False),
)
def test_overlap_law_hypothesis(b, d):
    vb = coherent_state(b, 20)
    vd = coherent_state(d, 20)
    assert abs(abs(inner(vd, vb)) ** 2 - math.exp(-abs(d - b) ** 2)) < 1e-8


# --- adopted arrays and cached values -------------------------------------


def test_public_constructor_copies_the_callers_array():
    space = FockSpace((3,))
    source = np.array([1.0, 2.0, 3.0], dtype=np.complex128)
    v = FockVector(space, source)
    assert not np.shares_memory(source, v.amplitudes)
    assert v.norm() == float(np.linalg.norm(source))
    source[0] = 99.0
    assert v.amplitudes[0] == 1.0
    assert source.flags.writeable


def test_library_vectors_are_read_only_with_exact_cached_norm():
    space = FockSpace((3, 4))
    a = basis_state(space, (1, 2))
    b = FockVector(space, np.arange(12) * (0.5 + 0.25j))
    # the image condition() gives of b on the levels with the second mode at 2
    level_2 = Projector(space, np.eye(12)[:, [2, 6, 10]])
    picked = condition(TwoPathMixture((TwoPathComponent(b, b),)), level_2)[0].components[0].psi1
    results = [
        a,
        ground_state(space),
        -b,
        coherent_state(0.4 + 0.1j, 9),
        _product([coherent_state(0.2, 3), basis_state(FockSpace((4,)), (1,))]),
        picked,
    ]
    for v in results:
        assert not v.amplitudes.flags.writeable
        assert v.amplitudes.dtype == np.complex128
        assert v.amplitudes.shape == (v.space.dim,)
        assert v.norm() == float(np.linalg.norm(v.amplitudes))


def test_vectors_refuse_scaling_and_addition():
    v = basis_state(FockSpace((2,)), (0,))
    with pytest.raises(TypeError):
        v * math.nan
    with pytest.raises(TypeError):
        v + v


def test_index_is_row_major_and_refuses_like_ravel_multi_index():
    space = FockSpace((3, 4, 2))
    for occ in np.ndindex(*space.mode_dims):
        flat = space.index(occ)
        assert type(flat) is int
        assert flat == np.ravel_multi_index(occ, space.mode_dims)
    assert space.index((np.int64(2), 3, 1)) == space.dim - 1
    for bad in ((3, 0, 0), (0, -1, 0), (0, 0, 2)):
        with pytest.raises(ValueError, match="invalid entry in coordinates array"):
            space.index(bad)
    with pytest.raises(ValueError, match="sequence of length 3"):
        space.index((1, 1))
    with pytest.raises(TypeError):
        space.index((1.0, 0, 0))


def test_cached_dim_leaves_equality_and_hash_alone():
    fresh = FockSpace((5, 6))
    used = FockSpace((5, 6))
    assert used.dim == 30
    assert used == fresh and hash(used) == hash(fresh)
    assert FockSpace((5, 7)) != used


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.1, math.nan)])
def test_public_vector_refuses_non_finite_amplitudes(bad):
    amps = np.zeros(4, dtype=np.complex128)
    amps[2] = bad
    with pytest.raises(ValueError, match="finite"):
        FockVector(FockSpace((4,)), amps)


@pytest.mark.parametrize("beta", [math.nan, complex(math.nan, 0.1), complex(0.2, math.nan)])
def test_truncation_guard_names_a_nan_amplitude(beta):
    for make in (coherent_state, displacement_operator):
        with pytest.raises(ValueError, match="not a number") as info:
            make(beta, 8)
        assert type(info.value) is ValueError
        assert "nan" in str(info.value)


def test_a_count_that_is_no_whole_number_is_refused():
    # 16.5 levels once gave 17 amplitudes on a 16-level space, and 16.5 phases 17 samples
    for nmax in (16.5, 2.5, math.nan):
        for call in (lambda: coherent_state(0.5, nmax), lambda: displacement_operator(0.5, nmax),
                     lambda: ScenarioSpec(Config.B, nmax=nmax)):
            with pytest.raises(ScenarioError, match="whole number") as exc:
                call()
            assert exc.value.field == "nmax"
    with pytest.raises(TruncationError, match="exceeds 171"):
        ScenarioSpec(Config.B, nmax=math.inf)
    g = ground_state(FockSpace((4,)))
    m = TwoPathMixture([TwoPathComponent(g, g)])
    for nsamples in (16.5, math.nan, math.inf, np.float64(31.5)):
        with pytest.raises(ScenarioError, match="whole number") as exc:
            pattern(m, nsamples)
        assert exc.value.field == "nsamples"
    # a whole float or a numpy integer keeps the bytes of the int
    state = coherent_state(0.5 + 0.25j, 16)
    for nmax in (16.0, np.int64(16)):
        same = coherent_state(0.5 + 0.25j, nmax)
        assert same.amplitudes.tobytes() == state.amplitudes.tobytes()
        assert _poisson_tail(0.3125, nmax) == _poisson_tail(0.3125, 16)  # |0.5+0.25j|^2
        assert ScenarioSpec(Config.B, nmax=nmax) == ScenarioSpec(Config.B, nmax=16)
    for nsamples in (32.0, np.int64(32)):
        assert pattern(m, nsamples).intensities.tobytes() == pattern(m, 32).intensities.tobytes()
