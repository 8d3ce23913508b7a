import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomslits.errors import SpaceMismatchError, TruncationError
from atomslits.fockspace import (
    FockSpace,
    FockVector,
    basis_state,
    coherent_state,
    displacement_operator,
    ground_state,
    inner,
    project,
    tensor,
)


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
    with pytest.raises(ValueError):
        FockSpace((3, 3), ("only_one",))


def test_vector_is_frozen_and_checked():
    space = FockSpace((3,))
    v = basis_state(space, (1,))
    with pytest.raises(ValueError):
        v.amplitudes[0] = 5.0
    with pytest.raises(ValueError):
        FockVector(space, np.ones(4))


def test_coherent_zero_displacement_is_ground():
    vec, residual = coherent_state(0, 8)
    assert vec.amplitudes[0] == 1.0
    assert np.all(vec.amplitudes[1:] == 0.0)
    assert residual == 0.0


def test_coherent_overlap_matches_closed_form():
    # the analytic overlap law |<delta|beta>|^2 = exp(-|delta - beta|^2) is the
    # independent reference for the truncated-series construction
    delta, beta = 0.5, 0.2
    vd, _ = coherent_state(delta, 20)
    vb, _ = coherent_state(beta, 20)
    p = abs(inner(vd, vb)) ** 2
    assert abs(p - math.exp(-abs(delta - beta) ** 2)) < 1e-10


def test_opposite_coherent_overlap_frozen_value():
    vb, _ = coherent_state(0.3, 20)
    vm, _ = coherent_state(-0.3, 20)
    p = abs(inner(vm, vb)) ** 2
    assert abs(p - math.exp(-4 * 0.3**2)) < 1e-10
    assert abs(p - 0.6976763260710304) < 1e-12  # exp(-0.36)


@pytest.mark.parametrize("delta", [0.0, 0.2, -0.2, 0.5, -0.5, 0.3j])
@pytest.mark.parametrize("beta", [0.0, 0.2, -0.2, 0.5, -0.5, 0.3j])
def test_overlap_law_grid(delta, beta):
    vd, _ = coherent_state(delta, 16)
    vb, _ = coherent_state(beta, 16)
    p = abs(inner(vd, vb)) ** 2
    assert abs(p - math.exp(-abs(delta - beta) ** 2)) < 1e-8


def test_coherent_truncation_residual_reported():
    _, residual = coherent_state(2.0, 8)
    # Poisson tail mass above n = 8 at mean 4
    assert 0.01 < residual < 0.1
    _, tiny = coherent_state(0.3, 16)
    assert tiny < 1e-20


def test_truncation_guards():
    with pytest.raises(ValueError):
        coherent_state(0.1, 1)
    with pytest.raises(TruncationError):
        coherent_state(5.0, 16)
    with pytest.raises(TruncationError):
        displacement_operator(5.0, 16)
    # 170! is the largest float64 factorial: levels >= 171 are refused, and a
    # huge request fails before anything is allocated
    assert coherent_state(0.3, 171)[0].amplitudes[170] != 0.0
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
    amps = math.exp(-abs(beta) ** 2 / 2.0) * beta**n / np.sqrt(exact)
    reference = amps / math.sqrt(float(np.vdot(amps, amps).real))
    vec, _ = coherent_state(beta, nmax)
    assert np.array_equal(vec.amplitudes, reference)


def test_displacement_identity_at_zero():
    assert np.allclose(displacement_operator(0, 6), np.eye(6), atol=1e-14)


def test_displacement_matches_coherent_series():
    beta, nmax = 0.2, 16
    d = displacement_operator(beta, nmax)
    from_operator = d @ basis_state(FockSpace((nmax,)), (0,)).amplitudes
    from_series, _ = coherent_state(beta, nmax)
    assert np.max(np.abs(from_operator - from_series.amplitudes)) < 1e-8


def test_displacement_preserves_norm():
    rng = np.random.default_rng(3)
    v = rng.normal(size=16) + 1j * rng.normal(size=16)
    d = displacement_operator(0.4j, 16)
    assert abs(np.linalg.norm(d @ v) - np.linalg.norm(v)) < 1e-9


def test_displacement_composition_inverts():
    d = displacement_operator(0.3, 16) @ displacement_operator(-0.3, 16)
    assert np.max(np.abs(d - np.eye(16))) < 1e-8


def test_tensor_ground_states():
    v = tensor([ground_state(FockSpace((3,))), ground_state(FockSpace((4,)))])
    assert v.space.mode_dims == (3, 4)
    assert v.amplitudes[0] == 1.0
    assert np.all(v.amplitudes[1:] == 0.0)


def test_tensor_respects_index_order():
    a = basis_state(FockSpace((2,)), (1,))
    b = basis_state(FockSpace((3,)), (0,))
    v = tensor([a, b])
    assert v.amplitudes[v.space.index((1, 0))] == 1.0
    with pytest.raises(ValueError):
        tensor([])


def test_inner_is_sesquilinear_and_positive():
    space = FockSpace((4,))
    v = 0.6 * basis_state(space, (0,)) + (0.3 + 0.4j) * basis_state(space, (2,))
    self_overlap = inner(v, v)
    assert self_overlap.imag == 0.0
    assert abs(self_overlap.real - v.norm() ** 2) < 1e-14
    w = 1j * v
    assert abs(inner(v, w) - 1j * self_overlap) < 1e-14
    with pytest.raises(SpaceMismatchError):
        inner(v, ground_state(FockSpace((5,))))


def test_project_picks_single_level():
    space = FockSpace((3, 3))
    beta = 0.3
    v = basis_state(space, (0, 0)) + beta * basis_state(space, (1, 0))
    picked, prob = project(v, 0, 1)
    assert abs(prob - beta**2) < 1e-14
    assert picked.amplitudes[space.index((1, 0))] == beta
    assert picked.norm() ** 2 == pytest.approx(beta**2)


def test_project_range_errors():
    v = ground_state(FockSpace((3, 3)))
    with pytest.raises(ValueError):
        project(v, 2, 0)
    with pytest.raises(ValueError):
        project(v, 0, 3)


def test_truncation_convergence():
    for beta in (0.2, 0.5):
        lo, _ = coherent_state(beta, 16)
        hi, _ = coherent_state(beta, 20)
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
    vb, _ = coherent_state(b, 20)
    vd, _ = coherent_state(d, 20)
    assert abs(abs(inner(vd, vb)) ** 2 - math.exp(-abs(d - b) ** 2)) < 1e-8
