import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomslits.errors import EmptyPatternError, SpaceMismatchError
from atomslits.fockspace import FockSpace, FockVector, basis_state, coherent_state, zero_vector
from atomslits.twopath import (
    FreqTag,
    Projector,
    TwoPathComponent,
    TwoPathMixture,
    coherence_sum,
    condition,
    mean_intensity,
    pattern,
    phase_offset,
    visibility,
)

SPACE = FockSpace((4,))
B0 = basis_state(SPACE, (0,))
B1 = basis_state(SPACE, (1,))


def vec(*amps):
    """The state of SPACE with these leading amplitudes, zero above them."""
    return FockVector(SPACE, list(amps) + [0.0] * (SPACE.dim - len(amps)))


def single(psi1, psi2, tag=FreqTag.ELASTIC, weight=1.0):
    return TwoPathMixture((TwoPathComponent(psi1, psi2, tag, weight),))


def test_identical_paths_full_contrast():
    scan = pattern(single(B0, B0), 64)
    assert scan.visibility == pytest.approx(1.0, abs=1e-12)
    assert scan.phase_offset == 0.0
    assert np.all(scan.intensities >= 0.0)
    assert abs(scan.sampled_visibility() - scan.visibility) < 1e-6


def test_single_path_is_flat():
    scan = pattern(single(B0, zero_vector(SPACE)), 32)
    assert scan.visibility == 0.0
    assert np.max(scan.intensities) - np.min(scan.intensities) < 1e-15


def test_opposite_coherent_paths_visibility():
    beta = 0.3
    plus, _ = coherent_state(beta, 16)
    minus, _ = coherent_state(-beta, 16)
    v = visibility(single(plus, minus))
    assert abs(v - math.exp(-2 * beta**2)) < 1e-9
    # first-order cross-check: 1 - 2 b^2 within the quartic window
    assert abs(v - 0.82) < 5 * beta**4


def test_coherence_sum_examples():
    m = single(B0, B0)
    assert 2 * coherence_sum(m) / mean_intensity(m) == pytest.approx(1.0)

    beta = 0.3
    plus, _ = coherent_state(beta, 16)
    minus, _ = coherent_state(-beta, 16)
    m = single(plus, minus)
    c = 2 * coherence_sum(m) / mean_intensity(m)
    assert c.imag == pytest.approx(0.0, abs=1e-12)
    assert c.real == pytest.approx(math.exp(-2 * beta**2), abs=1e-9)

    # frequency-resolved mixture at beta = 0.5: (1 - b^2) - b^2 = 0.5
    b2 = 0.25
    m = TwoPathMixture(
        (
            TwoPathComponent(B0, B0, FreqTag.ELASTIC, 1 - b2),
            TwoPathComponent(B1, -B1, FreqTag.SHIFTED, b2),
        )
    )
    assert 2 * coherence_sum(m) / mean_intensity(m) == pytest.approx(0.5)


def test_pattern_matches_closed_form_curve():
    beta = 0.4
    plus, _ = coherent_state(beta, 16)
    minus, _ = coherent_state(-beta, 16)
    m = single(plus, minus, weight=0.7)
    scan = pattern(m, 128)
    mean = mean_intensity(m)
    expected = mean * (1 + scan.visibility * np.cos(scan.phis + scan.phase_offset))
    assert np.max(np.abs(scan.intensities - expected)) < 1e-12
    assert abs(scan.sampled_visibility() - scan.visibility) < 1e-6


def test_incoherent_additivity():
    comps = (
        TwoPathComponent(B0, B0, FreqTag.ELASTIC, 0.8),
        TwoPathComponent(B1, zero_vector(SPACE), FreqTag.SHIFTED, 0.15),
        TwoPathComponent(B1, -B1, FreqTag.SHIFTED, 0.05),
    )
    total = pattern(TwoPathMixture(comps), 64).intensities
    parts = sum(pattern(TwoPathMixture((c,)), 64).intensities for c in comps)
    assert np.max(np.abs(total - parts)) < 1e-12


def test_phase_covariance_of_path_two():
    theta = 0.7
    base = single(B0, vec(0.6 + 0.2j))
    shifted = single(B0, vec(complex(math.cos(theta), math.sin(theta)) * (0.6 + 0.2j)))
    assert abs(visibility(base) - visibility(shifted)) < 1e-10
    gap = (phase_offset(shifted) - phase_offset(base) - theta) % (2 * math.pi)
    assert min(gap, 2 * math.pi - gap) < 1e-10


def test_unaligned_phase_first_harmonic():
    # for arbitrary phase offsets the uniform grid still reproduces the fringe
    # through its first Fourier coefficient (exact for a degree-1 curve)
    base = single(B0, vec(0.6 + 0.2j))
    scan = pattern(base, 64)
    c0 = np.mean(scan.intensities)
    c1 = np.mean(scan.intensities * np.exp(-1j * scan.phis))
    assert abs(2 * abs(c1) / c0 - scan.visibility) < 1e-12


def test_condition_with_identity_is_noop():
    m = single(vec(1.0, 0.2), vec(1.0, -0.2))
    ident = Projector(SPACE, np.eye(SPACE.dim), "identity")
    cm, prob = condition(m, ident)
    assert prob == pytest.approx(1.0)
    assert np.array_equal(cm.components[0].psi1.amplitudes, m.components[0].psi1.amplitudes)
    assert cm.condition == "identity"


def test_condition_never_gains_intensity_and_rank_one_binary():
    m = single(vec(1.0, 0.2), vec(1.0, -0.2))
    p0 = Projector(SPACE, np.diag([1.0, 0, 0, 0]), "level0")
    cm, prob = condition(m, p0)
    assert 0.0 < prob <= 1.0
    assert mean_intensity(cm) <= mean_intensity(m)
    # rank-1 conditioning forces per-component visibility to 1 (or 0)
    assert visibility(cm) == pytest.approx(1.0)
    assert cm.components[0].weight == m.components[0].weight


def test_conditioned_away_state_raises():
    m = single(B0, B0)
    p = Projector(SPACE, np.diag([0, 1.0, 0, 0]), "level1")
    cm, prob = condition(m, p)
    assert prob == 0.0
    with pytest.raises(EmptyPatternError):
        pattern(cm, 64)
    with pytest.raises(EmptyPatternError):
        visibility(cm)


def test_projector_space_mismatch():
    m = single(B0, B0)
    other = FockSpace((5,))
    p = Projector(other, np.eye(5), "other")
    with pytest.raises(SpaceMismatchError):
        condition(m, p)
    with pytest.raises(SpaceMismatchError):
        Projector(SPACE, np.eye(3))


def test_component_and_mixture_validation():
    with pytest.raises(ValueError):
        TwoPathComponent(B0, B0, FreqTag.ELASTIC, -0.1)
    with pytest.raises(SpaceMismatchError):
        TwoPathComponent(B0, basis_state(FockSpace((5,)), (0,)))
    with pytest.raises(ValueError):
        TwoPathMixture(())
    with pytest.raises(ValueError):
        TwoPathMixture((TwoPathComponent(B0, B0, weight=0.0),))
    with pytest.raises(ValueError):
        pattern(single(B0, B0), 8)


def test_visibility_one_requires_common_phase():
    # equal-weight components fringing at opposite phases cancel
    m = TwoPathMixture(
        (
            TwoPathComponent(B0, B0, FreqTag.ELASTIC, 0.5),
            TwoPathComponent(B1, -B1, FreqTag.SHIFTED, 0.5),
        )
    )
    assert visibility(m) == pytest.approx(0.0, abs=1e-15)


_amp = st.floats(-1.0, 1.0, allow_nan=False)


@settings(max_examples=80, deadline=None)
@given(a=_amp, b=_amp, c=_amp, d=_amp, w1=st.floats(0.1, 2.0), w2=st.floats(0.1, 2.0))
def test_visibility_bounds_hypothesis(a, b, c, d, w1, w2):
    psi1 = vec(a, b)
    psi2 = vec(c, d)
    m = TwoPathMixture(
        (
            TwoPathComponent(psi1, psi2, FreqTag.ELASTIC, w1),
            TwoPathComponent(psi2, psi1, FreqTag.SHIFTED, w2),
        )
    )
    if mean_intensity(m) < 1e-12:
        return
    v = visibility(m)
    assert -1e-12 <= v <= 1.0 + 1e-12


@settings(max_examples=60, deadline=None)
@given(theta=st.floats(-math.pi, math.pi, allow_nan=False))
def test_phase_covariance_hypothesis(theta):
    rot = complex(math.cos(theta), math.sin(theta))
    base = single(vec(1.0, 0.3), vec(1.0, -0.3))
    turned = single(vec(1.0, 0.3), vec(rot, rot * -0.3))
    assert abs(visibility(base) - visibility(turned)) < 1e-10
    gap = (phase_offset(turned) - phase_offset(base) - theta) % (2 * math.pi)
    assert min(gap, 2 * math.pi - gap) < 1e-9


def test_projector_refuses_non_finite_columns():
    for bad in (math.nan, math.inf):
        columns = np.diag([1.0, 0, 0, 0])
        columns[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            Projector(SPACE, columns)


def test_projector_refuses_columns_that_are_no_orthogonal_projector():
    space = FockSpace((16,))
    rng = np.random.default_rng(5)
    skewed = np.linalg.qr(rng.normal(size=(16, 2)))[0] @ np.array([[1.0, 0.1], [0.0, 1.0]])
    for columns in (3 * np.ones((16, 1)), 2 * np.eye(16)[:, :3], skewed):
        with pytest.raises(ValueError, match="idempotent"):
            Projector(space, columns)
    # idempotent Gram matrices: orthonormal columns, with or without zero columns
    for columns in (np.eye(16), np.diag([1.0] + [0.0] * 15), np.zeros((16, 0)),
                    np.linalg.qr(rng.normal(size=(16, 3)) + 1j * rng.normal(size=(16, 3)))[0]):
        Projector(space, columns)
