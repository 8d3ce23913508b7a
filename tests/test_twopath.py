import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomslits import twopath
from atomslits.errors import EmptyPatternError, ScenarioError, SpaceMismatchError
from atomslits.fockspace import FockSpace, FockVector, basis_state, coherent_state, zero_vector
from atomslits.scenarios import Config, Pulse, ScenarioSpec, Treatment, _run
from atomslits.transforms import named_projector
from atomslits.twopath import (
    FreqTag,
    PatternScan,
    Projector,
    TwoPathComponent,
    TwoPathMixture,
    coherence_sum,
    condition,
    _unit_circle,
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
    hi, lo = scan.intensities.max(), scan.intensities.min()
    assert abs((hi - lo) / (hi + lo) - scan.visibility) < 1e-6


def test_single_path_is_flat():
    scan = pattern(single(B0, zero_vector(SPACE)), 32)
    assert scan.visibility == 0.0
    assert np.max(scan.intensities) - np.min(scan.intensities) < 1e-15


def test_opposite_coherent_paths_visibility():
    beta = 0.3
    plus = coherent_state(beta, 16)
    minus = coherent_state(-beta, 16)
    v = visibility(single(plus, minus))
    assert abs(v - math.exp(-2 * beta**2)) < 1e-9
    # first-order cross-check: 1 - 2 b^2 within the quartic window
    assert abs(v - 0.82) < 5 * beta**4


def test_coherence_sum_examples():
    m = single(B0, B0)
    assert 2 * coherence_sum(m) / mean_intensity(m) == pytest.approx(1.0)

    beta = 0.3
    plus = coherent_state(beta, 16)
    minus = coherent_state(-beta, 16)
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
    plus = coherent_state(beta, 16)
    minus = coherent_state(-beta, 16)
    m = single(plus, minus, weight=0.7)
    scan = pattern(m, 128)
    mean = mean_intensity(m)
    expected = mean * (1 + scan.visibility * np.cos(scan.phis + scan.phase_offset))
    assert np.max(np.abs(scan.intensities - expected)) < 1e-12
    hi, lo = scan.intensities.max(), scan.intensities.min()
    assert abs((hi - lo) / (hi + lo) - scan.visibility) < 1e-6


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


def test_pattern_refuses_too_many_samples_before_the_grid():
    m = single(B0, B1)
    pattern(m, 65536)
    before = _unit_circle.cache_info()
    for nsamples in (65537, 10**9):
        with pytest.raises(ScenarioError, match=f"must be <= 65536, got {nsamples}") as exc:
            pattern(m, nsamples)
        assert exc.value.field == "nsamples"
    assert _unit_circle.cache_info() == before


def test_pattern_scan_refuses_samples_of_two_shapes():
    with pytest.raises(ValueError, match="phis and intensities must have the same shape"):
        PatternScan(np.zeros(4), np.zeros(5), 1.0, 0.0)


def test_component_and_mixture_validation():
    with pytest.raises(ValueError):
        TwoPathComponent(B0, B0, FreqTag.ELASTIC, -0.1)
    with pytest.raises(SpaceMismatchError):
        TwoPathComponent(B0, basis_state(FockSpace((5,)), (0,)))
    other = basis_state(FockSpace((5,)), (0,))
    with pytest.raises(SpaceMismatchError, match="all components must share one FockSpace"):
        TwoPathMixture((TwoPathComponent(B0, B0), TwoPathComponent(other, other)))
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


def test_full_contrast_that_rounds_above_one_is_one():
    # D's unit paths at beta 0: 2|S|/d rounds to 1.0000000000000002 at this alpha, and the
    # sample at phi = pi, d - 2|S|, to -5.4e-20
    m, _ = _run(ScenarioSpec(Config.D, beta=0, alpha=-0.38061854646744075,
                             treatment=Treatment.FIRST_ORDER))
    assert 2.0 * abs(coherence_sum(m)) / mean_intensity(m) > 1.0
    assert visibility(m) == 1.0
    scan = pattern(m)
    assert scan.visibility == 1.0
    assert scan.intensities.min() == 0.0


def test_a_fringe_peak_that_overflows_a_float_is_refused():
    # d = 2 * 6e307 is finite, the peak 2 d of this full-contrast fringe is not
    m = single(B0, B0, weight=6e307)
    assert math.isfinite(mean_intensity(m))
    with pytest.raises(ValueError, match="overflows a float"):
        pattern(m, 16)


@pytest.mark.parametrize("weight", [6e307, 8e307])
def test_only_pattern_refuses_a_fringe_peak_that_overflows_a_float(weight):
    # 2 |S| <= d keeps the contrast finite where d is; only pattern forms the peak 2 d
    m = single(B0, B0, weight=weight)
    assert math.isfinite(mean_intensity(m)) and not math.isfinite(2.0 * mean_intensity(m))
    assert 0.0 <= visibility(m) <= 1.0
    assert phase_offset(m) == 0.0
    assert condition(m, named_projector("ground", SPACE))[1] == 1.0
    with pytest.raises(ValueError, match="fringe peak"):
        pattern(m, 16)


def test_a_mean_intensity_that_overflows_a_float_is_refused():
    # a finite weight of 1e308 on two unit paths sums to d = inf, whose contrast is nan
    m = single(B0, B0, weight=1e308)
    ground = named_projector("ground", SPACE)
    for readout in (visibility, phase_offset, pattern, lambda m: condition(m, ground)):
        with pytest.raises(ValueError, match="mean intensity of the mixture overflows"):
            readout(m)


def test_pattern_asserts_on_a_coherence_beyond_cauchy_schwarz(monkeypatch):
    # |S| 1e-6 above d/2 drives the sample at phi = pi to -1e-6 d, below -1e-9 d
    m = single(B0, B0)
    beyond = coherence_sum(m) * (1.0 + 1e-6)
    monkeypatch.setattr(twopath, "coherence_sum", lambda _: beyond)
    with pytest.raises(AssertionError, match="intensity went significantly negative"):
        pattern(m, 64)


def test_a_negative_real_coherence_has_phase_plus_pi():
    # C1's shifted line cut to |1> fringes exactly opposite the elastic line
    m, _ = _run(ScenarioSpec(Config.C1, Pulse.LONG, beta=0.3), coincidence="single_atom_1")
    c = coherence_sum(m)
    assert c.real < 0.0 and c.imag == 0.0
    assert phase_offset(m) == math.pi
    assert pattern(m).phase_offset == math.pi


_signed = st.sampled_from((0.0, -0.0, 0.5, -0.5, 1.0, -1.0))
_path = st.lists(st.builds(complex, _signed, _signed), min_size=4, max_size=4)


@settings(max_examples=300)
@given(st.lists(st.tuples(_path, _path, st.sampled_from((0.0, 0.25, 1.0))),
                min_size=1, max_size=3))
def test_phase_lies_in_the_principal_interval_with_signed_zeros(parts):
    # summed from 0j, no part of the coherence is -0.0, so atan2 never reads a signed zero
    components = tuple(TwoPathComponent(FockVector(SPACE, psi1), FockVector(SPACE, psi2),
                                        weight=w) for psi1, psi2, w in parts)
    if sum(w for *_, w in parts) == 0.0:
        return
    m = TwoPathMixture(components)
    if mean_intensity(m) == 0.0:
        return
    c = coherence_sum(m)
    assert math.copysign(1.0, c.real) == 1.0 or c.real != 0.0
    assert math.copysign(1.0, c.imag) == 1.0 or c.imag != 0.0
    phase = phase_offset(m)
    assert -math.pi < phase <= math.pi
    assert pattern(m, 16).phase_offset == phase
    if c.imag == 0.0:
        assert phase == (math.pi if c.real < 0.0 else 0.0)


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


def test_projector_refuses_tiny_columns():
    # a Gram matrix of 1e-14 is idempotent within 1e-12, and one of 1e-340 underflows
    # to 0; conditioned on such a column, |0> paths kept a post-selection of 1e-28
    for size in (1e-7, 1e-170, 1e-310, 5e-324):
        with pytest.raises(ValueError, match="norm is not 0 or 1"):
            Projector(SPACE, [[size], [0.0], [0.0], [0.0]])
        with pytest.raises(ValueError, match="norm is not 0 or 1"):
            Projector(SPACE, np.diag([1.0, size, 0.0, 0.0]))
    assert condition(single(B0, B0), Projector(SPACE, [[1.0], [0], [0], [0]]))[1] == 1.0


@st.composite
def column_blocks(draw):
    """Up to three columns on a 6-level space: orthonormal ones, scaled by sizes near
    and far from 1, exactly zero ones, and raw random ones."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(0, 3))
    block = np.linalg.qr(rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3)))[0][:, :k]
    for j in range(k):
        block[:, j] *= draw(st.sampled_from([1.0, 1.0, 1 + 1e-13, 1 - 1e-11, 0.0, 1e-7,
                                             1e-170, 1e-310, 3.0]))
    if draw(st.integers(0, 4)) == 0:
        block = block + draw(st.sampled_from([1e-14, 1e-6, 1.0])) * rng.normal(size=block.shape)
    return block


@settings(max_examples=300)
@given(columns=column_blocks(), seed=st.integers(0, 2**32 - 1))
def test_every_accepted_projector_is_idempotent_with_a_post_selection_in_0_1(columns, seed):
    space = FockSpace((6,))
    try:
        projector = Projector(space, columns)
    except ValueError:
        return
    # P keeps each direction it was given: a tiny column would be shrunk towards 0
    for u in columns.T:
        if u.any():
            unit = u / np.abs(u).max()
            unit = FockVector(space, unit / np.linalg.norm(unit))
            image = projector._image(unit, {})
            assert np.max(np.abs(image.amplitudes - unit.amplitudes)) <= 1e-12
    rng = np.random.default_rng(seed)
    for _ in range(3):
        v = FockVector(space, rng.normal(size=6) + 1j * rng.normal(size=6))
        w = FockVector(space, rng.normal(size=6) + 1j * rng.normal(size=6))
        once = projector._image(v, {})
        twice = projector._image(once, {})
        assert np.max(np.abs(twice.amplitudes - once.amplitudes)) <= 1e-12 * v.norm()
        # paths inside the kept subspace lose nothing, within the constructor's 1e-12
        for paths in ((v, w), (once, projector._image(w, {}))):
            if paths[0].norm() + paths[1].norm() > 0:
                _, kept = condition(single(*paths), projector)
                assert 0.0 <= kept <= 1.0 + 1e-12
