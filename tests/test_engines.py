"""The scalar engine against the numpy engine, and its two replays of numpy, to the bit.

fockspace computes a space of modes of at most fockspace._SCALAR_NMAX levels in
plain Python, and a larger one with numpy. Setting that constant to 1 sends
every space to numpy, so the same chains run through both engines: their
numbers agree to rounding, and every refusal is the same. The scalar engine's
sum replays np.add.reduce, and sweep's grid replays np.linspace; both are
checked bit for bit against numpy itself.
"""

import cmath
import contextlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomslits import fockspace
from atomslits.cli import _grid
from atomslits.fockspace import _sum
from atomslits.scenarios import ScenarioSpec, _run, _whichway
from atomslits.spec import FreqTag
from atomslits.transforms import PROJECTOR_NAMES
from atomslits.twopath import pattern, phase_offset, visibility

TOLERANCE = 1e-13


@contextlib.contextmanager
def numpy_engine():
    """Every space computed by numpy for the duration."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fockspace, "_SCALAR_NMAX", 1)
        yield


def outcome(call):
    """(call()'s value, None), or (None, the type and message of what it raised)."""
    try:
        return call(), None
    except Exception as exc:  # each engine must refuse alike
        return None, (type(exc), str(exc))


def chain_numbers(spec, chain):
    """V, the phase, the post-selection and the 16 pattern samples of a _run chain."""
    m, post = _run(spec, **chain)
    scan = pattern(m, 16)
    return visibility(m), phase_offset(m), post, scan.intensities.tolist()


_kick = st.builds(complex, st.floats(-1.3, 1.3), st.floats(-1.3, 1.3))


@st.composite
def chains(draw):
    config = draw(st.sampled_from(["A", "B", "C1", "C2", "D", "E"]))
    fields = dict(beta=draw(_kick), nmax=draw(st.integers(2, 16)),
                  pulse=draw(st.sampled_from(["short", "long"])),
                  treatment=draw(st.sampled_from([None, "exact", "first"])))
    if config == "D":
        fields["alpha"] = draw(_kick)
    if config == "E":
        fields.update(coupling_g=draw(st.floats(0.0, 2.0)), evolve_time=draw(st.floats(0.0, 2.0)))
    chain = dict(eraser=draw(st.booleans()),
                 dispersive=draw(st.none() | st.sets(st.sampled_from(list(FreqTag)), min_size=1)),
                 coincidence=draw(st.none() | st.sampled_from(PROJECTOR_NAMES)))
    return config, fields, chain


@settings(max_examples=300)
@given(drawn=chains())
def test_both_engines_give_one_chain_to_rounding_and_refuse_alike(drawn):
    config, fields, chain = drawn
    spec, refused = outcome(lambda: ScenarioSpec(config, **fields))
    if refused:
        return  # a refused spec never reaches an engine
    scalar, refused = outcome(lambda: chain_numbers(spec, chain))
    with numpy_engine():
        assert "_values" not in fockspace.coherent_state(0.1, 3).__dict__  # a numpy array
        dense, refused_np = outcome(lambda: chain_numbers(spec, chain))
    assert refused == refused_np
    if refused:
        return
    (v, phase, post, samples), (v_np, phase_np, post_np, samples_np) = scalar, dense
    assert abs(v - v_np) <= TOLERANCE and abs(post - post_np) <= TOLERANCE
    if v > 1e-3:  # the phase of a nearly flat pattern is rounding noise
        assert abs(cmath.exp(1j * phase) - cmath.exp(1j * phase_np)) <= TOLERANCE
    peak = max(samples_np)
    assert max(abs(a - b) for a, b in zip(samples, samples_np)) <= TOLERANCE * peak


@settings(max_examples=100)
@given(beta=st.floats(0.0, 4.0), delta=st.floats(0.0, 4.0), nmax=st.integers(2, 16))
def test_both_engines_give_one_whichway_readout(beta, delta, nmax):
    scalar, refused = outcome(lambda: _whichway(beta, delta, nmax))
    with numpy_engine():
        dense, refused_np = outcome(lambda: _whichway(beta, delta, nmax))
    assert refused == refused_np
    if not refused:
        assert max(abs(a - b) for a, b in zip(scalar, dense)) <= TOLERANCE


def draws(rng, n):
    """Values that stress a sum: mixed scales and signs, signed zeros and subnormals."""
    kind = rng.randrange(4)
    if kind == 0:
        return [rng.gauss(0.0, 1.0) * 10.0 ** rng.randint(-8, 8) for _ in range(n)]
    if kind == 1:
        return [rng.choice((0.0, -0.0, 5e-324, -5e-324, 1e-310)) for _ in range(n)]
    return [rng.choice((-0.0, rng.gauss(0.0, 1.0))) for _ in range(n)]


def test_the_pairwise_sum_is_np_add_reduce_to_the_bit():
    rng = random.Random(11)
    for n in range(1, 2001):
        for _ in range(2):
            values = draws(rng, n)
            expected = np.add.reduce(np.array(values))
            assert np.float64(_sum(values)).tobytes() == expected.tobytes(), n


@settings(max_examples=500)
@given(lo=st.floats(0.0, 3.0) | st.sampled_from([0.0, -0.0, 5e-324]),
       width=st.floats(0.0, 3.0) | st.sampled_from([0.0, 5e-324, 1e-320]),
       steps=st.integers(1, 1000))
def test_the_sweep_grid_is_np_linspace_to_the_bit(lo, width, steps):
    hi = lo + width
    assert np.array(_grid(lo, hi, steps)).tobytes() == np.linspace(lo, hi, steps).tobytes()
