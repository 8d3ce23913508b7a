import cmath
import importlib
import math
import os
import subprocess
import sys
import warnings
from enum import Enum
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import atomslits
from atomslits import (
    PROJECTOR_NAMES,
    FockSpace,
    FockVector,
    FreqTag,
    PatternScan,
    Projector,
    ScenarioSpec,
    TwoPathComponent,
    TwoPathMixture,
    apply_dispersive,
    apply_eraser,
    build,
    closedform,
    coherent_state,
    condition,
    errors,
    evolve_beat,
    inner,
    named_projector,
    pattern,
    phase_offset,
    quarter_beat_time,
    visibility,
)

SRC = str(Path(atomslits.__file__).resolve().parents[1])
MODULES = ("acceptance", "cli", "closedform", "errors", "fockspace", "scenarios",
           "transforms", "twopath", "spec")


@pytest.mark.parametrize("module", ("atomslits",) + tuple(f"atomslits.{m}" for m in MODULES))
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert len(set(mod.__all__)) == len(mod.__all__)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing


# --- the lazy package -------------------------------------------------------


def test_package_names_are_the_objects_of_their_modules():
    exporters = {}
    for module in MODULES:
        mod = importlib.import_module(f"atomslits.{module}")
        for name in mod.__all__:
            exporters.setdefault(name, []).append(mod)
    for name in (n for n in atomslits.__all__ if n != "__version__"):
        value = getattr(atomslits, name)
        assert exporters[name], name
        assert all(getattr(mod, name) is value for mod in exporters[name]), name
        home = getattr(value, "__module__", None)  # the defining module of a class or function
        if home is not None:
            assert getattr(importlib.import_module(home), name) is value, name


def test_package_lists_every_public_name():
    assert set(atomslits.__all__) <= set(dir(atomslits))
    namespace = {}
    exec("from atomslits import *", namespace)
    assert set(atomslits.__all__) <= set(namespace)


def test_package_unknown_name_is_the_standard_attribute_error():
    with pytest.raises(AttributeError, match="^module 'atomslits' has no attribute 'nope'$"):
        atomslits.nope


def test_package_import_loads_no_numpy_and_binds_a_name_on_first_use():
    script = ("import sys, atomslits\n"
              "numpy, before = 'numpy' in sys.modules, 'build' in vars(atomslits)\n"
              "atomslits.build\n"
              "print(numpy, before, 'build' in vars(atomslits))\n")
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=os.pathsep.join(
                                p for p in (SRC, os.environ.get("PYTHONPATH")) if p)),
                            timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False False True\n"


SPACE = FockSpace((4,))
E0 = FockVector(SPACE, [1.0, 0.0, 0.0, 0.0])
E1 = FockVector(SPACE, [0.0, 1.0, 0.0, 0.0])

# non-finite and overflow-sized values next to ordinary ones, 1e100 whose
# square is finite but whose fourth power is not, subnormals whose reciprocal
# overflows, and the exact 0 and +-1 that let a unit vector through as a
# projector column
_value = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1e300, 1e308, 1e100, 5e-324,
                     1e-310, 0.0, 1.0, -1.0]),
    st.floats(-2.0, 2.0),
)


def _vector(v):
    return FockVector(SPACE, [complex(v[0], v[1]), v[2], v[3], 0.0])


def _component(v):
    return TwoPathComponent(_vector(v[:4]), _vector(v[4:]), weight=v[0])


def _scenario(config):
    extra = {"D": lambda v: {"alpha": complex(v[3], v[4])},
             "E": lambda v: {"coupling_g": v[5], "evolve_time": v[6]}}.get(config, lambda v: {})
    return lambda v: ScenarioSpec(config, beta=complex(v[0], v[1]), epsilon=abs(v[2]) * 0.05,
                                  **extra(v))


CONSTRUCTORS = {
    "FockVector": _vector,
    # the raw draw, almost always refused, and a unit column (cos t, sin t)
    "Projector": lambda v: Projector(SPACE, np.array([[v[0]], [v[1]], [0.0], [0.0]])),
    "Projector[unit]": lambda v: Projector(
        SPACE, np.array([[math.cos(v[0])], [math.sin(v[0])], [0.0], [0.0]])),
    "TwoPathComponent": _component,
    "TwoPathMixture": lambda v: TwoPathMixture((
        TwoPathComponent(E0, E1, weight=v[0]), TwoPathComponent(E1, E0, weight=v[1]))),
    "PatternScan": lambda v: PatternScan(np.array(v[:3]), np.array(v[3:6]), v[6], v[7]),
    **{f"ScenarioSpec[{config}]": _scenario(config) for config in ("B", "D", "E")},
}

_REFUSALS = (ValueError,) + tuple(getattr(errors, name) for name in errors.__all__)


def _finite(x) -> bool:
    """Every number held by x, its arrays and the package objects it holds, is finite."""
    if isinstance(x, np.ndarray):
        return bool(np.isfinite(x).all())
    if isinstance(x, (int, float, complex)):
        return cmath.isfinite(x)
    if isinstance(x, (tuple, list)):
        return all(_finite(item) for item in x)
    if isinstance(x, dict):
        return all(_finite(item) for item in x.values())
    if isinstance(x, (Enum, FockSpace, str)) or x is None:
        return True
    return all(_finite(item) for item in vars(x).values())


def _mixture(obj):
    """The mixture an accepted object stands for or builds, None for a scan or projector."""
    if isinstance(obj, FockVector):
        return TwoPathMixture((TwoPathComponent(obj, E0),))
    if isinstance(obj, TwoPathComponent):
        return TwoPathMixture((obj,))
    if isinstance(obj, ScenarioSpec):
        return build(obj)
    return obj if isinstance(obj, TwoPathMixture) else None


def _uses(obj):
    """Calls of the public functions on an accepted object, each one deferred."""
    if isinstance(obj, Projector):
        return [lambda: condition(TwoPathMixture((TwoPathComponent(E0, E1),)), obj)]
    m = _mixture(obj)
    if m is None:
        return []
    paths = [p for c in m.components for p in (c.psi1, c.psi2)]
    return ([p.norm for p in paths] + [lambda p=p: inner(p, paths[0]) for p in paths]
            + [lambda: visibility(m), lambda: phase_offset(m), lambda: pattern(m, 16),
               lambda: condition(m, named_projector("ground", m.space))])


@settings(max_examples=400)
# pinned refusals: an overflowing Gram matrix, an infinite total weight, a NaN
# scan, a weight whose fringe peak overflows, amplitudes whose norm overflows
@example(kind="Projector", values=[1e300] * 8)
@example(kind="TwoPathMixture", values=[1e308] * 8)
@example(kind="PatternScan", values=[math.nan] * 8)
@example(kind="TwoPathMixture", values=[1e308] + [0.0] * 7)
@example(kind="FockVector", values=[1e200] + [0.0] * 7)
@given(kind=st.sampled_from(sorted(CONSTRUCTORS)), values=st.lists(_value, min_size=8, max_size=8))
def test_public_constructors_refuse_or_hold_only_finite_numbers(kind, values):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            obj = CONSTRUCTORS[kind](values)
        except _REFUSALS:
            return
        assert _finite(obj)
        if kind == "TwoPathMixture":
            assert math.isfinite(obj.total_weight)
        try:
            uses = _uses(obj)
        except _REFUSALS:  # a spec outside its builder's domain
            return
        for use in uses:
            try:
                result = use()
            except _REFUSALS:
                continue
            assert _finite(result)


# |0,0>, |0,1>, |1,0>, |1,1>: the eraser and the beat mix the middle two levels
PAIR_SPACE = FockSpace((2, 2))


def _pair_mixture(v):
    psi1 = FockVector(PAIR_SPACE, [complex(v[0], v[1]), v[2], v[3], 0.0])
    psi2 = FockVector(PAIR_SPACE, [v[4], complex(v[5], v[6]), v[7], 0.0])
    return TwoPathMixture((TwoPathComponent(psi1, psi2),
                           TwoPathComponent(psi2, psi1, FreqTag.SHIFTED, 0.5)))


def _conditioned(name):
    def call(v):
        m = TwoPathMixture((_component(v[:8]),)) if name.startswith("single") else _pair_mixture(v)
        return condition(m, named_projector(name, m.space))
    return call


FUNCTIONS = {
    "coherent_state": lambda v: coherent_state(complex(v[0], v[1]), 4),
    "apply_eraser": lambda v: apply_eraser(_pair_mixture(v), inverse=v[8] < 0),
    "evolve_beat": lambda v: evolve_beat(_pair_mixture(v), v[8], v[9]),
    "apply_dispersive": lambda v: apply_dispersive(_pair_mixture(v), [FreqTag.SHIFTED]),
    **{f"named_projector[{name}]": _conditioned(name) for name in PROJECTOR_NAMES},
    "quarter_beat_time": lambda v: quarter_beat_time(v[0]),
    "contrast_B": lambda v: closedform.contrast_B(complex(v[0], v[1])),
    "contrast_C": lambda v: closedform.contrast_C(complex(v[0], v[1])),
    **{f"{name}[{config}]": lambda v, f=getattr(closedform, name), config=config: f(
        config, complex(v[0], v[1]))
       for name, configs in (("contrast_exact", "ABCD"), ("first_order_contrast", "ABCDE"),
                             ("longpulse_weights", "BCE")) for config in configs},
    "projection_probability": lambda v: closedform.projection_probability(
        complex(v[0], v[1]), complex(v[2], v[3])),
    "whichway_probabilities": lambda v: closedform.whichway_probabilities(v[0], v[1]),
    "required_probe": lambda v: closedform.required_probe(v[0], v[1]),
    "tradeoff_curve": lambda v: closedform.tradeoff_curve(v[0]),
}


@settings(max_examples=400)
# pinned refusals: a probe, and a trade-off curve, whose delta overflows at a
# subnormal beta; NaN and infinite closed-form inputs; an error exp(-4 beta delta)
# whose 4 beta overflows at delta = 0; a NaN coupling and one whose quarter beat
# period overflows
@example(kind="required_probe", values=[1e-310, 0.5] + [0.0] * 8)
@example(kind="tradeoff_curve", values=[5e-324, -1.0] + [0.0] * 8)
@example(kind="contrast_B", values=[math.nan] + [0.0] * 9)
@example(kind="whichway_probabilities", values=[0.0, math.inf] + [0.0] * 8)
@example(kind="whichway_probabilities", values=[1e308, 0.0] + [0.0] * 8)
@example(kind="quarter_beat_time", values=[math.nan] + [0.0] * 9)
@example(kind="quarter_beat_time", values=[1e-310] + [0.0] * 9)
@given(kind=st.sampled_from(sorted(FUNCTIONS)), values=st.lists(_value, min_size=10, max_size=10))
def test_public_functions_refuse_or_return_only_finite_numbers(kind, values):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = FUNCTIONS[kind](values)
        except _REFUSALS:
            return
        assert _finite(result)
        for out in result if isinstance(result, tuple) else (result,):
            for use in [out.norm] if isinstance(out, FockVector) else _uses(out):
                try:
                    used = use()
                except _REFUSALS:
                    continue
                assert _finite(used)


@pytest.mark.parametrize("field", range(4))
def test_pattern_scan_refuses_non_finite_values(field):
    args = [np.zeros(4), np.zeros(4), 0.5, 0.0]
    args[field] = np.full(4, math.nan) if field < 2 else math.nan
    with pytest.raises(ValueError, match="finite"):
        PatternScan(*args)
