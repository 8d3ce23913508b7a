import cmath
import importlib
import math
import warnings
from enum import Enum

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from atomslits import (
    FockSpace,
    FockVector,
    PatternScan,
    Projector,
    ScenarioSpec,
    TwoPathComponent,
    TwoPathMixture,
    errors,
)

MODULES = ("acceptance", "cli", "closedform", "errors", "fockspace", "scenarios",
           "transforms", "twopath")


@pytest.mark.parametrize("module", ("atomslits",) + tuple(f"atomslits.{m}" for m in MODULES))
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert len(set(mod.__all__)) == len(mod.__all__)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing


SPACE = FockSpace((4,))
E0 = FockVector(SPACE, [1.0, 0.0, 0.0, 0.0])
E1 = FockVector(SPACE, [0.0, 1.0, 0.0, 0.0])

# non-finite and overflow-sized values next to ordinary ones, and the exact
# 0 and +-1 that let a unit vector through as a projector column
_value = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1e300, 1e308, 0.0, 1.0, -1.0]),
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
    "Projector": lambda v: Projector(SPACE, np.array([[v[0]], [v[1]], [0.0], [0.0]])),
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
    if isinstance(x, tuple):
        return all(_finite(item) for item in x)
    if isinstance(x, (Enum, FockSpace, str)) or x is None:
        return True
    return all(_finite(item) for item in vars(x).values())


@settings(max_examples=400)
# pinned refusals: an overflowing Gram matrix, an infinite total weight, a NaN scan
@example(kind="Projector", values=[1e300] * 8)
@example(kind="TwoPathMixture", values=[1e308] * 8)
@example(kind="PatternScan", values=[math.nan] * 8)
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


@pytest.mark.parametrize("field", range(4))
def test_pattern_scan_refuses_non_finite_values(field):
    args = [np.zeros(4), np.zeros(4), 0.5, 0.0]
    args[field] = np.full(4, math.nan) if field < 2 else math.nan
    with pytest.raises(ValueError, match="finite"):
        PatternScan(*args)
