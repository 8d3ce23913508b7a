"""The six marker and spec classes are plain read-only classes that behave as the
frozen dataclasses they replaced: the same constructor signature, read-only
fields, the dataclass repr, value equality for FockSpace and ScenarioSpec and
identity equality for the others."""

import dataclasses
import importlib
import inspect
import math
import sys

import numpy as np
import pytest

from atomslits import (
    FockSpace,
    FockVector,
    FreqTag,
    PatternScan,
    Projector,
    ScenarioSpec,
    TwoPathComponent,
    TwoPathMixture,
)
from atomslits.acceptance import Criterion
from atomslits.errors import ScenarioError
from atomslits.scenarios import Config, Pulse, Treatment

SPACE = FockSpace((2,))
V = FockVector(SPACE, [1.0, 0.0])
W = FockVector(SPACE, [0.0, 1j])
COLUMNS = np.array([[1.0], [0.0]])
COMPONENT = TwoPathComponent(V, W, FreqTag.SYM, 0.5)

# each class, one instance, and its fields in constructor order with their defaults
CLASSES = {
    FockSpace: (SPACE, [("mode_dims", inspect.Parameter.empty)]),
    FockVector: (V, [("space", inspect.Parameter.empty), ("amplitudes", inspect.Parameter.empty)]),
    TwoPathComponent: (COMPONENT, [("psi1", inspect.Parameter.empty),
                                   ("psi2", inspect.Parameter.empty),
                                   ("tag", FreqTag.ELASTIC), ("weight", 1.0)]),
    TwoPathMixture: (TwoPathMixture((COMPONENT,)), [("components", inspect.Parameter.empty)]),
    Projector: (Projector(SPACE, COLUMNS), [("space", inspect.Parameter.empty),
                                            ("columns", inspect.Parameter.empty),
                                            ("name", "custom")]),
    ScenarioSpec: (ScenarioSpec(Config.B, beta=0.3),
                   [("config", inspect.Parameter.empty), ("pulse", Pulse.SHORT), ("beta", 0j),
                    ("alpha", 0j), ("epsilon", 0.01), ("coupling_g", 0.0),
                    ("evolve_time", 0.0), ("treatment", None), ("nmax", 16)]),
}
IDS = [cls.__name__ for cls in CLASSES]


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_signature_keeps_the_field_order_and_defaults(cls):
    _, fields = CLASSES[cls]
    params = list(inspect.signature(cls).parameters.values())
    assert [(p.name, p.default) for p in params] == fields
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in params)


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls):
    obj, fields = CLASSES[cls]
    before = {name: getattr(obj, name) for name, _ in fields}
    for name in [name for name, _ in fields] + ["unknown"]:
        with pytest.raises(AttributeError, match="cannot assign to field"):
            setattr(obj, name, 1)
        with pytest.raises(AttributeError, match="cannot delete field"):
            delattr(obj, name)
    assert all(getattr(obj, name) is value for name, value in before.items())


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_init_is_written_out_in_its_module(cls):
    module = sys.modules[cls.__module__]
    assert cls.__init__.__code__.co_filename == module.__file__
    assert not dataclasses.is_dataclass(cls)


def test_only_pattern_scan_and_criterion_are_dataclasses():
    found = set()
    for name in ("acceptance", "cli", "closedform", "errors", "fockspace", "scenarios",
                 "transforms", "twopath"):
        module = importlib.import_module(f"atomslits.{name}")
        found |= {obj for obj in vars(module).values()
                  if inspect.isclass(obj) and obj.__module__ == module.__name__
                  and dataclasses.is_dataclass(obj)}
    assert found == {PatternScan, Criterion}


def test_repr_keeps_the_dataclass_format():
    assert repr(FockSpace((2, 3))) == "FockSpace(mode_dims=(2, 3))"
    assert repr(V) == f"FockVector(space=FockSpace(mode_dims=(2,)), amplitudes={V.amplitudes!r})"
    assert repr(COMPONENT) == (f"TwoPathComponent(psi1={V!r}, psi2={W!r}, "
                               f"tag=<FreqTag.SYM: 'SYM'>, weight=0.5)")
    assert repr(TwoPathMixture((COMPONENT,))) == f"TwoPathMixture(components=({COMPONENT!r},))"
    projector = Projector(SPACE, COLUMNS, "p")
    assert repr(projector) == (f"Projector(space=FockSpace(mode_dims=(2,)), "
                               f"columns={projector.columns!r}, name='p')")
    assert repr(ScenarioSpec("B", beta=0.3)) == (
        "ScenarioSpec(config=<Config.B: 'B'>, pulse=<Pulse.SHORT: 'short'>, beta=(0.3+0j), "
        "alpha=0j, epsilon=0.01, coupling_g=0.0, evolve_time=0.0, "
        "treatment=<Treatment.EXACT: 'exact'>, nmax=16)")


def test_positional_and_keyword_construction_agree():
    fields = dict(config="E", pulse="long", beta=0.3, alpha=0.1, epsilon=0.02, coupling_g=0.5,
                  evolve_time=0.6, treatment="first", nmax=8)
    spec = ScenarioSpec(*fields.values())
    assert spec == ScenarioSpec(**fields)
    assert (spec.config, spec.pulse, spec.beta, spec.alpha, spec.epsilon, spec.coupling_g,
            spec.evolve_time, spec.treatment, spec.nmax) == (
        Config.E, Pulse.LONG, 0.3 + 0j, 0.1 + 0j, 0.02, 0.5, 0.6, Treatment.FIRST_ORDER, 8)
    c = TwoPathComponent(V, W, "SYM", 2)
    assert (c.psi1, c.psi2, c.tag, c.weight) == (V, W, FreqTag.SYM, 2.0)
    assert type(c.weight) is float
    d = TwoPathComponent(psi2=W, psi1=V)
    assert (d.psi1, d.psi2, d.tag, d.weight) == (V, W, FreqTag.ELASTIC, 1.0)
    assert Projector(columns=COLUMNS, space=SPACE).name == "custom"
    assert FockVector(amplitudes=[0, 1], space=SPACE).space is SPACE
    assert TwoPathMixture(components=[COMPONENT]).components == (COMPONENT,)


def test_value_classes_compare_and_hash_by_their_fields():
    a, b = FockSpace((2, 3)), FockSpace([2.0, 3])
    assert a is not b and a == b and hash(a) == hash(b) == hash(((2, 3),))
    assert a != FockSpace((3, 2)) and a != (2, 3)
    assert a.__eq__((2, 3)) is NotImplemented
    spec = ScenarioSpec("B", beta=0.3)
    same = ScenarioSpec(Config.B, Pulse.SHORT, 0.3 + 0j, treatment="exact")
    assert spec is not same and spec == same and hash(spec) == hash(same)
    assert hash(spec) == hash((Config.B, Pulse.SHORT, 0.3 + 0j, 0j, 0.01, 0.0, 0.0,
                               Treatment.EXACT, 16))
    assert spec != ScenarioSpec("B", beta=0.3, nmax=17) and spec != ScenarioSpec("C1", beta=0.3)
    assert spec.__eq__(spec.to_dict()) is NotImplemented
    assert len({spec, same, ScenarioSpec("B")}) == 2


def test_marker_classes_compare_by_identity():
    for cls, (obj, fields) in CLASSES.items():
        if cls in (FockSpace, ScenarioSpec):
            continue
        twin = cls(**{name: getattr(obj, name) for name, _ in fields})
        assert obj == obj and obj != twin
        assert hash(obj) == object.__hash__(obj)


@pytest.mark.parametrize("field,value", [
    ("config", "C1"), ("config", Config.D), ("pulse", "long"), ("beta", 0.1j),
    ("alpha", 0.4), ("epsilon", 0.05), ("coupling_g", 1.0), ("evolve_time", 2.0),
    ("treatment", "first"), ("treatment", None), ("nmax", 40),
])
def test_replace_equals_a_fresh_spec(field, value):
    fields = dict(config="B", pulse="short", beta=0.2, alpha=0j, epsilon=0.02, coupling_g=0.0,
                  evolve_time=0.0, treatment="exact", nmax=12)
    spec = ScenarioSpec(**fields)
    changed = spec._replace(**{field: value})
    assert changed == ScenarioSpec(**{**fields, field: value})
    assert spec == ScenarioSpec(**fields)  # the original is untouched


def test_replace_checks_like_a_fresh_spec():
    spec = ScenarioSpec("D", beta=0.2, alpha=0.3)
    with pytest.raises(ScenarioError, match="beta must be finite") as caught:
        spec._replace(beta=math.nan)
    assert caught.value.field == "beta"
    with pytest.raises(ScenarioError) as caught:
        spec._replace(pulse="long")
    assert caught.value.field == "pulse"
    with pytest.raises(TypeError):
        spec._replace(bogus=1)
