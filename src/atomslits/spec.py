"""The scenario vocabulary and the rules a run is checked by, without numpy.

Config, Pulse, Treatment, FreqTag, ScenarioSpec, what each config defines,
the truncation and sample bounds, and the marker modes each transform needs:
the command line settles every flag by them before it imports numpy, and the
compute modules import them from here and re-export their names.
"""

from __future__ import annotations

import math
import sys
from enum import Enum

from .errors import ScenarioError, SpaceMismatchError, TruncationError

__all__ = ["Config", "FreqTag", "PROJECTOR_NAMES", "Pulse", "ScenarioSpec", "Treatment",
           "check_nmax"]

# 170! is the largest factorial a float64 holds, so the coherent series
# beta^n / sqrt(n!) is defined on levels n <= 170 only.
MAX_NMAX = 171
# The fewest detector phases a sampled pattern may have.
MIN_SAMPLES = 16
# The smallest epsilon whose square, a factor on every weight, is a normal float.
_EPSILON_MIN = math.sqrt(sys.float_info.min)


class _Frozen:
    """Read-only attributes (constructors write __dict__) and a repr of the _fields."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Config(str, Enum):
    A = "A"
    B = "B"
    C1 = "C1"
    C2 = "C2"
    D = "D"
    E = "E"


class Pulse(str, Enum):
    SHORT = "short"
    LONG = "long"


class Treatment(str, Enum):
    EXACT = "exact"
    FIRST_ORDER = "first"


class FreqTag(str, Enum):
    """Symbolic frequency label of a scattered-light component.

    ELASTIC is unshifted light; SHIFTED is offset by the trap frequency; SYM
    and ANTISYM are offset by the two normal-mode frequencies of coupled
    slits. Tags are the vocabulary of the dispersive element.
    """

    ELASTIC = "ELASTIC"
    SHIFTED = "SHIFTED"
    SYM = "SYM"
    ANTISYM = "ANTISYM"


# value -> member of each enum, without the enum call; a member hashes and compares as its value
_CONFIGS, _PULSES, _TREATMENTS = ({m.value: m for m in e} for e in (Config, Pulse, Treatment))


class _Regime:
    def __init__(self, treatments: tuple[Treatment, ...], long: bool, modes: int):
        self.treatments, self.long, self.modes = treatments, long, modes


_BOTH = (Treatment.EXACT, Treatment.FIRST_ORDER)

# What each config defines: its short-pulse treatments (the first is the default, () where
# the treatment does not enter), whether it has a long pulse, and the marker modes its
# builders put on every chain. scenarios holds a builder for each regime defined here.
_REGIMES = {
    Config.A: _Regime((), True, 2),
    Config.B: _Regime(_BOTH, True, 2),
    Config.C1: _Regime(_BOTH, True, 1),
    Config.C2: _Regime(_BOTH, True, 1),
    Config.D: _Regime(_BOTH, False, 2),
    Config.E: _Regime((Treatment.FIRST_ORDER,), True, 2),
}

# Each named coincidence projector and the marker modes it needs; None fits any space.
_PROJECTOR_MODES = {"ground": None, "atom1_excited": 2, "atom2_excited": 2, "single_atom_0": 1,
                    "single_atom_1": 1, "sym": 2, "antisym": 2}
PROJECTOR_NAMES = tuple(_PROJECTOR_MODES)


def check_nmax(nmax: int) -> None:
    """Refuse a truncation outside 2 <= nmax <= MAX_NMAX; run it before allocating.
    Below 2 is ScenarioError with field "nmax", above is TruncationError."""
    if nmax < 2:
        raise ScenarioError("nmax", f"truncation dimension must be >= 2, got {nmax}")
    if nmax > MAX_NMAX:
        raise TruncationError(
            f"truncation dimension {nmax} exceeds {MAX_NMAX}; levels above "
            f"{MAX_NMAX - 1} overflow the float64 factorial"
        )


def check_nsamples(nsamples: int) -> None:
    """Refuse a pattern of fewer than MIN_SAMPLES phases, with field "nsamples"."""
    if nsamples < MIN_SAMPLES:
        raise ScenarioError("nsamples", f"nsamples must be >= {MIN_SAMPLES}, got {nsamples}")


def check_modes(nmodes: int, projector: str | None = None) -> None:
    """Refuse, with SpaceMismatchError, a marker space of nmodes modes that the
    excitation pair of the eraser and the beat (projector None) or the named
    projector does not fit. An unknown name is left to named_projector."""
    needed = 2 if projector is None else _PROJECTOR_MODES.get(projector)
    if needed is not None and nmodes != needed:
        raise SpaceMismatchError(
            f"projector {projector!r} needs a single-oscillator space" if needed == 1
            else f"operation needs a two-oscillator marker space, got {nmodes} mode(s)")


def check_chain(spec: ScenarioSpec, eraser: bool, coincidence: str | None) -> None:
    """Refuse an eraser or a projector that the marker space of the spec's config
    does not take, with ScenarioError field "eraser" or "coincidence"."""
    for field, wanted, projector in (("eraser", eraser, None),
                                     ("coincidence", coincidence is not None, coincidence)):
        try:
            if wanted:
                check_modes(_REGIMES[spec.config].modes, projector)
        except SpaceMismatchError as exc:
            raise ScenarioError(field, str(exc))


class ScenarioSpec(_Frozen):
    """Declarative description of one scenario run.

    beta is the dimensionless recoil kick beta = i Q x0 / sqrt(2) for photon
    momentum transfer Q and trap oscillator length x0. alpha applies to
    config D only; coupling_g and evolve_time apply to config E only (other
    builders ignore them). beta, alpha, coupling_g, evolve_time and their
    product must be finite; epsilon must stay in [1.49e-154, 0.1], the
    single-scattering regime in which epsilon**2 is a normal float; nmax must
    lie in [2, 171]. A value outside its domain raises ScenarioError with its
    field ("evolve_time" for the product), except nmax above 171: TruncationError.

    treatment None resolves to the config's default: first order for config
    E on either pulse, exact elsewhere. Combinations the regime table does
    not define (a long pulse for config D, the exact treatment for a short
    pulse on config E) raise ScenarioError here, before any other check.
    """

    _fields = ("config", "pulse", "beta", "alpha", "epsilon", "coupling_g", "evolve_time",
               "treatment", "nmax")

    def __init__(self, config: Config, pulse: Pulse = Pulse.SHORT, beta: complex = 0j,
                 alpha: complex = 0j, epsilon: float = 0.01, coupling_g: float = 0.0,
                 evolve_time: float = 0.0, treatment: Treatment | None = None, nmax: int = 16):
        try:
            config, pulse = _CONFIGS[config], _PULSES[pulse]
            treatment = None if treatment is None else _TREATMENTS[treatment]
        except (KeyError, TypeError):  # not a value of its enum: the enum call says so
            config, pulse = Config(config), Pulse(pulse)
            treatment = None if treatment is None else Treatment(treatment)
        regime = _REGIMES[config]
        if treatment is None:
            treatment = (regime.treatments or (Treatment.EXACT,))[0]
        if pulse is Pulse.LONG and not regime.long:
            raise ScenarioError("pulse", f"config {config.value} supports short pulses only")
        if pulse is Pulse.SHORT and regime.treatments and treatment not in regime.treatments:
            allowed = "/".join(t.value for t in regime.treatments)
            raise ScenarioError("treatment", f"config {config.value} short pulses are "
                                             f"implemented for treatment {allowed} only")
        self.__dict__.update(config=config, pulse=pulse, beta=complex(beta),
                             alpha=complex(alpha), epsilon=float(epsilon),
                             coupling_g=float(coupling_g), evolve_time=float(evolve_time),
                             treatment=treatment, nmax=int(nmax))
        for name in ("beta", "alpha", "coupling_g", "evolve_time"):
            value = getattr(self, name)
            if not (math.isfinite(value.real) and math.isfinite(value.imag)):
                raise ScenarioError(name, f"{name} must be finite, got {value}")
        if not _EPSILON_MIN <= self.epsilon <= 0.1:
            raise ScenarioError(
                "epsilon",
                f"epsilon must lie in [{_EPSILON_MIN!r}, 0.1], got {self.epsilon}; the "
                f"model is first order in the scattering amplitude, and epsilon**2 must "
                f"be a normal float"
            )
        if self.coupling_g < 0:
            raise ScenarioError("coupling_g", "coupling_g must be >= 0")
        if self.evolve_time < 0:
            raise ScenarioError("evolve_time", "evolve_time must be >= 0")
        if not math.isfinite(self.coupling_g * self.evolve_time):
            raise ScenarioError(
                "evolve_time",
                f"coupling_g * evolve_time must be finite, got {self.coupling_g} * "
                f"{self.evolve_time}"
            )
        check_nmax(self.nmax)

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._astuple() == other._astuple() if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def _replace(self, **changes) -> "ScenarioSpec":
        """A new spec with these fields changed, checked as a fresh one."""
        return ScenarioSpec(**dict(zip(self._fields, self._astuple()), **changes))

    @property
    def treatments(self) -> tuple[Treatment, ...]:
        """The treatments this config and pulse tell apart; () where the treatment does not enter."""
        return _REGIMES[self.config].treatments if self.pulse is Pulse.SHORT else ()

    def to_dict(self) -> dict:
        """Flat key-value form echoed in CLI output headers."""
        return {
            "config": self.config.value,
            "pulse": self.pulse.value,
            "beta": _complex_str(self.beta),
            "alpha": _complex_str(self.alpha),
            "epsilon": self.epsilon,
            "coupling_g": self.coupling_g,
            "evolve_time": self.evolve_time,
            "treatment": self.treatment.value,
            "nmax": self.nmax,
        }


def _complex_str(z: complex) -> str:
    return str(complex(z)).strip("()")
