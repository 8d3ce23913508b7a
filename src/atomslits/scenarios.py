"""Builders mapping each slit configuration and pulse regime to a mixture.

Configurations:

  A   rigid double slit, no recoil marker
  B   two independently trapped slit atoms, one per slit
  C1  a single trapped atom scattering into two directions
  C2  a rigidly connected movable double slit (same physics as C1)
  D   C1 with two-dimensional motion: a longitudinal common-mode kick alpha
      on top of the transverse +/- beta kick
  E   two slit atoms coupled by a weak spring (beat frequency 2g)

A short pulse leaves the marker in a coherent superposition, one mixture
component. A long pulse resolves the scattered frequency, and the state is an
incoherent mixture whose weights are the first-order transition
probabilities: 1-|b|^2 elastic, |b|^2/2 per excited slit for B, |b|^2 for the
shifted line of C, |b|^2/2 per normal mode for E. A component whose photon
definitely took one path carries half the two-path intensity baseline, so it
enters with weight |b|^2 to land at the |b|^2/2 outcome fraction.

Treatments: EXACT keeps full coherent-state markers |+-b>; FIRST_ORDER keeps
a single excitation quantum with amplitude b, with the elastic amplitude
renormalized to sqrt(1-|b|^2) so the sector probabilities sum to one and the
contrasts come out exactly 1-|b|^2 (config B) and 1-2|b|^2 (config C).

The scattering probability epsilon enters all component weights as an overall
factor of epsilon^2; it cancels from every visibility but keeps absolute
coincidence rates reportable.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from . import transforms
from .errors import PerturbationError, ScenarioError
from .fockspace import (
    FockSpace,
    FockVector,
    _space,
    _squared_abs,
    basis_state,
    check_nmax,
    coherent_state,
    ground_state,
    tensor,
    zero_vector,
)
from .twopath import FreqTag, TwoPathComponent, TwoPathMixture

__all__ = [
    "Config",
    "Pulse",
    "ScenarioSpec",
    "Treatment",
    "build",
    "build_A",
    "build_B_long",
    "build_B_short",
    "build_C_long",
    "build_C_short",
    "build_D_short",
    "build_E_long",
    "build_E_short",
]


# The smallest epsilon whose square, a factor on every weight, is a normal float.
_EPSILON_MIN = math.sqrt(sys.float_info.min)


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


@dataclass(frozen=True)
class ScenarioSpec:
    """Declarative description of one scenario run.

    beta is the dimensionless recoil kick beta = i Q x0 / sqrt(2) for photon
    momentum transfer Q and trap oscillator length x0. alpha applies to
    config D only; coupling_g and evolve_time apply to config E only (other
    builders ignore them). beta, alpha, coupling_g, evolve_time and their
    product must be finite; epsilon must stay in [1.49e-154, 0.1], the
    single-scattering regime in which epsilon**2 is a normal float; nmax must
    lie in [2, 171].

    treatment None resolves to the config's default: first order for config
    E on either pulse, exact elsewhere. Combinations the regime table does
    not define (a long pulse for config D, the exact treatment for a short
    pulse on config E) raise ScenarioError here, before any other check.
    """

    config: Config
    pulse: Pulse = Pulse.SHORT
    beta: complex = 0j
    alpha: complex = 0j
    epsilon: float = 0.01
    coupling_g: float = 0.0
    evolve_time: float = 0.0
    treatment: Treatment | None = None
    nmax: int = 16

    def __post_init__(self) -> None:
        object.__setattr__(self, "config", Config(self.config))
        object.__setattr__(self, "pulse", Pulse(self.pulse))
        regime = _REGIMES[self.config]
        if self.treatment is None:
            object.__setattr__(self, "treatment", (regime.treatments or (Treatment.EXACT,))[0])
        object.__setattr__(self, "treatment", Treatment(self.treatment))
        if self.pulse is Pulse.LONG and regime.long is None:
            raise ScenarioError("pulse", f"config {self.config.value} supports short pulses only")
        if self.treatments and self.treatment not in self.treatments:
            allowed = "/".join(t.value for t in self.treatments)
            raise ScenarioError("treatment", f"config {self.config.value} short pulses are "
                                             f"implemented for treatment {allowed} only")
        object.__setattr__(self, "beta", complex(self.beta))
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "epsilon", float(self.epsilon))
        object.__setattr__(self, "coupling_g", float(self.coupling_g))
        object.__setattr__(self, "evolve_time", float(self.evolve_time))
        object.__setattr__(self, "nmax", int(self.nmax))
        for name in ("beta", "alpha", "coupling_g", "evolve_time"):
            if not cmath.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not _EPSILON_MIN <= self.epsilon <= 0.1:
            raise ValueError(
                f"epsilon must lie in [{_EPSILON_MIN!r}, 0.1], got {self.epsilon}; the "
                f"model is first order in the scattering amplitude, and epsilon**2 must "
                f"be a normal float"
            )
        if self.coupling_g < 0:
            raise ValueError("coupling_g must be >= 0")
        if self.evolve_time < 0:
            raise ValueError("evolve_time must be >= 0")
        if not math.isfinite(self.coupling_g * self.evolve_time):
            raise ValueError(
                f"coupling_g * evolve_time must be finite, got {self.coupling_g} * "
                f"{self.evolve_time}"
            )
        check_nmax(self.nmax)

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


def _elastic_amplitude(beta: complex) -> float:
    b2 = _squared_abs(beta)
    if b2 >= 1.0:
        raise PerturbationError(
            f"first-order treatment requires |beta| < 1, got |beta|^2 = {b2:.4g}"
        )
    return math.sqrt(1.0 - b2)


def _golden_rule_b2(beta: complex) -> float:
    """|b|^2 inside |b|^2 < 0.5, the golden-rule and first-order C/D domain.

    Long-pulse weights and the first-order C/D contrast 1-2|b|^2 are
    perturbative results that closedform refuses beyond this bound too.
    """
    b2 = _squared_abs(beta)
    if b2 >= 0.5:
        raise PerturbationError(
            f"long pulses and first-order config C/D need |beta|^2 < 0.5, "
            f"got |beta|^2 = {b2:.4g}"
        )
    return b2


def _superposition(space: FockSpace, *terms: tuple[tuple[int, ...], complex]) -> FockVector:
    """sum_k c_k |n_k>, each c_k added to a zero: the bits of the scaled basis-vector sum."""
    amps = np.zeros(space.dim, dtype=np.complex128)
    for occupations, c in terms:
        amps[space.index(occupations)] += c
    return FockVector._wrap(space, amps)


def _first_order_kicked(nmax: int, beta: complex) -> FockVector:
    """sqrt(1-|b|^2) |0> + b |1>: normalized single-mode first-order marker of C/D."""
    c0 = math.sqrt(1.0 - _golden_rule_b2(beta))
    return _superposition(_space((nmax,)), ((0,), c0), ((1,), beta))


def build_A(spec: ScenarioSpec) -> TwoPathMixture:
    """Rigid slits: both paths carry the untouched ground marker, full contrast."""
    space = _space((spec.nmax, spec.nmax))
    g = ground_state(space)
    w = spec.epsilon**2
    return TwoPathMixture((TwoPathComponent(g, g, FreqTag.ELASTIC, w),))


def build_B_short(spec: ScenarioSpec) -> TwoPathMixture:
    """Independent slits, short pulse: the kicked slit records the path.

    EXACT: psi1 = |b>|0>, psi2 = |0>|b>, one coherent component with contrast
    exp(-|b|^2). FIRST_ORDER: a single excitation shared between the slits,
    contrast exactly 1-|b|^2.
    """
    b, nmax = spec.beta, spec.nmax
    w = spec.epsilon**2
    if spec.treatment is Treatment.EXACT:
        kicked, _ = coherent_state(b, nmax)
        still = ground_state(kicked.space)  # bit for bit coherent_state(0, nmax)
        psi1 = tensor((kicked, still))
        psi2 = tensor((still, kicked))
    else:
        space = _space((nmax, nmax))
        c0 = _elastic_amplitude(b)
        psi1 = _superposition(space, ((0, 0), c0), ((1, 0), b))
        psi2 = _superposition(space, ((0, 0), c0), ((0, 1), b))
    return TwoPathMixture((TwoPathComponent(psi1, psi2, FreqTag.ELASTIC, w),))


def build_B_long(spec: ScenarioSpec) -> TwoPathMixture:
    """Independent slits, long pulse: which-way outcomes become an incoherent mixture.

    Elastic light keeps both paths; each frequency-shifted outcome pins the
    photon to one slit and kills the fringe. Outcome fractions are 1-|b|^2 and
    |b|^2/2 per slit, so the one-path components enter with weight |b|^2.
    """
    b, nmax = spec.beta, spec.nmax
    b2 = _golden_rule_b2(b)
    space = _space((nmax, nmax))
    g = ground_state(space)
    empty = zero_vector(space)
    eps2 = spec.epsilon**2
    return TwoPathMixture(
        (
            TwoPathComponent(g, g, FreqTag.ELASTIC, eps2 * (1.0 - b2)),
            TwoPathComponent(basis_state(space, (1, 0)), empty, FreqTag.SHIFTED, eps2 * b2),
            TwoPathComponent(empty, basis_state(space, (0, 1)), FreqTag.SHIFTED, eps2 * b2),
        )
    )


def build_C_short(spec: ScenarioSpec) -> TwoPathMixture:
    """Single recoiling slit, short pulse: opposite kicks tag the two paths.

    EXACT: psi1 = |b>, psi2 = |-b>, contrast exp(-2|b|^2). FIRST_ORDER: the
    kick flips the sign of the |1> amplitude between paths, contrast exactly
    1-2|b|^2. C1 and C2 are equivalent and share this builder.
    """
    b, nmax = spec.beta, spec.nmax
    w = spec.epsilon**2
    if spec.treatment is Treatment.EXACT:
        psi1, _ = coherent_state(b, nmax)
        psi2, _ = coherent_state(-b, nmax)
    else:
        psi1 = _first_order_kicked(nmax, b)
        psi2 = _first_order_kicked(nmax, -b)
    return TwoPathMixture((TwoPathComponent(psi1, psi2, FreqTag.ELASTIC, w),))


def build_C_long(spec: ScenarioSpec) -> TwoPathMixture:
    """Single recoiling slit, long pulse: elastic and trap-shifted lines.

    The shifted line leaves the atom in |1> with a path-antisymmetric sign,
    i.e. a pi-shifted fringe of full contrast, weight |b|^2. Without frequency
    selection the two lines add to contrast 1-2|b|^2.
    """
    b, nmax = spec.beta, spec.nmax
    b2 = _golden_rule_b2(b)
    space = _space((nmax,))
    g = ground_state(space)
    e1 = basis_state(space, (1,))
    eps2 = spec.epsilon**2
    return TwoPathMixture(
        (
            TwoPathComponent(g, g, FreqTag.ELASTIC, eps2 * (1.0 - b2)),
            TwoPathComponent(e1, -e1, FreqTag.SHIFTED, eps2 * b2),
        )
    )


def build_D_short(spec: ScenarioSpec) -> TwoPathMixture:
    """Config C with 2D motion: common-mode kick alpha along z, +/- beta along y.

    The z displacement is identical on both paths, so it factors out of the
    fringe entirely even when alpha is large; it is detectable but carries no
    which-way information.
    """
    b, a, nmax = spec.beta, spec.alpha, spec.nmax
    w = spec.epsilon**2
    common, _ = coherent_state(a, nmax)
    if spec.treatment is Treatment.EXACT:
        plus, _ = coherent_state(b, nmax)
        minus, _ = coherent_state(-b, nmax)
    else:
        plus = _first_order_kicked(nmax, b)
        minus = _first_order_kicked(nmax, -b)
    psi1 = tensor((common, plus))
    psi2 = tensor((common, minus))
    return TwoPathMixture((TwoPathComponent(psi1, psi2, FreqTag.ELASTIC, w),))


def build_E_short(spec: ScenarioSpec) -> TwoPathMixture:
    """Coupled slits, short pulse: independent-slit state evolved under the beat.

    Starts elementwise identical to first-order config B, then evolves the
    excitation pair for evolve_time at coupling coupling_g. At a quarter of
    the beat period the evolution acts as a quantum eraser. The regime table
    defines it at first order only.
    """
    base = build_B_short(spec)
    return transforms.evolve_beat(base, spec.coupling_g, spec.evolve_time)


def build_E_long(spec: ScenarioSpec) -> TwoPathMixture:
    """Coupled slits, long pulse: the normal modes are the recorded eigenstates.

    The symmetric mode fringes in phase with the elastic line, the
    antisymmetric mode pi-shifted; neither marks a path. Weights are |b|^2/2
    per mode, elastic 1-|b|^2.
    """
    b, nmax = spec.beta, spec.nmax
    b2 = _golden_rule_b2(b)
    space = _space((nmax, nmax))
    g = ground_state(space)
    root = 1.0 / math.sqrt(2.0)
    sym = _superposition(space, ((1, 0), root), ((0, 1), root))
    antisym = _superposition(space, ((1, 0), root), ((0, 1), -root))
    eps2 = spec.epsilon**2
    return TwoPathMixture(
        (
            TwoPathComponent(g, g, FreqTag.ELASTIC, eps2 * (1.0 - b2)),
            TwoPathComponent(sym, sym, FreqTag.SYM, eps2 * b2 / 2.0),
            TwoPathComponent(antisym, -antisym, FreqTag.ANTISYM, eps2 * b2 / 2.0),
        )
    )


class _Regime(NamedTuple):
    short: Callable[[ScenarioSpec], TwoPathMixture]
    treatments: tuple[Treatment, ...]  # the first is the default; () if it does not enter
    long: Callable[[ScenarioSpec], TwoPathMixture] | None  # None: undefined


_BOTH = (Treatment.EXACT, Treatment.FIRST_ORDER)

# The catalogue: which (config, pulse, treatment) combinations exist, each
# config's default treatment, and the builder that runs each regime.
_REGIMES = {
    Config.A: _Regime(build_A, (), build_A),
    Config.B: _Regime(build_B_short, _BOTH, build_B_long),
    Config.C1: _Regime(build_C_short, _BOTH, build_C_long),
    Config.C2: _Regime(build_C_short, _BOTH, build_C_long),
    Config.D: _Regime(build_D_short, _BOTH, None),
    Config.E: _Regime(build_E_short, (Treatment.FIRST_ORDER,), build_E_long),
}


def build(spec: ScenarioSpec) -> TwoPathMixture:
    """Run a ScenarioSpec through its regime's builder.

    ScenarioSpec has already resolved the default treatment (first order for
    config E, exact elsewhere) and refused undefined combinations with
    ScenarioError. Raises PerturbationError outside the perturbative domain:
    |beta| < 1 for first-order B and E, |beta|^2 < 0.5 for every long pulse
    and first-order C/D.
    """
    regime = _REGIMES[spec.config]
    return (regime.short if spec.pulse is Pulse.SHORT else regime.long)(spec)
