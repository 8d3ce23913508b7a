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

_run is the one chain from a spec to printed numbers: build, the eraser, the
dispersive flip, then a coincidence cut. Exact builders keep the truncation
residual of each coherent kick on the mixture, and _run refuses one above 1e-10
that reaches an output with TruncationError: beta's always, D's common-mode
alpha only under a cut, since one |alpha> on both paths cancels from V and phase.
_whichway is the one coherent-probe readout, with the same refusal for the probe
and the marker. The CLI and the acceptance suite print and check through both,
and look _whichway up on this module, so one rebinding of it reaches both.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from typing import Callable

from . import transforms
from .errors import PerturbationError, ScenarioError, SpaceMismatchError
from .fockspace import (
    FockVector,
    _Frozen,
    _check_residual,
    _product,
    _shared_state,
    _space,
    _squared_abs,
    _superposition,
    basis_state,
    check_nmax,
    coherent_state,
    ground_state,
    inner,
    zero_vector,
)
from .twopath import FreqTag, TwoPathComponent, TwoPathMixture, condition

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


# value -> member of each enum, without the enum call; a member hashes and compares as its value
_CONFIGS, _PULSES, _TREATMENTS = ({m.value: m for m in e} for e in (Config, Pulse, Treatment))


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
        if pulse is Pulse.LONG and regime.long is None:
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


def _mixture(*components: tuple[FockVector, FockVector, FreqTag, float],
             **residuals: float) -> TwoPathMixture:
    """The mixture of these (psi1, psi2, tag, weight) parts. A checked spec makes
    every weight a finite float >= 0 and the total positive, so the public
    constructors' checks are skipped. It keeps, by spec field, the truncation
    residual of each coherent kick it was built from, for _run."""
    m = TwoPathMixture._wrap(tuple(TwoPathComponent._wrap(*c) for c in components))
    m.__dict__["_residuals"] = residuals
    return m


def _first_order_kicked(nmax: int, beta: complex) -> FockVector:
    """sqrt(1-|b|^2) |0> + b |1>: normalized single-mode first-order marker of C/D."""
    c0 = math.sqrt(1.0 - _golden_rule_b2(beta))
    return _superposition(_space((nmax,)), ((0, c0), (1, beta)))


def build_A(spec: ScenarioSpec) -> TwoPathMixture:
    """Rigid slits: both paths carry the untouched ground marker, full contrast."""
    g = ground_state(_space((spec.nmax, spec.nmax)))
    return _mixture((g, g, FreqTag.ELASTIC, spec.epsilon**2))


def build_B_short(spec: ScenarioSpec) -> TwoPathMixture:
    """Independent slits, short pulse: the kicked slit records the path.

    EXACT: psi1 = |b>|0>, psi2 = |0>|b>, one coherent component with contrast
    exp(-|b|^2). FIRST_ORDER: a single excitation shared between the slits,
    contrast exactly 1-|b|^2.
    """
    b, nmax = spec.beta, spec.nmax
    if spec.treatment is not Treatment.EXACT:
        space = _space((nmax, nmax))
        i10, i01 = transforms._excitation_pair_indices(space)
        c0 = _elastic_amplitude(b)
        psi1 = _superposition(space, ((0, c0), (i10, b)))
        psi2 = _superposition(space, ((0, c0), (i01, b)))
        return _mixture((psi1, psi2, FreqTag.ELASTIC, spec.epsilon**2))
    kicked, residual = coherent_state(b, nmax)
    still = ground_state(kicked.space)  # bit for bit coherent_state(0, nmax)
    psi1 = _product((kicked, still))
    psi2 = _product((still, kicked))
    return _mixture((psi1, psi2, FreqTag.ELASTIC, spec.epsilon**2), beta=residual)


def build_B_long(spec: ScenarioSpec) -> TwoPathMixture:
    """Independent slits, long pulse: which-way outcomes become an incoherent mixture.

    Elastic light keeps both paths; each frequency-shifted outcome pins the
    photon to one slit and kills the fringe. Outcome fractions are 1-|b|^2 and
    |b|^2/2 per slit, so the one-path components enter with weight |b|^2.
    """
    b2 = _golden_rule_b2(spec.beta)
    space = _space((spec.nmax, spec.nmax))
    g = ground_state(space)
    empty = zero_vector(space)
    eps2 = spec.epsilon**2
    return _mixture(
        (g, g, FreqTag.ELASTIC, eps2 * (1.0 - b2)),
        (basis_state(space, (1, 0)), empty, FreqTag.SHIFTED, eps2 * b2),
        (empty, basis_state(space, (0, 1)), FreqTag.SHIFTED, eps2 * b2),
    )


def build_C_short(spec: ScenarioSpec) -> TwoPathMixture:
    """Single recoiling slit, short pulse: opposite kicks tag the two paths.

    EXACT: psi1 = |b>, psi2 = |-b>, contrast exp(-2|b|^2). FIRST_ORDER: the
    kick flips the sign of the |1> amplitude between paths, contrast exactly
    1-2|b|^2. C1 and C2 are equivalent and share this builder.
    """
    b, nmax = spec.beta, spec.nmax
    if spec.treatment is not Treatment.EXACT:
        psi1 = _first_order_kicked(nmax, b)
        psi2 = _first_order_kicked(nmax, -b)
        return _mixture((psi1, psi2, FreqTag.ELASTIC, spec.epsilon**2))
    psi1, r1 = coherent_state(b, nmax)
    psi2, r2 = coherent_state(-b, nmax)
    return _mixture((psi1, psi2, FreqTag.ELASTIC, spec.epsilon**2), beta=max(r1, r2))


def build_C_long(spec: ScenarioSpec) -> TwoPathMixture:
    """Single recoiling slit, long pulse: elastic and trap-shifted lines.

    The shifted line leaves the atom in |1> with a path-antisymmetric sign,
    i.e. a pi-shifted fringe of full contrast, weight |b|^2. Without frequency
    selection the two lines add to contrast 1-2|b|^2.
    """
    b2 = _golden_rule_b2(spec.beta)
    space = _space((spec.nmax,))
    g = ground_state(space)
    e1 = basis_state(space, (1,))
    eps2 = spec.epsilon**2
    return _mixture(
        (g, g, FreqTag.ELASTIC, eps2 * (1.0 - b2)),
        (e1, _shared_state(space, ((1, 1.0),), negated=True), FreqTag.SHIFTED, eps2 * b2),
    )


def build_D_short(spec: ScenarioSpec) -> TwoPathMixture:
    """Config C with 2D motion: common-mode kick alpha along z, +/- beta along y.

    The z displacement is identical on both paths, so it factors out of the
    fringe entirely even when alpha is large; it is detectable but carries no
    which-way information.
    """
    b, a, nmax = spec.beta, spec.alpha, spec.nmax
    common, alpha_residual = coherent_state(a, nmax)
    if spec.treatment is Treatment.EXACT:
        plus, r1 = coherent_state(b, nmax)
        minus, r2 = coherent_state(-b, nmax)
    else:
        plus = _first_order_kicked(nmax, b)
        minus = _first_order_kicked(nmax, -b)
        r1 = r2 = 0.0
    psi1 = _product((common, plus))
    psi2 = _product((common, minus))
    return _mixture((psi1, psi2, FreqTag.ELASTIC, spec.epsilon**2),
                    beta=max(r1, r2), alpha=alpha_residual)


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
    b2 = _golden_rule_b2(spec.beta)
    space = _space((spec.nmax, spec.nmax))
    g = ground_state(space)
    sym = transforms._normal_mode(space, 1.0)
    antisym = transforms._normal_mode(space, -1.0)
    flipped = transforms._normal_mode(space, -1.0, negated=True)
    eps2 = spec.epsilon**2
    return _mixture(
        (g, g, FreqTag.ELASTIC, eps2 * (1.0 - b2)),
        (sym, sym, FreqTag.SYM, eps2 * b2 / 2.0),
        (antisym, flipped, FreqTag.ANTISYM, eps2 * b2 / 2.0),
    )


class _Regime:
    def __init__(self, short: Callable, treatments: tuple[Treatment, ...], long: Callable | None):
        self.short, self.treatments, self.long = short, treatments, long


_BOTH = (Treatment.EXACT, Treatment.FIRST_ORDER)

# The catalogue of regimes, (short builder, treatments, long builder) per config: the
# first treatment is the default, () where it does not enter; a None builder is undefined.
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


def _run(spec: ScenarioSpec, eraser: bool = False, dispersive=None,
         coincidence: str | None = None) -> tuple[TwoPathMixture, float]:
    """The mixture of the chain the module docstring describes, and its post-selection
    probability (1.0 without a coincidence). An eraser or a projector the marker
    space does not take raises ScenarioError with field "eraser" or "coincidence".
    build, transforms and condition are looked up when called, so a wrapper bound
    over those module names sees every call."""
    m = build(spec)
    for name, residual in m.__dict__.get("_residuals", {}).items():
        if name == "beta" or coincidence is not None:
            _check_residual(name, getattr(spec, name), residual, spec.nmax)
    if eraser:
        try:
            m = transforms.apply_eraser(m)
        except SpaceMismatchError as exc:
            raise ScenarioError("eraser", str(exc))
    if dispersive is not None:
        m = transforms.apply_dispersive(m, dispersive)
    if coincidence is None:
        return m, 1.0
    try:
        projector = transforms.named_projector(coincidence, m.space)
    except SpaceMismatchError as exc:
        raise ScenarioError("coincidence", str(exc))
    return condition(m, projector)


def _whichway(beta: float, delta: float, nmax: int) -> tuple[float, float]:
    """|<delta|beta>|^2 and |<delta|-beta>|^2 of the truncated coherent states,
    unclamped. A probe delta, then a marker beta, that loses more than 1e-10 to
    the truncation raises TruncationError. coherent_state is looked up when called."""
    probe, r_probe = coherent_state(delta, nmax)
    plus, r_plus = coherent_state(beta, nmax)
    minus, r_minus = coherent_state(-beta, nmax)
    _check_residual("delta", delta, r_probe, nmax)
    _check_residual("beta", beta, max(r_plus, r_minus), nmax)
    return abs(inner(probe, plus)) ** 2, abs(inner(probe, minus)) ** 2
