"""The scenario vocabulary and the rules a run is checked by, without numpy.

Config, Pulse, Treatment, FreqTag, ScenarioSpec, what each config defines,
the truncation and sample bounds, the named marker sectors, the marker modes
each transform needs, and the physics domain (check_domain, check_whichway):
the command line settles every flag and domain rule by them before it imports
numpy, the builders and condition refuse by the same rules, and the compute
modules import the vocabulary from here and re-export its names.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from enum import Enum

from .errors import PerturbationError, ScenarioError, SpaceMismatchError, TruncationError

__all__ = ["Config", "FreqTag", "PROJECTOR_NAMES", "Pulse", "ScenarioSpec", "Treatment",
           "check_nmax"]

# 170! is the largest factorial a float64 holds, so the coherent series
# beta^n / sqrt(n!) is defined on levels n <= 170 only.
MAX_NMAX = 171
# The fewest and the most detector phases a sampled pattern may have; the sampled
# curve is a consistency check, and the upper bound keeps a mistyped count from
# exhausting memory.
MIN_SAMPLES = 16
MAX_SAMPLES = 65536
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
_MEMBERS = {e: {m.value: m for m in e} for e in (Config, Pulse, Treatment, FreqTag)}


def _member(enum, value):
    """The member of enum for a value or a member, by table lookup; an unknown or
    unhashable value raises the enum call's own ValueError."""
    try:
        return _MEMBERS[enum][value]
    except (KeyError, TypeError):  # not a value of enum: the enum call says so
        return enum(value)


_BOTH = (Treatment.EXACT, Treatment.FIRST_ORDER)

# What each config defines: its short-pulse treatments (the first is the default, () where
# the treatment does not enter), whether it has a long pulse, the marker modes its builders
# put on every chain, the |beta|^2 bound of its first-order short pulse (None where no kick
# enters; every long pulse needs |beta|^2 < 0.5), and the ScenarioSpec fields no other config
# reads. scenarios holds a builder for each regime defined here.
_Regime = namedtuple("_Regime", "treatments long modes bound fields", defaults=((),))
_REGIMES = {
    Config.A: _Regime((), True, 2, None),
    Config.B: _Regime(_BOTH, True, 2, 1.0),
    Config.C1: _Regime(_BOTH, True, 1, 0.5),
    Config.C2: _Regime(_BOTH, True, 1, 0.5),
    Config.D: _Regime(_BOTH, False, 2, 0.5, ("alpha",)),
    Config.E: _Regime((Treatment.FIRST_ORDER,), True, 2, 1.0, ("coupling_g", "evolve_time")),
}
_FIELD_CONFIGS = {field: config for config, regime in _REGIMES.items() for field in regime.fields}

# The named marker sectors, the states a long pulse records the marker in, the projectors of
# those names project on and (sym, antisym) the eraser's columns: the (occupations,
# amplitude) terms of each unit state, 1/sqrt2 rounded once. A sector needs as many marker
# modes as its occupations have; ground, (), is the vacuum of any space.
_ROOT_HALF = 1.0 / math.sqrt(2.0)
_SECTORS = {"ground": (((), 1.0),), "atom1_excited": (((1, 0), 1.0),),
            "atom2_excited": (((0, 1), 1.0),), "single_atom_0": (((0,), 1.0),),
            "single_atom_1": (((1,), 1.0),),
            "sym": (((1, 0), _ROOT_HALF), ((0, 1), _ROOT_HALF)),
            "antisym": (((1, 0), _ROOT_HALF), ((0, 1), -_ROOT_HALF))}
PROJECTOR_NAMES = tuple(_SECTORS)


def _whole(count) -> bool:
    return isinstance(count, int) or float(count).is_integer()


def check_nmax(nmax: int) -> None:
    """Refuse a truncation that is not a whole number in 2 <= nmax <= MAX_NMAX; run it before
    allocating. Above MAX_NMAX is TruncationError, the rest ScenarioError field "nmax"."""
    if nmax < 2:
        raise ScenarioError("nmax", f"truncation dimension must be >= 2, got {nmax}")
    if nmax > MAX_NMAX:
        raise TruncationError(
            f"truncation dimension {nmax} exceeds {MAX_NMAX}; levels above "
            f"{MAX_NMAX - 1} overflow the float64 factorial"
        )
    if not _whole(nmax):
        raise ScenarioError("nmax", f"truncation dimension must be a whole number, got {nmax}")


def _squared_abs(z: complex) -> float:
    """|z|^2 as re*re + im*im, the square closedform takes; inf where it overflows."""
    return z.real * z.real + z.imag * z.imag


def check_amplitude(amplitude: complex, nmax: int) -> float:
    """|amplitude|^2 of a coherent state cut at nmax levels, after check_nmax. A NaN
    raises ValueError, and |amplitude|^2 above nmax TruncationError."""
    check_nmax(nmax)
    b2 = _squared_abs(amplitude)
    if math.isnan(b2):
        raise ValueError(f"coherent amplitude {amplitude:.4g} is not a number")
    if b2 > nmax:
        raise TruncationError(
            f"coherent amplitude {amplitude:.4g} has squared modulus {b2:.4g} above the "
            f"truncation dimension {nmax}; the cutoff would drop most of the state")
    return b2


def _poisson_tail(x: float, nmax: int) -> float:
    """Q = e^-x sum_{n >= nmax} x^n / n!, the share of |b> with |b|^2 = x <= nmax that a
    cutoff at nmax levels drops, summed upward from the first dropped term."""
    term = math.exp(nmax * math.log(x) - x - math.lgamma(nmax + 1)) if x else 0.0
    total, n = 0.0, nmax
    while total + term != total:
        total += term
        n += 1
        term *= x / n
    return total


def check_kick(name: str, amplitude: complex, nmax: int) -> None:
    """After check_amplitude, refuse a kick whose truncation residual is above 1e-10."""
    residual = _poisson_tail(check_amplitude(amplitude, nmax), nmax)
    if residual > 1e-10:
        raise TruncationError(
            f"coherent amplitude {name} = {amplitude:.4g} loses {residual:.2g} of its state "
            f"to the truncation at nmax {nmax}, above 1e-10; use a larger --nmax")


def check_domain(spec: ScenarioSpec, coincidence: str | None = None) -> None:
    """Refuse a spec, and a coincidence cut of its chain, outside the physics domain, in
    the order build and condition reach the rules: the alpha guard; beta's truncation tail
    (exact short pulses) or the perturbative bound that _REGIMES, the one home of the
    bounds and of the config-only fields, sets; the alpha tail, under a coincidence only."""
    regime, nmax, short = _REGIMES[spec.config], spec.nmax, spec.pulse is Pulse.SHORT
    reads_alpha = spec.config is _FIELD_CONFIGS["alpha"]
    if reads_alpha:
        check_amplitude(spec.alpha, nmax)
    if regime.bound is not None and short and spec.treatment is Treatment.EXACT:
        check_kick("beta", spec.beta, nmax)
    elif regime.bound is not None:  # None: no kick enters the marker
        b2, bound = _squared_abs(spec.beta), regime.bound if short else 0.5
        if b2 >= bound:
            rule = ("first-order treatment requires |beta| < 1" if bound == 1.0 else
                    "long pulses and first-order config C/D need |beta|^2 < 0.5")
            raise PerturbationError(f"{rule}, got |beta|^2 = {b2:.4g}")
    if coincidence is not None and reads_alpha:
        check_kick("alpha", spec.alpha, nmax)


def check_whichway(beta: float, delta: float, nmax: int) -> None:
    """Refuse a beta, then a delta, not finite and >= 0 (ScenarioError of its field); then
    check_kick the probe delta and the marker beta, both guards before either tail."""
    for name, value in (("beta", beta), ("delta", delta)):
        if not 0 <= value < math.inf:
            raise ScenarioError(name, "must be finite and >= 0")
    check_amplitude(delta, nmax)
    check_amplitude(beta, nmax)
    check_kick("delta", delta, nmax)
    check_kick("beta", beta, nmax)


def check_nsamples(nsamples: int) -> None:
    """Refuse a pattern that is not a whole number in [MIN_SAMPLES, MAX_SAMPLES] of phases,
    field "nsamples"; run it before allocating."""
    if nsamples < MIN_SAMPLES:
        raise ScenarioError("nsamples", f"nsamples must be >= {MIN_SAMPLES}, got {nsamples}")
    if not _whole(nsamples):
        raise ScenarioError("nsamples", f"nsamples must be a whole number, got {nsamples}")
    if nsamples > MAX_SAMPLES:
        raise ScenarioError("nsamples", f"nsamples must be <= {MAX_SAMPLES}, got {nsamples}")


def check_modes(nmodes: int, projector: str | None = None) -> None:
    """Refuse, with SpaceMismatchError, a marker space of nmodes modes that the
    excitation pair of the eraser and the beat (projector None) or the named
    projector does not fit, naming both mode counts. An unknown name, measured as ground,
    is left to named_projector."""
    needed = 2 if projector is None else len(_SECTORS.get(projector, _SECTORS["ground"])[0][0])
    if needed and nmodes != needed:
        what = "operation" if projector is None else f"projector {projector!r}"
        raise SpaceMismatchError(f"{what} needs a {('single', 'two')[needed - 1]}-oscillator "
                                 f"marker space, got {nmodes} mode(s)")


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
    momentum transfer Q and trap oscillator length x0. alpha (config D),
    coupling_g and evolve_time (config E) are read by the config whose _REGIMES
    entry lists them only. beta, alpha, coupling_g, evolve_time and their product
    must be finite; epsilon must stay in [1.49e-154, 0.1], the single-scattering
    regime in which epsilon**2 is a normal float; nmax must be a whole number in
    [2, 171]. A value outside its domain raises ScenarioError with its field
    ("evolve_time" for the product), except nmax above 171: TruncationError.

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
        config, pulse = _member(Config, config), _member(Pulse, pulse)
        treatment = None if treatment is None else _member(Treatment, treatment)
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
                             treatment=treatment)
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
        check_nmax(nmax)
        self.__dict__["nmax"] = int(nmax)

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
