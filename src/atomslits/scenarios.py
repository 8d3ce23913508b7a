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
enters with weight |b|^2 to land at the |b|^2/2 outcome fraction. The marker
of each outcome is a named sector of spec._SECTORS, the state the coincidence
projector of that name projects on; the _OUTCOMES table lists them.

Treatments: EXACT keeps full coherent-state markers |+-b>; FIRST_ORDER keeps
a single excitation quantum with amplitude b, with the elastic amplitude
renormalized to sqrt(1-|b|^2) so the sector probabilities sum to one and the
contrasts come out exactly 1-|b|^2 (config B) and 1-2|b|^2 (config C).

The scattering probability epsilon enters all component weights as an overall
factor of epsilon^2; it cancels from every visibility but keeps absolute
coincidence rates reportable.

_run is the one chain from a spec to printed numbers: build, the eraser, the
dispersive flip, then a coincidence cut; _whichway is the one coherent-probe
readout. Both refuse by the domain rule of atomslits.spec. The CLI and the
acceptance suite print and check through both, and look _whichway up on this
module, so one rebinding of it reaches both.
"""

from __future__ import annotations

import math

from . import transforms
from .fockspace import (
    FockVector,
    _product,
    _space,
    _superposition,
    coherent_state,
    ground_state,
    inner,
    zero_vector,
)
from .spec import (_REGIMES, Config, FreqTag, Pulse, ScenarioSpec, Treatment, _squared_abs,
                   check_chain, check_domain, check_whichway)
from .twopath import TwoPathComponent, TwoPathMixture, condition

__all__ = [
    "Config",
    "Pulse",
    "ScenarioSpec",
    "Treatment",
    "build",
]


def _mixture(*components: tuple[FockVector, FockVector, FreqTag, float],
             common_kick: complex | None = None) -> TwoPathMixture:
    """The mixture of these (psi1, psi2, tag, weight) parts. A checked spec makes
    every weight a finite float >= 0 and the total positive, so the public
    constructors' checks are skipped."""
    return TwoPathMixture._wrap(tuple(TwoPathComponent._wrap(*c) for c in components),
                                common_kick)


def _first_order(space, b: complex, level: int) -> FockVector:
    """sqrt(1-|b|^2) |0> + b |level>: the normalized first-order marker of a kick b."""
    return _superposition(space, ((0, math.sqrt(1.0 - _squared_abs(b))), (level, b)))


def _opposite_kicks(spec: ScenarioSpec) -> tuple[FockVector, FockVector]:
    """The one-mode markers of the kicks +b and -b: |b> and |-b> (EXACT), or
    sqrt(1-|b|^2) |0> +- b |1> (FIRST_ORDER)."""
    b, nmax = spec.beta, spec.nmax
    if spec.treatment is Treatment.EXACT:
        return coherent_state(b, nmax), coherent_state(-b, nmax)
    space = _space((nmax,))
    return _first_order(space, b, 1), _first_order(space, -b, 1)


def _build_A(spec: ScenarioSpec) -> TwoPathMixture:
    """Rigid slits: both paths carry the untouched ground marker, full contrast."""
    g = ground_state(_space((spec.nmax, spec.nmax)))
    return _mixture((g, g, FreqTag.ELASTIC, spec.epsilon**2))


def _build_B_short(spec: ScenarioSpec) -> TwoPathMixture:
    """Independent slits, short pulse: the kicked slit records the path.

    EXACT: psi1 = |b>|0>, psi2 = |0>|b>, one coherent component with contrast
    exp(-|b|^2). FIRST_ORDER: a single excitation shared between the slits,
    contrast exactly 1-|b|^2.
    """
    b, nmax = spec.beta, spec.nmax
    if spec.treatment is not Treatment.EXACT:
        space = _space((nmax, nmax))
        i10, i01 = transforms._excitation_pair_indices(space)
        psi1, psi2 = _first_order(space, b, i10), _first_order(space, b, i01)
        return _mixture((psi1, psi2, FreqTag.ELASTIC, spec.epsilon**2))
    kicked = coherent_state(b, nmax)
    still = ground_state(kicked.space)  # bit for bit coherent_state(0, nmax)
    psi1 = _product((kicked, still))
    psi2 = _product((still, kicked))
    return _mixture((psi1, psi2, FreqTag.ELASTIC, spec.epsilon**2))


def _build_C_short(spec: ScenarioSpec) -> TwoPathMixture:
    """Single recoiling slit, short pulse: opposite kicks tag the two paths.

    EXACT: psi1 = |b>, psi2 = |-b>, contrast exp(-2|b|^2). FIRST_ORDER: the
    kick flips the sign of the |1> amplitude between paths, contrast exactly
    1-2|b|^2. C1 and C2 are equivalent and share this builder.
    """
    return _mixture((*_opposite_kicks(spec), FreqTag.ELASTIC, spec.epsilon**2))


def _build_D_short(spec: ScenarioSpec) -> TwoPathMixture:
    """Config C with 2D motion: common-mode kick alpha along z, +/- beta along y.

    The z displacement is identical on both paths, so it factors out of the
    fringe entirely even when alpha is large; it is detectable but carries no
    which-way information.
    """
    common = coherent_state(spec.alpha, spec.nmax)
    plus, minus = _opposite_kicks(spec)
    psi1, psi2 = _product((common, plus)), _product((common, minus))
    return _mixture((psi1, psi2, FreqTag.ELASTIC, spec.epsilon**2), common_kick=spec.alpha)


def _build_E_short(spec: ScenarioSpec) -> TwoPathMixture:
    """Coupled slits, short pulse: independent-slit state evolved under the beat.

    Starts elementwise identical to first-order config B, then evolves the
    excitation pair for evolve_time at coupling coupling_g. At a quarter of
    the beat period the evolution acts as a quantum eraser. The regime table
    defines it at first order only.
    """
    base = _build_B_short(spec)
    return transforms.evolve_beat(base, spec.coupling_g, spec.evolve_time)


# What a long pulse records besides the elastic line: each outcome's marker sector on path 1
# and on path 2 (a name of spec._SECTORS, "-name" its negation, a sign _path applies, None an
# empty path), its tag and its share of eps^2 |b|^2. B: a shifted photon excites its own
# slit's atom, which pins it to that slit; a one-path component carries half the two-path
# baseline, so share 1 lands at the |b|^2/2 outcome fraction. C: the shifted line leaves the
# atom in |1> with a path-antisymmetric sign, a pi-shifted fringe of full contrast. E: the
# normal modes are the recorded eigenstates, |b|^2/2 each; the antisymmetric one fringes
# pi-shifted, and neither marks a path.
_OUTCOMES = {
    Config.B: (("atom1_excited", None, FreqTag.SHIFTED, 1.0),
               (None, "atom2_excited", FreqTag.SHIFTED, 1.0)),
    **dict.fromkeys((Config.C1, Config.C2),
                    (("single_atom_1", "-single_atom_1", FreqTag.SHIFTED, 1.0),)),
    Config.E: (("sym", "sym", FreqTag.SYM, 0.5), ("antisym", "-antisym", FreqTag.ANTISYM, 0.5)),
}


def _path(sector: str | None, space) -> FockVector:
    """The state an _OUTCOMES entry names on this space, read only: the named projector's
    own column, so the path is that very vector, or for "-name" its negation; None is an
    empty path."""
    if sector is None:
        return zero_vector(space)
    column = transforms.named_projector(sector.lstrip("-"), space)._columns[0]
    return -column if sector.startswith("-") else column


def _build_long(spec: ScenarioSpec) -> TwoPathMixture:
    """Frequency-resolved pulse, an incoherent mixture: the elastic line on the ground
    marker at weight eps^2 (1-|b|^2), then each of the config's _OUTCOMES, with one
    vector for a sector it names twice, such as B's empty path."""
    space, outcomes = _space((spec.nmax,) * _REGIMES[spec.config].modes), _OUTCOMES[spec.config]
    path = {sector: _path(sector, space)
            for sector in dict.fromkeys(s for outcome in outcomes for s in outcome[:2])}
    b2, eps2, g = _squared_abs(spec.beta), spec.epsilon**2, _path("ground", space)
    return _mixture((g, g, FreqTag.ELASTIC, eps2 * (1.0 - b2)),
                    *((path[sector1], path[sector2], tag, eps2 * b2 * share)
                      for sector1, sector2, tag, share in outcomes))


# The builders of each config's short and long pulse; ScenarioSpec has refused
# the regimes that spec._REGIMES does not define.
_SHORT = {Config.A: _build_A, Config.B: _build_B_short, Config.C1: _build_C_short,
          Config.C2: _build_C_short, Config.D: _build_D_short, Config.E: _build_E_short}
_LONG = {Config.A: _build_A, **dict.fromkeys(_OUTCOMES, _build_long)}


def build(spec: ScenarioSpec) -> TwoPathMixture:
    """Run a ScenarioSpec through its regime's builder, after spec.check_domain.

    ScenarioSpec has already resolved the default treatment (first order for
    config E, exact elsewhere) and refused undefined combinations with
    ScenarioError.
    """
    check_domain(spec)
    return (_SHORT if spec.pulse is Pulse.SHORT else _LONG)[spec.config](spec)


def _run(spec: ScenarioSpec, eraser: bool = False, dispersive=None,
         coincidence: str | None = None) -> tuple[TwoPathMixture, float]:
    """The mixture of the chain the module docstring describes, and its post-selection
    probability (1.0 without a coincidence). An eraser or a projector the marker
    space does not take raises ScenarioError with field "eraser" or "coincidence",
    before the build. build, transforms and condition are looked up when called, so a
    wrapper bound over those module names sees every call."""
    check_chain(spec, eraser, coincidence)
    m = build(spec)
    if eraser:
        m = transforms.apply_eraser(m)
    if dispersive is not None:
        m = transforms.apply_dispersive(m, dispersive)
    if coincidence is None:
        return m, 1.0
    return condition(m, transforms.named_projector(coincidence, m.space))


def _whichway(beta: float, delta: float, nmax: int) -> tuple[float, float]:
    """|<delta|beta>|^2 and |<delta|-beta>|^2 of the truncated coherent states,
    unclamped, after spec.check_whichway. coherent_state is looked up when called."""
    check_whichway(beta, delta, nmax)
    probe, plus, minus = (coherent_state(b, nmax) for b in (delta, beta, -beta))
    return abs(inner(probe, plus)) ** 2, abs(inner(probe, minus)) ** 2
