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

from . import transforms
from .errors import PerturbationError
from .fockspace import (
    FockVector,
    _check_residual,
    _product,
    _shared_state,
    _space,
    _squared_abs,
    _superposition,
    basis_state,
    coherent_state,
    ground_state,
    inner,
    zero_vector,
)
from .spec import Config, FreqTag, Pulse, ScenarioSpec, Treatment, check_chain
from .twopath import TwoPathComponent, TwoPathMixture, condition

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


# The builders of each config's short and long pulse; ScenarioSpec has refused
# the regimes that spec._REGIMES does not define.
_SHORT = {Config.A: build_A, Config.B: build_B_short, Config.C1: build_C_short,
          Config.C2: build_C_short, Config.D: build_D_short, Config.E: build_E_short}
_LONG = {Config.A: build_A, Config.B: build_B_long, Config.C1: build_C_long,
         Config.C2: build_C_long, Config.E: build_E_long}


def build(spec: ScenarioSpec) -> TwoPathMixture:
    """Run a ScenarioSpec through its regime's builder.

    ScenarioSpec has already resolved the default treatment (first order for
    config E, exact elsewhere) and refused undefined combinations with
    ScenarioError. Raises PerturbationError outside the perturbative domain:
    |beta| < 1 for first-order B and E, |beta|^2 < 0.5 for every long pulse
    and first-order C/D.
    """
    return (_SHORT if spec.pulse is Pulse.SHORT else _LONG)[spec.config](spec)


def _run(spec: ScenarioSpec, eraser: bool = False, dispersive=None,
         coincidence: str | None = None) -> tuple[TwoPathMixture, float]:
    """The mixture of the chain the module docstring describes, and its post-selection
    probability (1.0 without a coincidence). An eraser or a projector the marker
    space does not take raises ScenarioError with field "eraser" or "coincidence",
    before the build. build, transforms and condition are looked up when called, so
    a wrapper bound over those module names sees every call."""
    check_chain(spec, eraser, coincidence)
    m = build(spec)
    for name, residual in m.__dict__.get("_residuals", {}).items():
        if name == "beta" or coincidence is not None:
            _check_residual(name, getattr(spec, name), residual, spec.nmax)
    if eraser:
        m = transforms.apply_eraser(m)
    if dispersive is not None:
        m = transforms.apply_dispersive(m, dispersive)
    if coincidence is None:
        return m, 1.0
    return condition(m, transforms.named_projector(coincidence, m.space))


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
