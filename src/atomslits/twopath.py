"""Two-path interference bookkeeping: patterns, visibility, coincidence cuts.

The universal carrier of interference information is a pair of marker states,
one attached to each scattering path, plus a frequency tag. The detector
position enters only through the relative path phase phi: path 1 carries a
unit factor and path 2 carries exp(i phi), so the recorded intensity is

    I(phi) = sum_k w_k || psi1_k + exp(i phi) psi2_k ||^2

summed incoherently over the components of a mixture. Components with
different frequency tags never interfere; a short coherent pulse is a single
component, a frequency-resolved long pulse is several.

Visibility has the closed form

    V = 2 |sum_k w_k <psi1_k|psi2_k>| / sum_k w_k (||psi1_k||^2 + ||psi2_k||^2)

and the phase offset is the principal argument of the same coherence sum, so
I(phi) is proportional to 1 + V cos(phi + phase_offset). pattern() reports the
closed-form values; the sampled curve is a consistency check, not the source
of truth. The sample grid phi and exp(i phi) for each sample count are
computed once and held read-only in a small bounded functools.lru_cache
table, which is thread-safe; scans with one sample count share their phis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import EmptyPatternError, SpaceMismatchError
from .fockspace import FockSpace, FockVector, inner
from .spec import FreqTag, _Frozen, check_nsamples

__all__ = [
    "FreqTag",
    "PatternScan",
    "Projector",
    "TwoPathComponent",
    "TwoPathMixture",
    "coherence_sum",
    "condition",
    "mean_intensity",
    "pattern",
    "phase_offset",
    "visibility",
]

# A mixture whose mean intensity falls below this fraction of its total weight
# has been conditioned into an empty sector.
_INTENSITY_FLOOR = 1e-24


class TwoPathComponent(_Frozen):
    """One incoherent component: marker states for path 1 and path 2.

    weight is a nonnegative probability-like factor; either path may carry
    the zero vector when the photon definitely took the other path.
    """

    _fields = ("psi1", "psi2", "tag", "weight")

    def __init__(self, psi1: FockVector, psi2: FockVector, tag: FreqTag = FreqTag.ELASTIC,
                 weight: float = 1.0) -> None:
        if psi1.space != psi2.space:
            raise SpaceMismatchError("psi1 and psi2 must live in the same FockSpace")
        w = float(weight)
        if w < 0 or not math.isfinite(w):
            raise ValueError(f"component weight must be finite and >= 0, got {w}")
        self.__dict__.update(psi1=psi1, psi2=psi2, tag=FreqTag(tag), weight=w)

    @classmethod
    def _wrap(cls, psi1: FockVector, psi2: FockVector, tag: FreqTag,
              weight: float) -> "TwoPathComponent":
        """Adopt path states of one space, a FreqTag and a finite float weight >= 0
        that the package has already checked, without the constructor's checks."""
        c = object.__new__(cls)
        c.__dict__.update(psi1=psi1, psi2=psi2, tag=tag, weight=weight)
        return c

    @property
    def space(self) -> FockSpace:
        return self.psi1.space


class TwoPathMixture(_Frozen):
    """Weighted incoherent set of TwoPathComponents over a common space."""

    _fields = ("components",)

    def __init__(self, components: tuple[TwoPathComponent, ...]) -> None:
        comps = tuple(components)
        if not comps:
            raise ValueError("a TwoPathMixture needs at least one component")
        space = comps[0].space
        for c in comps[1:]:
            if c.space != space:
                raise SpaceMismatchError("all components must share one FockSpace")
        if not 0 < sum(c.weight for c in comps) < math.inf:
            raise ValueError("total mixture weight must be positive and finite")
        self.__dict__["components"] = comps

    @classmethod
    def _wrap(cls, components: tuple[TwoPathComponent, ...]) -> "TwoPathMixture":
        """Adopt a tuple of components of one space with a positive, finite total
        weight that the package has already checked, without the constructor's checks."""
        m = object.__new__(cls)
        m.__dict__["components"] = components
        return m

    @property
    def space(self) -> FockSpace:
        return self.components[0].psi1.space

    @property
    def total_weight(self) -> float:
        return sum(c.weight for c in self.components)


class Projector(_Frozen):
    """The projector U U^dag on the marker space, applied pathwise by condition().

    columns is U, a dim x k block of orthonormal columns spanning the kept
    subspace; a coincidence projector is rank one, so k is 1 there and the
    dim x dim matrix is never formed. U^dag is formed once, at construction.
    The columns are copied in and must be finite, with a Gram matrix U^dag U
    idempotent within 1e-12, which is exactly when U U^dag is an orthogonal
    projector.
    """

    _fields = ("space", "columns", "name")

    def __init__(self, space: FockSpace, columns: np.ndarray, name: str = "custom") -> None:
        u = np.array(columns, dtype=np.complex128, copy=True)
        if u.ndim != 2 or u.shape[0] != space.dim:
            raise SpaceMismatchError(
                f"projector columns of shape {u.shape} do not match "
                f"space dimension {space.dim}"
            )
        if not np.isfinite(u).all():
            raise ValueError(f"projector '{name}' columns must be finite")
        # huge finite columns overflow the Gram matrix to inf or nan; both are refused
        with np.errstate(over="ignore", invalid="ignore"):
            gram = u.conj().T @ u
            gap = np.abs(gram @ gram - gram).max(initial=0.0)
        if not gap <= 1e-12:
            raise ValueError(
                f"projector '{name}' columns do not span an orthogonal projector: "
                f"U^dag U is not idempotent within 1e-12"
            )
        self._adopt(space, u, name)

    def _adopt(self, space: FockSpace, u: np.ndarray, name: str) -> None:
        adjoint = u.conj().T
        u.setflags(write=False)
        adjoint.setflags(write=False)
        # one column whose only nonzero entry is exactly 1, as for a number state
        single = u.shape[1] == 1 and int(np.count_nonzero(u)) == 1 and bool((u == 1).any())
        self.__dict__.update(space=space, columns=u, name=name, _adjoint=adjoint,
                             _single=single)

    @classmethod
    def _wrap(cls, space: FockSpace, columns: np.ndarray, name: str) -> "Projector":
        """Adopt a dim x k complex128 block of orthonormal columns the package has
        just allocated, without a copy or the constructor's checks."""
        p = object.__new__(cls)
        p._adopt(space, columns, name)
        return p

    def _image(self, v: FockVector, images: dict) -> FockVector:
        """U (U^dag v), kept in `images` by id(v) (v alive in the caller) and by U^dag v's bytes."""
        out = images.get(id(v))
        if out is None:
            # np.dot, not @: matmul takes a slow loop for a (dim, 1) by (1,) product
            s = np.dot(self._adjoint, v.amplitudes)
            key = s.tobytes()
            out = images.get(key)
            if out is None:
                out = images[key] = FockVector._wrap(self.space, np.dot(self.columns, s))
                if self._single:  # s at one level, +-0 elsewhere: each norm() dot adds
                    z = s.item()  # one rounded square to exact zeros, in any order
                    out.__dict__["_norm"] = math.sqrt(z.real * z.real + z.imag * z.imag)
            images[id(v)] = out
        return out

    def apply(self, v: FockVector) -> FockVector:
        if v.space != self.space:
            raise SpaceMismatchError(
                f"projector '{self.name}' is defined on {self.space.mode_dims}, "
                f"state lives in {v.space.mode_dims}"
            )
        return self._image(v, {})


@dataclass(frozen=True, eq=False)
class PatternScan:
    """A sampled interference curve I(phi) plus its extracted fringe data.

    `visibility` and `phase_offset` are the closed-form values; the samples
    satisfy I(phi) = mean * (1 + V cos(phi + phase_offset)) and can be used to
    recompute them as a consistency check. Every value must be finite.
    """

    phis: np.ndarray
    intensities: np.ndarray
    visibility: float
    phase_offset: float

    def __post_init__(self) -> None:
        phis = np.array(self.phis, dtype=float, copy=True)
        ints = np.array(self.intensities, dtype=float, copy=True)
        if phis.shape != ints.shape:
            raise ValueError("phis and intensities must have the same shape")
        if not (np.isfinite(phis).all() and np.isfinite(ints).all()
                and math.isfinite(self.visibility) and math.isfinite(self.phase_offset)):
            raise ValueError("phis, intensities, visibility and phase_offset must be finite")
        phis.setflags(write=False)
        ints.setflags(write=False)
        object.__setattr__(self, "phis", phis)
        object.__setattr__(self, "intensities", ints)

    def sampled_visibility(self) -> float:
        """(Imax - Imin)/(Imax + Imin) recomputed from the stored samples."""
        hi = float(self.intensities.max())
        lo = float(self.intensities.min())
        return (hi - lo) / (hi + lo)


def coherence_sum(m: TwoPathMixture) -> complex:
    """The cross term sum_k w_k <psi1_k|psi2_k> whose magnitude sets the contrast."""
    total = 0j
    for c in m.components:
        total += c.weight * inner(c.psi1, c.psi2)
    return total


def mean_intensity(m: TwoPathMixture) -> float:
    """Phase average of I(phi): sum_k w_k (||psi1_k||^2 + ||psi2_k||^2).

    Computed on first use and kept on the mixture, which never changes.
    """
    d = m.__dict__.get("_mean_intensity")
    if d is None:
        d = 0
        for c in m.components:
            d += c.weight * (c.psi1.norm() ** 2 + c.psi2.norm() ** 2)
        m.__dict__["_mean_intensity"] = d
    return d


def _require_light(m: TwoPathMixture) -> float:
    """The mean intensity, checked to be light with a finite fringe peak; kept once checked."""
    d = m.__dict__.get("_light")
    if d is None:
        d = mean_intensity(m)
        if d <= _INTENSITY_FLOOR * m.total_weight:
            raise EmptyPatternError(
                "both paths carry zero amplitude; the state was fully conditioned away")
        if not math.isfinite(2.0 * d):
            raise ValueError(
                f"the fringe peak, twice the mean intensity {d:.4g}, overflows a float")
        m.__dict__["_light"] = d
    return d


def _principal_phase(z: complex) -> float:
    if z == 0:
        return 0.0
    im = z.imag
    if im == 0.0:
        im = 0.0  # collapse -0.0 so a negative-real coherence reports +pi
    return math.atan2(im, z.real)


def visibility(m: TwoPathMixture) -> float:
    """Closed-form fringe visibility of the mixture, in [0, 1]."""
    d = _require_light(m)
    return min(2.0 * abs(coherence_sum(m)) / d, 1.0)  # full contrast can round above 1


def phase_offset(m: TwoPathMixture) -> float:
    """Principal argument of the coherence sum, in (-pi, pi]; 0 for flat patterns."""
    _require_light(m)
    return _principal_phase(coherence_sum(m))


@lru_cache(maxsize=8, typed=True)
def _unit_circle(nsamples: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only uniform grid phi over [0, 2 pi) and exp(i phi), for pattern()."""
    phis = 2.0 * np.pi * np.arange(nsamples) / nsamples
    circle = np.exp(1j * phis)
    phis.setflags(write=False)
    circle.setflags(write=False)
    return phis, circle


def pattern(m: TwoPathMixture, nsamples: int = 256) -> PatternScan:
    """Sample I(phi) on a uniform grid over [0, 2 pi) and extract the fringe data.

    The stored visibility and phase offset come from the closed forms; with a
    grid that contains the extrema (any multiple of 4 samples for the states
    built here) the sampled (Imax - Imin)/(Imax + Imin) reproduces them.

    Raises EmptyPatternError when every path amplitude is zero, and ScenarioError
    with field "nsamples" for fewer than 16 samples.
    """
    check_nsamples(nsamples)
    d = _require_light(m)
    c = coherence_sum(m)
    phis, circle = _unit_circle(nsamples)
    re = (c * circle).real
    intensities = re + re  # d + 2 Re(c e^{i phi}) to the bit: IEEE + commutes, x + x = 2 x
    intensities += d
    # exact minima of a V = 1 pattern can round to a few ulp below zero; as d > 0 no
    # sample is -0.0, so the clip is needed only where the minimum is below zero
    lowest = np.minimum.reduce(intensities)
    if lowest < -1e-9 * d:
        raise AssertionError("intensity went significantly negative; bookkeeping bug")
    if lowest < 0.0:
        np.maximum(intensities, 0.0, out=intensities)
    intensities.setflags(write=False)  # adopted with the read-only grid, unchecked
    scan = object.__new__(PatternScan)
    scan.__dict__.update(phis=phis, intensities=intensities,
                         visibility=min(2.0 * abs(c) / d, 1.0),
                         phase_offset=_principal_phase(c))
    return scan


def condition(m: TwoPathMixture, projector: Projector) -> tuple[TwoPathMixture, float]:
    """Project every path state; weights stay untouched.

    The norm lost to the projection is the coincidence post-selection cost.
    Returns the conditioned mixture and the post-selection probability, i.e.
    the surviving fraction of the mean intensity.
    """
    if projector.space is not m.space and projector.space != m.space:
        raise SpaceMismatchError(
            f"projector '{projector.name}' does not act on the mixture's space"
        )
    before = _require_light(m)
    # a path met twice is projected once; equal U^dag v bytes share one image
    images: dict = {}
    components = []
    for c in m.components:
        psi1, psi2 = projector._image(c.psi1, images), projector._image(c.psi2, images)
        components.append(TwoPathComponent._wrap(psi1, psi2, c.tag, c.weight))
    conditioned = TwoPathMixture._wrap(tuple(components))
    return conditioned, mean_intensity(conditioned) / before
