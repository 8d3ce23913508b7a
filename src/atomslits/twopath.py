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
I(phi) is proportional to 1 + V cos(phi + phase_offset). visibility(), phase_offset()
and pattern() read both from one private readout; the sampled curve is a consistency
check, not the source of truth. The sample grid phi and exp(i phi) for each sample
count are computed once and held read-only in a small bounded functools.lru_cache
table, which is thread-safe; scans with one sample count share their phis. On a space
of fockspace's scalar engine, projector images and pattern samples are plain Python
in its reference arithmetic, and the scan's arrays are built when first read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import EmptyPatternError, SpaceMismatchError
from .fockspace import FockSpace, FockVector, _mul, _scalar, _sum, inner
from .spec import FreqTag, _Frozen, _member, check_kick, check_nsamples

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
        self.__dict__.update(psi1=psi1, psi2=psi2, tag=_member(FreqTag, tag), weight=w)

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
    """Weighted incoherent set of TwoPathComponents over a common space.

    common_kick is alpha of config D's common-mode kick, which cancels from V and the
    phase: the transforms carry it, and condition refuses its truncation residual by
    spec.check_kick. None on every other mixture and on a constructed one.
    """

    _fields = ("components",)
    common_kick: complex | None = None

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
    def _wrap(cls, components: tuple[TwoPathComponent, ...],
              common_kick: complex | None = None) -> "TwoPathMixture":
        """Adopt a tuple of components of one space with a positive, finite total
        weight that the package has already checked, without the constructor's checks."""
        m = object.__new__(cls)
        m.__dict__.update(components=components, common_kick=common_kick)
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
    dim x dim matrix is never formed: a named projector keeps its unit state as
    its column, and `columns` is a read-only view of that state's amplitudes.
    U^dag is a read-only transpose view of U where the columns are real, as every
    named projector's is, and a conjugate copy only where a column is complex.
    The columns are copied in and must be finite, with a Gram matrix U^dag U
    idempotent within 1e-12, which is exactly when U U^dag is an orthogonal
    projector, and each column must be exactly zero or of unit norm within 1e-12.
    """

    _fields = ("space", "columns", "name")

    def __init__(self, space: FockSpace, columns: np.ndarray, name: str = "custom") -> None:
        import numpy as np

        u = np.array(columns, dtype=np.complex128, copy=True)
        if u.ndim != 2 or u.shape[0] != space.dim:
            raise SpaceMismatchError(
                f"projector columns of shape {u.shape} do not match "
                f"space dimension {space.dim}"
            )
        if not np.isfinite(u).all():
            raise ValueError(f"projector '{name}' columns must be finite")
        # huge columns overflow the Gram matrix to inf or nan, and tiny ones pass its absolute
        # test; each column's norm is scaled by its largest entry (1 if zero) not to underflow
        with np.errstate(over="ignore", invalid="ignore"):
            gram = u.conj().T @ u
            gap = np.abs(gram @ gram - gram).max(initial=0.0)
            size = np.abs(u)
            scale = size.max(axis=0, initial=0.0) + ~u.any(axis=0)
            norms = scale * np.sqrt(((size / scale) ** 2).sum(axis=0))
        if not (gap <= 1e-12 and ((abs(norms - 1.0) <= 1e-12) | (norms == 0.0)).all()):
            raise ValueError(
                f"projector '{name}' columns do not span an orthogonal projector: "
                f"U^dag U is not idempotent within 1e-12, or a column's norm is not 0 or 1"
            )
        u.setflags(write=False)
        self.__dict__.update(space=space, columns=u, name=name)

    @classmethod
    def _wrap(cls, state: FockVector, name: str) -> "Projector":
        """The rank-one projector onto a unit state the package has built, kept as its
        column without a copy or the constructor's checks."""
        p = object.__new__(cls)
        p.__dict__.update(space=state.space, name=name, _columns=(state,))
        return p

    @cached_property
    def columns(self) -> np.ndarray:  # a wrapped projector's: a view of its state
        return self._columns[0].amplitudes[:, None]

    @cached_property
    def _columns(self) -> tuple[FockVector, ...]:
        """Each column of U as a vector of the space."""
        return tuple(FockVector._wrap(self.space, u) for u in self.columns.T)

    @cached_property
    def _adjoint(self) -> np.ndarray:
        u = self.columns
        # real columns: U^dag is the view U^T. conj would only flip the signs of zero
        # imaginary parts, whose products add +-0 to sums np.dot starts at +0: same bytes
        adjoint = u.conj().T if u.imag.any() else u.T
        adjoint.setflags(write=False)
        return adjoint

    @cached_property
    def _single(self) -> bool:
        """One column whose only nonzero entry is exactly 1, as for a number state."""
        if _scalar(self.space):
            values = self._columns[0]._values if len(self._columns) == 1 else [0j]
            return values.count(0) == len(values) - 1 and 1 in values
        import numpy as np

        u = self.columns
        return u.shape[1] == 1 and int(np.count_nonzero(u)) == 1 and bool((u == 1).any())

    def _image(self, v: FockVector, images: dict) -> FockVector:
        """U (U^dag v), kept in `images` by id(v) (v alive in the caller) and by U^dag v's bits.

        The scalar engine forms U^dag v as inner products and each level of U s from
        float64 parts, summed over the columns pairwise."""
        out = images.get(id(v))
        if out is None:
            scalar = _scalar(self.space)
            if scalar:
                s = [inner(u, v) for u in self._columns]
                key = repr(s)  # repr tells -0.0 from 0.0
            else:
                import numpy as np

                # np.dot, not @: matmul takes a slow loop for a (dim, 1) by (1,) product
                s = np.dot(self._adjoint, v.amplitudes)
                key = s.tobytes()
            out = images.get(key)
            if out is None:
                if scalar:
                    terms = [[_mul(x, z) for x in u._values] for u, z in zip(self._columns, s)]
                    amps = terms[0] if len(terms) == 1 else [
                        complex(_sum([t[k].real for t in terms]), _sum([t[k].imag for t in terms]))
                        for k in range(self.space.dim)]
                else:
                    amps = np.dot(self.columns, s)
                out = images[key] = FockVector._wrap(self.space, amps)
                if self._single:  # s at one level, +-0 elsewhere: each norm sum adds one
                    z = s[0] if scalar else s.item()  # rounded square to exact zeros, in any order
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
    recompute them as a consistency check. Every value must be finite. pattern on
    a space of the scalar engine keeps the samples as lists of floats, and builds
    each read-only array when first read.
    """

    phis: np.ndarray
    intensities: np.ndarray
    visibility: float
    phase_offset: float

    def __post_init__(self) -> None:
        import numpy as np

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

    def __getattr__(self, name: str):  # only reached for an array pattern left as a list
        if name not in ("phis", "intensities"):
            raise AttributeError(name)
        import numpy as np

        array = self.__dict__[name] = np.array(self.__dict__["_" + name], dtype=float)
        array.setflags(write=False)
        return array

    def _lists(self) -> tuple[list[float], list[float]]:
        """phis and intensities as lists of floats."""
        if "_phis" in self.__dict__:
            return self.__dict__["_phis"], self.__dict__["_intensities"]
        return self.phis.tolist(), self.intensities.tolist()


def coherence_sum(m: TwoPathMixture) -> complex:
    """The cross term sum_k w_k <psi1_k|psi2_k> whose magnitude sets the contrast.

    Summed from 0j, neither part is ever -0.0 (+0.0 + -0.0 and x + -x are +0.0), so
    its atan2 is +pi on the negative real axis and 0.0 at zero."""
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
    """The mean intensity d, checked to be light and finite; |S| <= d/2 keeps 2|S|/d finite."""
    d = mean_intensity(m)
    if d <= _INTENSITY_FLOOR * m.total_weight:
        raise EmptyPatternError(
            "both paths carry zero amplitude; the state was fully conditioned away")
    if d == math.inf:
        raise ValueError("the mean intensity of the mixture overflows a float")
    return d


def _readout(m: TwoPathMixture) -> tuple[float, complex, float, float]:
    """The fringe data every output reads: the checked mean intensity d, the coherence sum
    S, V = min(2|S|/d, 1) (full contrast can round above 1) and atan2(S.imag, S.real)."""
    d = _require_light(m)
    c = coherence_sum(m)
    return d, c, min(2.0 * abs(c) / d, 1.0), math.atan2(c.imag, c.real)


def visibility(m: TwoPathMixture) -> float:
    """Closed-form fringe visibility of the mixture, in [0, 1]."""
    return _readout(m)[2]


def phase_offset(m: TwoPathMixture) -> float:
    """Principal argument of the coherence sum, in (-pi, pi]; 0 for flat patterns."""
    return _readout(m)[3]


@lru_cache(maxsize=8, typed=True)
def _unit_circle(nsamples: int, scalar: bool = False) -> tuple:
    """Uniform grid phi over [0, 2 pi) and exp(i phi), for pattern(): read-only arrays,
    or for the scalar engine lists, exp(i phi) as cos(phi) + i sin(phi)."""
    if scalar:
        phis = [2.0 * math.pi * k / nsamples for k in range(int(nsamples))]
        return phis, [complex(math.cos(phi), math.sin(phi)) for phi in phis]
    import numpy as np

    phis = 2.0 * np.pi * np.arange(nsamples) / nsamples
    circle = np.exp(1j * phis)
    phis.setflags(write=False)
    circle.setflags(write=False)
    return phis, circle


def pattern(m: TwoPathMixture, nsamples: int = 256) -> PatternScan:
    """Sample I(phi) on a uniform grid over [0, 2 pi) and extract the fringe data.

    The stored visibility and phase offset are visibility(m) and phase_offset(m); with a
    grid that contains the extrema (any multiple of 4 samples for the states
    built here) the sampled (Imax - Imin)/(Imax + Imin) reproduces them.

    Raises EmptyPatternError when every path amplitude is zero, ValueError where the
    fringe peak, twice the mean intensity, overflows a float, and ScenarioError
    with field "nsamples", before the grid is allocated, for a count that is not
    a whole number in [16, 65536].
    """
    check_nsamples(nsamples)
    d, c, v, phase = _readout(m)
    if not math.isfinite(2.0 * d):
        raise ValueError(f"the fringe peak, twice the mean intensity {d:.4g}, overflows a float")
    # d + 2 Re(c e^{i phi}) to the bit: IEEE + commutes, x + x = 2 x
    scalar = _scalar(m.space)
    if scalar:  # Re(c e^{i phi}) from float64 parts
        phis, circle = _unit_circle(nsamples, True)
        intensities = [x + x + d for x in (c.real * z.real - c.imag * z.imag for z in circle)]
        lowest = min(intensities)
    else:
        import numpy as np

        phis, circle = _unit_circle(nsamples)
        re = (c * circle).real
        intensities = re + re
        intensities += d
        lowest = np.minimum.reduce(intensities)
    # exact minima of a V = 1 pattern can round to a few ulp below zero; as d > 0 no
    # sample is -0.0, so the clip is needed only where the minimum is below zero
    if lowest < -1e-9 * d:
        raise AssertionError("intensity went significantly negative; bookkeeping bug")
    if lowest < 0.0:
        intensities = ([max(x, 0.0) for x in intensities] if scalar
                       else np.maximum(intensities, 0.0))
    if not scalar:
        intensities.setflags(write=False)  # adopted with the read-only grid, unchecked
    key = "_" if scalar else ""  # the scalar engine's lists become arrays when first read
    scan = object.__new__(PatternScan)
    scan.__dict__.update({key + "phis": phis, key + "intensities": intensities},
                         visibility=v, phase_offset=phase)
    return scan


def condition(m: TwoPathMixture, projector: Projector) -> tuple[TwoPathMixture, float]:
    """Project every path state; weights and the common kick stay untouched.

    The norm lost to the projection is the coincidence post-selection cost.
    Returns the conditioned mixture and the post-selection probability, i.e.
    the surviving fraction of the mean intensity. A projection reads the common
    kick, so spec.check_kick refuses it first.
    """
    if projector.space is not m.space and projector.space != m.space:
        raise SpaceMismatchError(
            f"projector '{projector.name}' does not act on the mixture's space"
        )
    if m.common_kick is not None:  # its mode is the first, cut at nmax like the other
        check_kick("alpha", m.common_kick, m.space.mode_dims[0])
    before = _require_light(m)
    # a path met twice is projected once; equal U^dag v bytes share one image
    images: dict = {}
    components = []
    for c in m.components:
        psi1, psi2 = projector._image(c.psi1, images), projector._image(c.psi2, images)
        components.append(TwoPathComponent._wrap(psi1, psi2, c.tag, c.weight))
    conditioned = TwoPathMixture._wrap(tuple(components), m.common_kick)
    return conditioned, mean_intensity(conditioned) / before
