"""States of truncated harmonic-oscillator modes, and the displacement operator.

A FockSpace is one or more bosonic modes, each cut off at a finite number of
levels. Joint amplitudes are stored row-major with the first listed mode
slowest: the flat index of occupation (n0, n1) in a space with dims (d0, d1)
is n0 * d1 + n1. Operators and serialization both rely on this ordering.

All values are immutable after construction and every function is pure, so
states and operators can be shared across threads without coordination. The
spaces the package builds are interned by dims: equal dims give one shared
FockSpace object. The per-nmax level table of the coherent series is computed
once and held read-only, and so is each fixed state (basis_state,
ground_state, zero_vector, the normal modes and the negations the builders
use), one per (space, state) with its norm, in a table of 32 that holds at
most 15.0 MB at nmax 171; spaces of more than 171**2 levels get new arrays.
All live in small bounded functools.lru_cache tables, which are thread-safe.
"""

from __future__ import annotations

import math
import operator
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .errors import SpaceMismatchError, TruncationError
from .spec import MAX_NMAX, _Frozen, check_nmax

__all__ = [
    "FockSpace",
    "FockVector",
    "basis_state",
    "check_nmax",
    "coherent_state",
    "displacement_operator",
    "ground_state",
    "inner",
    "project",
    "tensor",
    "zero_vector",
]


class FockSpace(_Frozen):
    """Composite truncated oscillator space; dimensions are fixed for life."""

    _fields = ("mode_dims",)

    def __init__(self, mode_dims: tuple[int, ...]) -> None:
        dims = tuple(int(d) for d in mode_dims)
        if len(dims) == 0:
            raise ValueError("a FockSpace needs at least one mode")
        if any(d < 2 for d in dims):
            raise ValueError(f"every mode dimension must be >= 2, got {dims}")
        self.__dict__["mode_dims"] = dims

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self.mode_dims == other.mode_dims if same else NotImplemented

    def __hash__(self) -> int:
        return hash((self.mode_dims,))

    @cached_property
    def dim(self) -> int:
        return math.prod(self.mode_dims)

    @property
    def nmodes(self) -> int:
        return len(self.mode_dims)

    def index(self, occupations: Sequence[int]) -> int:
        """Flat row-major index of a joint level (first listed mode slowest)."""
        occupations = tuple(occupations)
        if len(occupations) != len(self.mode_dims):
            raise ValueError(
                f"parameter multi_index must be a sequence of length {len(self.mode_dims)}"
            )
        flat = 0
        for n, d in zip(occupations, self.mode_dims):
            n = operator.index(n)
            if not 0 <= n < d:
                raise ValueError("invalid entry in coordinates array")
            flat = flat * d + n
        return flat


@lru_cache(maxsize=32)
def _space(mode_dims: tuple[int, ...]) -> FockSpace:
    """The package's one shared FockSpace for these dims."""
    return FockSpace(mode_dims)


class FockVector(_Frozen):
    """Complex amplitude vector over a FockSpace.

    Amplitudes are copied in and frozen, and must be finite with a finite
    norm. The norm is computed on first use and kept, which is safe because
    the amplitudes never change.
    """

    _fields = ("space", "amplitudes")

    def __init__(self, space: FockSpace, amplitudes: np.ndarray) -> None:
        amps = np.array(amplitudes, dtype=np.complex128, copy=True).reshape(-1)
        if amps.shape != (space.dim,):
            raise ValueError(
                f"amplitude length {amps.shape[0]} does not match "
                f"space dimension {space.dim}"
            )
        amps.setflags(write=False)
        self.__dict__.update(space=space, amplitudes=amps)
        # a NaN or inf amplitude, or huge ones, give a norm that is not finite
        with np.errstate(over="ignore"):
            if not math.isfinite(self.norm()):
                raise ValueError("amplitudes and their norm must be finite")

    @classmethod
    def _wrap(cls, space: FockSpace, amps: np.ndarray) -> "FockVector":
        """Adopt a 1-D complex128 array of length space.dim without copying.

        For an array the package has just allocated, or the read-only
        amplitudes of another vector; the array is frozen in place.
        """
        v = object.__new__(cls)
        amps.setflags(write=False)
        v.__dict__.update(space=space, amplitudes=amps)
        return v

    def norm(self) -> float:
        n = self.__dict__.get("_norm")
        if n is None:
            # the sum np.linalg.norm forms for a complex vector, without its dispatch
            re, im = self.amplitudes.real, self.amplitudes.imag
            n = self.__dict__["_norm"] = math.sqrt(re.dot(re) + im.dot(im))
        return n

    def __neg__(self) -> "FockVector":
        # negating the float64 parts writes the bytes of -amplitudes, signed zeros
        # too, without the complex loop
        flipped = np.negative(self.amplitudes.view(np.float64))
        out = FockVector._wrap(self.space, flipped.view(np.complex128))
        if "_norm" in self.__dict__:  # the same squares, summed in the same order
            out.__dict__["_norm"] = self.__dict__["_norm"]
        return out


# The fixed-state and projector tables hold vectors of at most two modes of
# MAX_NMAX levels, the largest marker space: 467,856 bytes each. A larger
# space gets new arrays on every call, so no table can pin more.
_SHARED_DIM_MAX = MAX_NMAX**2


def _shared(table, space: FockSpace):
    """The lru_cache table for a space up to _SHARED_DIM_MAX, else its uncached function."""
    return table if space.dim <= _SHARED_DIM_MAX else table.__wrapped__


def _superposition(space: FockSpace, terms: tuple[tuple[int, complex], ...]) -> FockVector:
    """sum_k c_k |k> over flat levels k, each c_k added to a zero: the bits of the
    scaled basis-vector sum."""
    amps = np.zeros(space.dim, dtype=np.complex128)
    for k, c in terms:
        amps[k] = amps.item(k) + c  # the IEEE sum numpy's scalar += forms
    return FockVector._wrap(space, amps)


@lru_cache(maxsize=32)
def _fixed_state(mode_dims: tuple[int, ...], terms: tuple[tuple[int, complex], ...],
                 negated: bool) -> FockVector:
    """_superposition on the shared space of these dims, or its negation, read only.

    Number states, the empty path and the fixed normal modes are computed once
    and shared with their norm once computed. Marker traffic uses about 8 per
    space; the 32 entries hold at most 32 x 467,856 = 14,971,392 bytes at nmax
    171.
    """
    v = _superposition(_space(mode_dims), terms)
    return -v if negated else v


def _shared_state(space: FockSpace, terms: tuple[tuple[int, complex], ...],
                  negated: bool = False) -> FockVector:
    """_fixed_state for this space. Its coefficients must be fixed and nonzero: +0.0
    and -0.0 would be one key with two results."""
    return _shared(_fixed_state, space)(space.mode_dims, terms, negated)


def basis_state(space: FockSpace, occupations: Sequence[int]) -> FockVector:
    """Number state |n0, n1, ...> of the given space, read only and shared."""
    return _shared_state(space, ((space.index(occupations), 1.0),))


def ground_state(space: FockSpace) -> FockVector:
    return _shared_state(space, ((0, 1.0),))


def zero_vector(space: FockSpace) -> FockVector:
    """The null vector, read only and shared; used for a path carrying no amplitude."""
    return _shared_state(space, ())


def _squared_abs(z: complex) -> float:
    """abs(z) ** 2, or inf where that square overflows a float."""
    try:
        return abs(z) ** 2
    except OverflowError:
        return math.inf


def _truncation_guard(beta: complex, nmax: int) -> None:
    check_nmax(nmax)
    b2 = _squared_abs(beta)
    if math.isnan(b2):
        raise ValueError(f"coherent amplitude {beta:.4g} is not a number")
    if b2 > nmax:
        raise TruncationError(
            f"coherent amplitude {beta:.4g} has squared modulus {b2:.4g} above the "
            f"truncation dimension {nmax}; the cutoff would drop most of the state"
        )


def _check_residual(name: str, amplitude: complex, residual: float, nmax: int) -> None:
    """Refuse a coherent amplitude whose truncation residual is above 1e-10; the
    caller checks only the amplitudes whose residual reaches an output."""
    if residual > 1e-10:
        raise TruncationError(
            f"coherent amplitude {name} = {amplitude:.4g} loses {residual:.2g} of its state "
            f"to the truncation at nmax {nmax}, above 1e-10; use a larger --nmax"
        )


@lru_cache(maxsize=32, typed=True)
def _levels(nmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only levels n = 0..nmax-1 and sqrt(n!), the coherent series' fixed part."""
    n = np.arange(nmax)
    root_factorial = np.sqrt(np.maximum(n, 1.0).cumprod())
    n.setflags(write=False)
    root_factorial.setflags(write=False)
    return n, root_factorial


def coherent_state(beta: complex, nmax: int) -> tuple[FockVector, float]:
    """Truncated coherent state |beta>, renormalized to unit norm.

    Amplitudes follow the analytic series c_n = exp(-|beta|^2/2) beta^n / sqrt(n!)
    for n < nmax. Returns the renormalized state together with the truncation
    residual 1 - sum |c_n|^2, the tail mass lost to the cutoff before
    renormalization.
    """
    _truncation_guard(beta, nmax)
    b = complex(beta)
    n, root_factorial = _levels(nmax)
    amps = math.exp(-abs(b) ** 2 / 2.0) * b**n / root_factorial
    captured = float(np.vdot(amps, amps).real)
    residual = max(0.0, 1.0 - captured)
    amps /= math.sqrt(captured)
    return FockVector._wrap(_space((nmax,)), amps), residual


def displacement_operator(beta: complex, nmax: int) -> np.ndarray:
    """Matrix exponential of beta a^dag - conj(beta) a in the truncated space.

    The exponent is -i times the Hermitian generator H = i(beta a^dag -
    conj(beta) a), so the exponential is V exp(-i w) V^dag from the
    eigendecomposition H = V w V^dag. This is an independent construction
    from the coherent_state series; applied to the ground state the two agree
    up to the truncation residual, which is the module's own cross-check.
    Unitary to high accuracy whenever |beta|^2 is small against nmax.
    """
    _truncation_guard(beta, nmax)
    b = complex(beta)
    # the annihilation operator a in the truncated number basis
    a = np.diag(np.sqrt(np.arange(1, nmax, dtype=float)), k=1).astype(np.complex128)
    w, v = np.linalg.eigh(1j * (b * a.conj().T - b.conjugate() * a))
    return (v * np.exp(-1j * w)) @ v.conj().T


def inner(u: FockVector, v: FockVector) -> complex:
    """Sesquilinear inner product <u|v>, conjugate-linear in the first slot."""
    if u.space is not v.space and u.space != v.space:
        raise SpaceMismatchError(
            f"operands live in different spaces: {u.space.mode_dims} vs {v.space.mode_dims}"
        )
    return complex(np.vdot(u.amplitudes, v.amplitudes))


def tensor(vectors: Sequence[FockVector]) -> FockVector:
    """Kronecker composition in listed order (first factor slowest), as np.kron.

    Raises ValueError where the product's norm would overflow a float.
    """
    if len(vectors) == 0:
        raise ValueError("tensor of an empty list is undefined")
    # the norm of each partial product is the product of its factors' norms; its
    # square, with a factor 2 for rounding, must stay finite or norm() overflows
    norm = 1.0
    for v in vectors:
        norm *= v.norm()
        if not math.isfinite(2.0 * norm * norm):
            raise ValueError("the norm of the tensor product overflows a float")
    return _product(vectors)


def _product(vectors: Sequence[FockVector]) -> FockVector:
    """tensor without its checks, for factors whose norms are known to be small."""
    amps, dims = vectors[0].amplitudes, vectors[0].space.mode_dims
    for v in vectors[1:]:
        amps = np.multiply.outer(amps, v.amplitudes).ravel()
        dims += v.space.mode_dims
    return FockVector._wrap(_space(dims), amps)


def project(v: FockVector, mode_index: int, fock_level: int) -> tuple[FockVector, float]:
    """Unnormalized component of v with one mode pinned to a Fock level.

    Returns the projected vector and its squared norm, i.e. the probability
    of finding that mode at the given level (relative to ||v||^2 = 1).
    """
    space = v.space
    if not 0 <= mode_index < space.nmodes:
        raise ValueError(
            f"mode_index {mode_index} out of range for {space.nmodes} modes"
        )
    if not 0 <= fock_level < space.mode_dims[mode_index]:
        raise ValueError(
            f"fock_level {fock_level} out of range for "
            f"mode dimension {space.mode_dims[mode_index]}"
        )
    out = np.zeros(space.dim, dtype=np.complex128)
    sel: list = [slice(None)] * space.nmodes
    sel[mode_index] = fock_level
    out.reshape(space.mode_dims)[tuple(sel)] = v.amplitudes.reshape(space.mode_dims)[tuple(sel)]
    projected = FockVector._wrap(space, out)
    return projected, projected.norm() ** 2
