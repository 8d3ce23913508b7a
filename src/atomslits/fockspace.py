"""States and ladder operators of truncated harmonic-oscillator modes.

A FockSpace is one or more bosonic modes, each cut off at a finite number of
levels. Joint amplitudes are stored row-major with the first listed mode
slowest: the flat index of occupation (n0, n1) in a space with dims (d0, d1)
is n0 * d1 + n1. Operators and serialization both rely on this ordering.

All values are immutable after construction and every function is pure, so
states and operators can be shared across threads without coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import SpaceMismatchError, TruncationError

__all__ = [
    "FockSpace",
    "FockVector",
    "basis_state",
    "check_nmax",
    "coherent_state",
    "create",
    "destroy",
    "displacement_operator",
    "ground_state",
    "inner",
    "project",
    "tensor",
    "zero_vector",
]


@dataclass(frozen=True)
class FockSpace:
    """Composite truncated oscillator space; dimensions are fixed for life."""

    mode_dims: tuple[int, ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.mode_dims)
        if len(dims) == 0:
            raise ValueError("a FockSpace needs at least one mode")
        if any(d < 2 for d in dims):
            raise ValueError(f"every mode dimension must be >= 2, got {dims}")
        labels = tuple(str(label) for label in self.labels)
        if not labels:
            labels = tuple(f"mode{i}" for i in range(len(dims)))
        if len(labels) != len(dims):
            raise ValueError("labels and mode_dims differ in length")
        object.__setattr__(self, "mode_dims", dims)
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return math.prod(self.mode_dims)

    @property
    def nmodes(self) -> int:
        return len(self.mode_dims)

    def index(self, occupations: Sequence[int]) -> int:
        """Flat row-major index of a joint level (first listed mode slowest)."""
        return int(np.ravel_multi_index(tuple(occupations), self.mode_dims))


@dataclass(frozen=True, eq=False)
class FockVector:
    """Complex amplitude vector over a FockSpace.

    Supports addition, subtraction and scalar multiplication so states can be
    assembled directly from basis vectors. Amplitudes are copied in and
    frozen; arithmetic returns new vectors.
    """

    space: FockSpace
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=np.complex128, copy=True).reshape(-1)
        if amps.shape != (self.space.dim,):
            raise ValueError(
                f"amplitude length {amps.shape[0]} does not match "
                f"space dimension {self.space.dim}"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "FockVector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return FockVector(self.space, self.amplitudes / n)

    def _require_same_space(self, other: "FockVector") -> None:
        if self.space != other.space:
            raise SpaceMismatchError(
                f"operands live in different spaces: "
                f"{self.space.mode_dims} vs {other.space.mode_dims}"
            )

    def __add__(self, other: "FockVector") -> "FockVector":
        self._require_same_space(other)
        return FockVector(self.space, self.amplitudes + other.amplitudes)

    def __sub__(self, other: "FockVector") -> "FockVector":
        self._require_same_space(other)
        return FockVector(self.space, self.amplitudes - other.amplitudes)

    def __mul__(self, scalar: complex) -> "FockVector":
        return FockVector(self.space, self.amplitudes * complex(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "FockVector":
        return FockVector(self.space, -self.amplitudes)


def basis_state(space: FockSpace, occupations: Sequence[int]) -> FockVector:
    """Number state |n0, n1, ...> of the given space."""
    amps = np.zeros(space.dim, dtype=np.complex128)
    amps[space.index(occupations)] = 1.0
    return FockVector(space, amps)


def ground_state(space: FockSpace) -> FockVector:
    return basis_state(space, (0,) * space.nmodes)


def zero_vector(space: FockSpace) -> FockVector:
    """The null vector; used for a path carrying no amplitude."""
    return FockVector(space, np.zeros(space.dim, dtype=np.complex128))


# 170! is the largest factorial a float64 holds, so the coherent series
# beta^n / sqrt(n!) is defined on levels n <= 170 only.
MAX_NMAX = 171


def check_nmax(nmax: int) -> None:
    """Refuse a truncation outside 2 <= nmax <= MAX_NMAX; run it before allocating."""
    if nmax < 2:
        raise ValueError(f"truncation dimension must be >= 2, got {nmax}")
    if nmax > MAX_NMAX:
        raise TruncationError(
            f"truncation dimension {nmax} exceeds {MAX_NMAX}; levels above "
            f"{MAX_NMAX - 1} overflow the float64 factorial"
        )


def _truncation_guard(beta: complex, nmax: int) -> None:
    check_nmax(nmax)
    if abs(beta) ** 2 > nmax:
        raise TruncationError(
            f"|beta|^2 = {abs(beta)**2:.4g} exceeds truncation dimension {nmax}; "
            f"the cutoff would drop most of the state"
        )


def coherent_state(beta: complex, nmax: int) -> tuple[FockVector, float]:
    """Truncated coherent state |beta>, renormalized to unit norm.

    Amplitudes follow the analytic series c_n = exp(-|beta|^2/2) beta^n / sqrt(n!)
    for n < nmax. Returns the renormalized state together with the truncation
    residual 1 - sum |c_n|^2, the tail mass lost to the cutoff before
    renormalization.
    """
    _truncation_guard(beta, nmax)
    b = complex(beta)
    n = np.arange(nmax)
    factorial = np.cumprod(np.maximum(n, 1), dtype=float)
    amps = math.exp(-abs(b) ** 2 / 2.0) * b**n / np.sqrt(factorial)
    captured = float(np.vdot(amps, amps).real)
    residual = max(0.0, 1.0 - captured)
    return FockVector(FockSpace((nmax,)), amps / math.sqrt(captured)), residual


def destroy(nmax: int) -> np.ndarray:
    """Annihilation operator a in the nmax-truncated number basis."""
    check_nmax(nmax)
    return np.diag(np.sqrt(np.arange(1, nmax, dtype=float)), k=1).astype(np.complex128)


def create(nmax: int) -> np.ndarray:
    """Creation operator a^dag (truncated, so a^dag |nmax-1> is dropped)."""
    return destroy(nmax).conj().T


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
    w, v = np.linalg.eigh(1j * (b * create(nmax) - b.conjugate() * destroy(nmax)))
    return (v * np.exp(-1j * w)) @ v.conj().T


def inner(u: FockVector, v: FockVector) -> complex:
    """Sesquilinear inner product <u|v>, conjugate-linear in the first slot."""
    u._require_same_space(v)
    return complex(np.vdot(u.amplitudes, v.amplitudes))


def tensor(vectors: Sequence[FockVector]) -> FockVector:
    """Kronecker composition in listed order (first factor slowest)."""
    if len(vectors) == 0:
        raise ValueError("tensor of an empty list is undefined")
    amps = vectors[0].amplitudes
    dims = vectors[0].space.mode_dims
    labels = vectors[0].space.labels
    for v in vectors[1:]:
        amps = np.kron(amps, v.amplitudes)
        dims = dims + v.space.mode_dims
        labels = labels + v.space.labels
    return FockVector(FockSpace(dims, labels), amps)


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
    cube = v.amplitudes.reshape(space.mode_dims)
    out = np.zeros_like(cube)
    sel: list = [slice(None)] * space.nmodes
    sel[mode_index] = fock_level
    out[tuple(sel)] = cube[tuple(sel)]
    projected = FockVector(space, out.reshape(-1))
    return projected, projected.norm() ** 2
