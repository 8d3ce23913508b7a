"""States of truncated harmonic-oscillator modes, and the displacement operator.

A FockSpace is one or more bosonic modes, each cut off at a finite number of
levels. Joint amplitudes are stored row-major with the first listed mode
slowest: the flat index of occupation (n0, n1) in a space with dims (d0, d1)
is n0 * d1 + n1. Operators and serialization both rely on this ordering.

Two engines compute on states, picked by space size alone (_scalar). A space of
modes of at most 16 levels and at most 256 levels in all, every space of a run at
the CLI's default nmax, holds its amplitudes as a list of Python complex numbers
and is computed in plain Python, in one reference arithmetic: each complex product
from float64 parts (_mul), each sum +0.0 plus numpy's pairwise sum (_sum). Its
bits depend on no CPU or BLAS kernel. A larger space holds a numpy array and keeps
numpy's arithmetic. numpy loads on first use: a larger space, a public
constructor, displacement_operator, or a numpy-typed attribute (built read-only
when first read).

All values are immutable after construction and every function is pure, so
states and operators can be shared across threads without coordination. The
spaces the package builds are interned by dims: equal dims give one shared
FockSpace object. The per-nmax level table of the coherent series is computed
once and held read-only. Both live in small bounded functools.lru_cache tables,
which are thread-safe.
"""

from __future__ import annotations

import math
import operator
import weakref
from functools import cached_property, lru_cache, reduce
from itertools import accumulate
from typing import Sequence

from .errors import SpaceMismatchError
from .spec import _Frozen, check_amplitude

__all__ = [
    "FockSpace",
    "FockVector",
    "basis_state",
    "coherent_state",
    "displacement_operator",
    "ground_state",
    "inner",
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

    @cached_property
    def _scale(self) -> int:
        """The largest mode cut or ceil(sqrt(dim)), whichever is larger: at most N exactly
        when every mode has at most N levels and the space at most N**2."""
        return max(*self.mode_dims, math.isqrt(self.dim - 1) + 1)

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


_INTERNED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


@lru_cache(maxsize=32)
def _space(mode_dims: tuple[int, ...]) -> FockSpace:
    """The package's one shared FockSpace for these dims, for as long as anything holds it."""
    return _INTERNED.setdefault(mode_dims, FockSpace(mode_dims))


# The scalar engine's largest mode cut. B's and D's two-mode states are products of
# one-mode states, so a one-mode space of more levels stays with numpy too, and every
# space of a run at nmax > 16 keeps numpy's bits.
_SCALAR_NMAX = 16


def _scalar(space: FockSpace) -> bool:
    """Whether the space is computed in plain Python, by the reference arithmetic."""
    return space._scale <= _SCALAR_NMAX


def _mul(a: complex, b: complex) -> complex:
    """a * b from float64 parts: each step one IEEE operation, whatever the SIMD level."""
    return complex(a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real)


def _pairwise(xs: list, lo: int, n: int) -> float:
    """numpy's pairwise sum of xs[lo:lo + n]: a plain sum from +0.0 below 8 values, 8
    accumulators over a block of up to 128, and above that the two halves cut at a
    multiple of 8."""
    if n < 8:
        return reduce(operator.add, xs[lo:lo + n], 0.0)
    if n <= 128:
        end = lo + n - n % 8
        r = [reduce(operator.add, xs[lo + j:end:8]) for j in range(8)]
        return reduce(operator.add, xs[end:lo + n],
                      ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7])))
    half = n // 2 - n // 2 % 8
    return _pairwise(xs, lo, half) + _pairwise(xs, lo + half, n - half)


def _sum(xs: list) -> float:
    """np.add.reduce of a list of floats, to the bit: +0.0 plus the pairwise sum."""
    return 0.0 + _pairwise(xs, 0, len(xs))


def _squared_norm(values: list) -> float:
    return _sum([z.real * z.real + z.imag * z.imag for z in values])


class FockVector(_Frozen):
    """Complex amplitude vector over a FockSpace.

    Amplitudes are copied in and frozen, and must be finite with a finite
    norm. The norm is computed on first use and kept, which is safe because
    the amplitudes never change. A vector of a scalar-engine space holds them
    as the list _values and builds the ndarray `amplitudes` when first read; a
    larger one holds the ndarray.
    """

    _fields = ("space", "amplitudes")

    def __init__(self, space: FockSpace, amplitudes: np.ndarray) -> None:
        import numpy as np

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
    def _wrap(cls, space: FockSpace, amps) -> "FockVector":
        """Adopt a list of space.dim Python complex numbers, or a 1-D complex128 array of
        that length, without copying.

        For one the package has just made, or the read-only amplitudes of another
        vector; an array is frozen in place.
        """
        v = object.__new__(cls)
        if isinstance(amps, list):
            v.__dict__.update(space=space, _values=amps)
        else:
            amps.setflags(write=False)
            v.__dict__.update(space=space, amplitudes=amps)
        return v

    @cached_property
    def amplitudes(self) -> np.ndarray:
        import numpy as np

        amps = np.array(self._values, dtype=np.complex128)
        amps.setflags(write=False)
        return amps

    @cached_property
    def _values(self) -> list[complex]:
        return self.amplitudes.tolist()

    def norm(self) -> float:
        n = self.__dict__.get("_norm")
        if n is None:
            if _scalar(self.space):
                n = math.sqrt(_squared_norm(self._values))
            else:
                # the sum np.linalg.norm forms for a complex vector, without its dispatch
                re, im = self.amplitudes.real, self.amplitudes.imag
                n = math.sqrt(re.dot(re) + im.dot(im))
            self.__dict__["_norm"] = n
        return n

    def __neg__(self) -> "FockVector":
        if _scalar(self.space):  # Python's -z negates both parts, signed zeros too
            return FockVector._wrap(self.space, [-z for z in self._values])
        import numpy as np

        # negating the float64 parts writes the bytes of -amplitudes, signed zeros
        # too, without the complex loop
        flipped = np.negative(self.amplitudes.view(np.float64))
        return FockVector._wrap(self.space, flipped.view(np.complex128))


def _superposition(space: FockSpace, terms: tuple[tuple[int, complex], ...]) -> FockVector:
    """sum_k c_k |k> over flat levels k, each c_k added to a zero: the bits of the
    scaled basis-vector sum. The engines differ only in the zeros they fill."""
    if _scalar(space):
        amps = [0j] * space.dim
    else:
        import numpy as np

        amps = np.zeros(space.dim, dtype=np.complex128)
    for k, c in terms:
        amps[k] = complex(amps[k]) + c  # one Python complex sum on either engine
    return FockVector._wrap(space, amps)


def basis_state(space: FockSpace, occupations: Sequence[int]) -> FockVector:
    """Number state |n0, n1, ...> of the given space, read only."""
    return _superposition(_space(space.mode_dims), ((space.index(occupations), 1.0),))


def ground_state(space: FockSpace) -> FockVector:
    return _superposition(_space(space.mode_dims), ((0, 1.0),))


def zero_vector(space: FockSpace) -> FockVector:
    """The null vector, read only; used for a path carrying no amplitude."""
    return _superposition(_space(space.mode_dims), ())


@lru_cache(maxsize=32, typed=True)
def _levels(nmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only levels n = 0..nmax-1 and sqrt(n!), the coherent series' fixed part."""
    import numpy as np

    n = np.arange(nmax)
    root_factorial = np.sqrt(np.maximum(n, 1.0).cumprod())
    n.setflags(write=False)
    root_factorial.setflags(write=False)
    return n, root_factorial


def coherent_state(beta: complex, nmax: int) -> FockVector:
    """Truncated coherent state |beta>, renormalized to unit norm.

    Amplitudes follow the analytic series c_n = exp(-|beta|^2/2) beta^n / sqrt(n!)
    for n < nmax, divided by their norm. The mass the cutoff drops is
    spec._poisson_tail(|beta|^2, nmax); spec.check_amplitude refuses beta first.
    The scalar engine takes beta^n as a running product and n! as a running float
    product, as numpy's cumprod does.
    """
    b2 = check_amplitude(beta, nmax)
    b = complex(beta)
    space = _space((nmax,))
    if _scalar(space):
        scale, power, values = math.exp(-b2 / 2.0), 1 + 0j, []
        for root in map(math.sqrt, accumulate(range(1, space.dim), operator.mul, initial=1.0)):
            values.append(complex(scale * power.real / root, scale * power.imag / root))
            power = _mul(power, b)
        norm = math.sqrt(_squared_norm(values))
        return FockVector._wrap(space, [complex(z.real / norm, z.imag / norm) for z in values])
    import numpy as np

    n, root_factorial = _levels(nmax)
    amps = math.exp(-b2 / 2.0) * b**n / root_factorial
    amps /= math.sqrt(float(np.vdot(amps, amps).real))
    return FockVector._wrap(space, amps)


def displacement_operator(beta: complex, nmax: int) -> np.ndarray:
    """Matrix exponential of beta a^dag - conj(beta) a in the truncated space.

    The exponent is -i times the Hermitian generator H = i(beta a^dag -
    conj(beta) a), so the exponential is V exp(-i w) V^dag from the
    eigendecomposition H = V w V^dag. This is an independent construction
    from the coherent_state series; applied to the ground state the two agree
    up to the truncation residual, which is the module's own cross-check.
    Unitary to high accuracy whenever |beta|^2 is small against nmax.
    """
    import numpy as np

    check_amplitude(beta, nmax)
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
    if _scalar(u.space):  # conj(a) b from float64 parts, each part summed pairwise
        pairs = tuple(zip(u._values, v._values))
        return complex(_sum([a.real * b.real + a.imag * b.imag for a, b in pairs]),
                       _sum([a.real * b.imag - a.imag * b.real for a, b in pairs]))
    import numpy as np

    return complex(np.vdot(u.amplitudes, v.amplitudes))


def _product(vectors: Sequence[FockVector]) -> FockVector:
    """Kronecker composition in listed order (first factor slowest), as np.kron, for
    factors whose norms are known to be small."""
    space = _space(sum((v.space.mode_dims for v in vectors), ()))
    if _scalar(space):  # each product as _mul forms it, on parts split once per factor
        values = vectors[0]._values
        for v in vectors[1:]:
            right = [(b.real, b.imag) for b in v._values]
            values = [complex(ar * br - ai * bi, ar * bi + ai * br)
                      for ar, ai in ((a.real, a.imag) for a in values) for br, bi in right]
        return FockVector._wrap(space, values)
    import numpy as np

    amps = vectors[0].amplitudes
    for v in vectors[1:]:
        amps = np.multiply.outer(amps, v.amplitudes).ravel()
    return FockVector._wrap(space, amps)
