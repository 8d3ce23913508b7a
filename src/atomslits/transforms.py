"""Post-scattering operations on two-path mixtures.

Covers the which-way eraser (a pi/2 rotation of the degenerate excitation
pair), beat evolution of weakly coupled slits, the frequency-selective pi
phase flip of a dispersive optical element, and the named coincidence
projectors exposed on the command line.

Each named projector is built once per (name, space) and shared read-only,
its column a view of the shared fixed state of fockspace and its U^dag the one
array it adds: a table of 16, which marker traffic's 3 two-mode spaces of 5
projectors fill, holding at most 15.0 MB at nmax 171 with the columns it keeps
alive. It is a bounded functools.lru_cache table, which is thread-safe.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .fockspace import (
    FockSpace,
    FockVector,
    _shared,
    _shared_state,
    _space,
    basis_state,
    ground_state,
)
from .spec import PROJECTOR_NAMES, FreqTag, check_modes
from .twopath import Projector, TwoPathComponent, TwoPathMixture

__all__ = [
    "PROJECTOR_NAMES",
    "apply_dispersive",
    "apply_eraser",
    "evolve_beat",
    "named_projector",
    "quarter_beat_time",
]

# pi/2 rotation of the excitation pair, columns are the images of
# |1,0> and |0,1>:  |1,0> -> (|1,0> - |0,1>)/sqrt2,  |0,1> -> (|1,0> + |0,1>)/sqrt2
_ERASER_ROWS = (np.array([[1.0, 1.0], [-1.0, 1.0]], dtype=np.complex128) / math.sqrt(2.0)).tolist()
_INVERSE_ROWS = np.array(_ERASER_ROWS).conj().T.tolist()  # the rows of its adjoint
# the amplitude of each level in a normal mode (|1,0> +- |0,1>)/sqrt2
_ROOT_HALF = 1.0 / math.sqrt(2.0)


def _excitation_pair_indices(space: FockSpace) -> tuple[int, int]:
    """Flat indices of |1,0> and |0,1> in a two-mode space of dims (d0, d1): d1 and 1."""
    check_modes(space.nmodes)
    return space.mode_dims[1], 1


def _normal_mode(space: FockSpace, sign: float, negated: bool = False) -> FockVector:
    """(|1,0> + sign |0,1>)/sqrt2 for sign +-1, or its negation, read only and shared."""
    i10, i01 = _excitation_pair_indices(space)
    return _shared_state(space, ((i10, _ROOT_HALF), (i01, sign * _ROOT_HALF)), negated)


def _is_plus_zero(z: complex) -> bool:
    """Whether z is +0+0j to the bit, the image of every zero pair under the rotation."""
    return z == 0 and math.copysign(1.0, z.real) > 0 and math.copysign(1.0, z.imag) > 0


def _rotated(v: FockVector, i: int, j: int, block: list) -> FockVector:
    """v with the 2x2 block applied to its amplitudes i and j; v itself if that changes no bit."""
    a, b = v.amplitudes.item(i), v.amplitudes.item(j)
    if a == 0 == b and _is_plus_zero(a) and _is_plus_zero(b):
        return v  # the rotation would write the same +0+0j pair back
    (p, q), (r, s) = block
    amps = v.amplitudes.copy()
    # summed from 0j in this order, the bits of block @ [a, b], signed zeros too
    amps[i] = 0j + p * a + q * b
    amps[j] = 0j + r * a + s * b
    return FockVector._wrap(v.space, amps)


def _rotate_pair(m: TwoPathMixture, rows: list) -> TwoPathMixture:
    """Act with the 2x2 block of these rows on span{|1,0>, |0,1>}, identity elsewhere."""
    i, j = _excitation_pair_indices(m.space)
    components = []
    for c in m.components:
        psi1 = _rotated(c.psi1, i, j, rows)
        psi2 = psi1 if c.psi2 is c.psi1 else _rotated(c.psi2, i, j, rows)
        components.append(TwoPathComponent._wrap(psi1, psi2, c.tag, c.weight))
    return TwoPathMixture._wrap(tuple(components))


def apply_eraser(m: TwoPathMixture, inverse: bool = False) -> TwoPathMixture:
    """Rotate the degenerate excitation pair by pi/2 on every path state.

    |1,0> -> (|1,0> - |0,1>)/sqrt2 and |0,1> -> (|1,0> + |0,1>)/sqrt2, identity
    on all other levels. The map is unitary on its support, so it never
    changes an unconditioned visibility; erasure shows up only through
    coincidence conditioning. inverse=True applies the adjoint rotation.
    """
    return _rotate_pair(m, _INVERSE_ROWS if inverse else _ERASER_ROWS)


def evolve_beat(m: TwoPathMixture, g: float, t: float) -> TwoPathMixture:
    """Evolve the coupled-slit excitation pair for time t at coupling g.

    The coupling g (a1^dag a2 + a2^dag a1) splits the symmetric and
    antisymmetric normal modes by the beat frequency 2g, so within the pair
    {|1,0>, |0,1>} the propagator is cos(gt) 1 - i sin(gt) X; a common global
    phase is dropped. At g t = pi/4, a quarter of the beat period, the map
    equals the eraser rotation up to per-state phases that leave every
    conditioned visibility unchanged.
    """
    if g < 0:
        raise ValueError(f"coupling g must be >= 0, got {g}")
    if not math.isfinite(g * t):
        raise ValueError(f"coupling g * time t must be finite, got {g} * {t}")
    c = complex(math.cos(g * t))
    s = -1j * math.sin(g * t)
    return _rotate_pair(m, [[c, s], [s, c]])


def quarter_beat_time(g: float) -> float:
    """A quarter of the beat period pi/g for coupling g > 0."""
    if g <= 0:
        raise ValueError("quarter beat time needs a positive coupling")
    return math.pi / (4.0 * g)


def apply_dispersive(m: TwoPathMixture, tags) -> TwoPathMixture:
    """Flip the relative path phase by pi on components with tagged frequencies.

    Models a dispersive element in the light path: only the relative phase
    between the two paths at each scattered frequency is observable, so the
    pi shift is applied as a sign on psi2 of every tagged component. Tags
    absent from the mixture are ignored; applying the same tags twice is the
    identity.
    """
    tagset = frozenset(FreqTag(t) for t in tags)
    if not tagset:
        raise ValueError("apply_dispersive needs at least one frequency tag")
    return TwoPathMixture._wrap(
        tuple(TwoPathComponent._wrap(c.psi1, -c.psi2, c.tag, c.weight) if c.tag in tagset
              else c for c in m.components))


def named_projector(name: str, space: FockSpace) -> Projector:
    """The named coincidence projector on the given marker space, read only and shared.

    ground works on any space; atom1_excited, atom2_excited, sym and antisym
    need a two-oscillator space; single_atom_0 and single_atom_1 need a
    single-oscillator space. sym and antisym project on (|1,0> +/- |0,1>)/sqrt2.
    Every one is rank one, held as its single unit column.
    """
    if name not in PROJECTOR_NAMES:
        raise ValueError(
            f"unknown projector {name!r}; choose one of {', '.join(PROJECTOR_NAMES)}"
        )
    return _shared(_named_projector, space)(name, space.mode_dims)


@lru_cache(maxsize=16)
def _named_projector(name: str, mode_dims: tuple[int, ...]) -> Projector:
    """The projector named_projector shares. Marker traffic uses 5 on each of 3
    spaces; each of the 16 entries holds its U^dag and keeps its column alive,
    at most 16 x 2 x 467,856 = 14,971,392 bytes at nmax 171."""
    check_modes(len(mode_dims), name)
    space = _space(mode_dims)
    if name == "ground":
        column = ground_state(space)
    elif name in ("single_atom_0", "single_atom_1"):
        column = basis_state(space, (int(name[-1]),))
    elif name in ("atom1_excited", "atom2_excited"):
        i10, i01 = _excitation_pair_indices(space)
        column = _shared_state(space, ((i10 if name == "atom1_excited" else i01, 1.0),))
    else:
        column = _normal_mode(space, 1.0 if name == "sym" else -1.0)
    return Projector._wrap(space, column.amplitudes[:, None], name)
