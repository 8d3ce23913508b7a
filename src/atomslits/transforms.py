"""Post-scattering operations on two-path mixtures.

Covers the which-way eraser (a pi/2 rotation of the degenerate excitation
pair), beat evolution of weakly coupled slits, the frequency-selective pi
phase flip of a dispersive optical element, and the named coincidence
projectors exposed on the command line.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .errors import SpaceMismatchError
from .fockspace import FockSpace, FockVector
from .twopath import FreqTag, Projector, TwoPathMixture

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
_ERASER_BLOCK = np.array([[1.0, 1.0], [-1.0, 1.0]], dtype=np.complex128) / math.sqrt(2.0)


def _excitation_pair_indices(space: FockSpace) -> tuple[int, int]:
    if space.nmodes != 2:
        raise SpaceMismatchError(
            f"operation needs a two-oscillator marker space, got {space.nmodes} mode(s)"
        )
    return space.index((1, 0)), space.index((0, 1))


def _rotate_pair(m: TwoPathMixture, block: np.ndarray) -> TwoPathMixture:
    """Act with a 2x2 block on span{|1,0>, |0,1>} of every path state, identity elsewhere."""
    pair = list(_excitation_pair_indices(m.space))

    def rotated(v: FockVector) -> FockVector:
        amps = v.amplitudes.copy()
        amps[pair] = block @ amps[pair]
        return FockVector(v.space, amps)

    comps = tuple(replace(c, psi1=rotated(c.psi1), psi2=rotated(c.psi2)) for c in m.components)
    return TwoPathMixture(comps, condition=m.condition)


def apply_eraser(m: TwoPathMixture, inverse: bool = False) -> TwoPathMixture:
    """Rotate the degenerate excitation pair by pi/2 on every path state.

    |1,0> -> (|1,0> - |0,1>)/sqrt2 and |0,1> -> (|1,0> + |0,1>)/sqrt2, identity
    on all other levels. The map is unitary on its support, so it never
    changes an unconditioned visibility; erasure shows up only through
    coincidence conditioning. inverse=True applies the adjoint rotation.
    """
    block = _ERASER_BLOCK.conj().T if inverse else _ERASER_BLOCK
    return _rotate_pair(m, block)


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
    c = math.cos(g * t)
    s = math.sin(g * t)
    block = np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)
    return _rotate_pair(m, block)


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
    comps = tuple(
        replace(c, psi2=-c.psi2) if c.tag in tagset else c for c in m.components
    )
    return TwoPathMixture(comps, condition=m.condition)


PROJECTOR_NAMES = (
    "ground",
    "atom1_excited",
    "atom2_excited",
    "single_atom_0",
    "single_atom_1",
    "sym",
    "antisym",
)


def named_projector(name: str, space: FockSpace) -> Projector:
    """Build one of the named coincidence projectors on the given marker space.

    ground works on any space; atom1_excited, atom2_excited, sym and antisym
    need a two-oscillator space; single_atom_0 and single_atom_1 need a
    single-oscillator space. sym and antisym project on (|1,0> +/- |0,1>)/sqrt2.
    Every one is rank one, held as its single unit column.
    """
    if name not in PROJECTOR_NAMES:
        raise ValueError(
            f"unknown projector {name!r}; choose one of {', '.join(PROJECTOR_NAMES)}"
        )
    amps = np.zeros(space.dim, dtype=np.complex128)
    if name == "ground":
        amps[0] = 1.0
    elif name in ("single_atom_0", "single_atom_1"):
        if space.nmodes != 1:
            raise SpaceMismatchError(
                f"projector {name!r} needs a single-oscillator space"
            )
        amps[0 if name.endswith("0") else 1] = 1.0
    else:
        i10, i01 = _excitation_pair_indices(space)
        if name == "atom1_excited":
            amps[i10] = 1.0
        elif name == "atom2_excited":
            amps[i01] = 1.0
        elif name == "sym":
            amps[i10] = amps[i01] = 1.0 / math.sqrt(2.0)
        else:  # antisym
            amps[i10] = 1.0 / math.sqrt(2.0)
            amps[i01] = -1.0 / math.sqrt(2.0)
    return Projector(space, amps[:, None], name)
