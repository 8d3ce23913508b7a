"""Post-scattering operations on two-path mixtures.

Covers the which-way eraser (a pi/2 rotation of the degenerate excitation
pair, whose columns are the antisym and sym marker sectors), beat evolution of
weakly coupled slits, the frequency-selective pi phase flip of a dispersive
optical element, and the named coincidence projectors exposed on the command
line. Each transform returns a mixture that carries the common kick of the one
it was given.

Every named marker sector of spec._SECTORS is one shared read-only fixed state
of fockspace per space, which the projector of that name keeps as its column.
scenarios takes its long-pulse paths from the projector columns, so a path
stays that very column even where the fixed-state table has since dropped the
state. Each named projector is built once per (name, space) and shared
read-only, its column a view of that state and its U^dag the column's
transpose, so it adds no array: a table of 16, which marker traffic's 3
two-mode spaces of 5 projectors fill, keeping at most 16 columns alive, 7.5 MB
at nmax 171. It is a bounded functools.lru_cache table, which is thread-safe.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

from .fockspace import FockSpace, FockVector, _mul, _scalar, _shared, _shared_state, _space
from .spec import _SECTORS, PROJECTOR_NAMES, FreqTag, _member, check_modes
from .twopath import Projector, TwoPathComponent, TwoPathMixture

__all__ = [
    "PROJECTOR_NAMES",
    "apply_dispersive",
    "apply_eraser",
    "evolve_beat",
    "named_projector",
    "quarter_beat_time",
]

# pi/2 rotation of the excitation pair, a row per level |1,0>, |0,1>; its columns, the images
# of those levels, are the antisym and sym sectors (|1,0> -+ |0,1>)/sqrt2, each entry with a
# +0.0 imaginary part; the adjoint's are -0.0
_ERASER_ROWS = [[complex(dict(_SECTORS[name])[level]) for name in ("antisym", "sym")]
                for level in ((1, 0), (0, 1))]
_INVERSE_ROWS = [[z.conjugate() for z in column] for column in zip(*_ERASER_ROWS)]  # its adjoint


def _excitation_pair_indices(space: FockSpace) -> tuple[int, int]:
    """Flat indices of |1,0> and |0,1> in a two-mode space of dims (d0, d1): d1 and 1."""
    check_modes(space.nmodes)
    return space.mode_dims[1], 1


def _is_plus_zero(z: complex) -> bool:
    """Whether z is +0+0j to the bit, the image of every zero pair under the rotation."""
    return z == 0 and math.copysign(1.0, z.real) > 0 and math.copysign(1.0, z.imag) > 0


def _rotated(v: FockVector, i: int, j: int, block: list) -> FockVector:
    """v with the 2x2 block applied to its amplitudes i and j; v itself if that changes no bit."""
    if _scalar(v.space):  # each product from float64 parts
        values, mul = v._values, _mul
        a, b = values[i], values[j]
    else:
        values, mul = v.amplitudes, operator.mul
        a, b = values.item(i), values.item(j)
    if a == 0 == b and _is_plus_zero(a) and _is_plus_zero(b):
        return v  # the rotation would write the same +0+0j pair back
    (p, q), (r, s) = block
    amps = values.copy()
    # summed from 0j in this order, the bits of block @ [a, b], signed zeros too
    amps[i] = 0j + mul(p, a) + mul(q, b)
    amps[j] = 0j + mul(r, a) + mul(s, b)
    return FockVector._wrap(v.space, amps)


def _rotate_pair(m: TwoPathMixture, rows: list) -> TwoPathMixture:
    """Act with the 2x2 block of these rows on span{|1,0>, |0,1>}, identity elsewhere."""
    i, j = _excitation_pair_indices(m.space)
    components = []
    for c in m.components:
        psi1 = _rotated(c.psi1, i, j, rows)
        psi2 = psi1 if c.psi2 is c.psi1 else _rotated(c.psi2, i, j, rows)
        components.append(TwoPathComponent._wrap(psi1, psi2, c.tag, c.weight))
    return TwoPathMixture._wrap(tuple(components), m.common_kick)


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
    """A quarter of the beat period pi/g, for a finite g > 0 whose period is finite.
    (pi/4)/g has the bits of pi/(4 g), and does not overflow at 4 g."""
    t = (math.pi / 4.0) / g if 0 < g < math.inf else math.inf
    if t == math.inf:
        raise ValueError(f"quarter beat time needs a finite positive coupling, got g = {g!r}")
    return t


def apply_dispersive(m: TwoPathMixture, tags) -> TwoPathMixture:
    """Flip the relative path phase by pi on components with tagged frequencies.

    Models a dispersive element in the light path: only the relative phase
    between the two paths at each scattered frequency is observable, so the
    pi shift is applied as a sign on psi2 of every tagged component. tags is a
    collection of FreqTags or their values, never a bare one; tags absent from
    the mixture are ignored, and applying the same tags twice is the identity.
    """
    if isinstance(tags, str):  # a FreqTag is a str too: not iterated into its letters
        raise ValueError(f"apply_dispersive takes a collection of tags, got the bare tag {tags!r}")
    tagset = frozenset(_member(FreqTag, t) for t in tags)
    if not tagset:
        raise ValueError("apply_dispersive needs at least one frequency tag")
    return TwoPathMixture._wrap(
        tuple(TwoPathComponent._wrap(c.psi1, -c.psi2, c.tag, c.weight) if c.tag in tagset
              else c for c in m.components), m.common_kick)


def named_projector(name: str, space: FockSpace) -> Projector:
    """The named coincidence projector on the given marker space, read only and shared.

    Every one is rank one, held as its single unit column: the state of the
    marker sector of that name in spec._SECTORS, whose occupations also fix the
    number of marker modes it needs (ground: any).
    """
    if name not in PROJECTOR_NAMES:
        raise ValueError(
            f"unknown projector {name!r}; choose one of {', '.join(PROJECTOR_NAMES)}"
        )
    return _shared(_named_projector, space)(name, space.mode_dims)


@lru_cache(maxsize=16)
def _named_projector(name: str, mode_dims: tuple[int, ...]) -> Projector:
    """The projector named_projector shares. Marker traffic uses 5 on each of 3
    spaces; each of the 16 entries keeps its column alive, whose transpose is
    its U^dag, at most 16 x 467,856 = 7,485,696 bytes at nmax 171."""
    check_modes(len(mode_dims), name)
    space = _space(mode_dims)
    terms = tuple((space.index(occupations) if occupations else 0, amplitude)
                  for occupations, amplitude in _SECTORS[name])
    return Projector._wrap(_shared_state(space, terms), name,
                           len(terms) == 1 and terms[0][1] == 1.0)
