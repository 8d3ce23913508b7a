"""Fringe visibility and which-way information for trapped-atom double slits.

Simulates Young's double-slit configurations whose slits are single atoms in
harmonic traps: truncated Fock-space markers record the photon recoil, a
two-path carrier turns marker overlaps into interference patterns, and
closed-form references keep the simulation honest. See the README for the
configuration catalog and the command-line interface.
"""

from ._version import __version__
from .errors import (
    EmptyPatternError,
    PerturbationError,
    PhysicsDomainError,
    ScenarioError,
    SpaceMismatchError,
    TruncationError,
)
from .fockspace import (
    FockSpace,
    FockVector,
    basis_state,
    coherent_state,
    displacement_operator,
    ground_state,
    inner,
    project,
    tensor,
    zero_vector,
)
from .scenarios import Config, Pulse, ScenarioSpec, Treatment, build
from .transforms import (
    PROJECTOR_NAMES,
    apply_dispersive,
    apply_eraser,
    evolve_beat,
    named_projector,
    quarter_beat_time,
)
from .twopath import (
    FreqTag,
    PatternScan,
    Projector,
    TwoPathComponent,
    TwoPathMixture,
    coherence_sum,
    condition,
    mean_intensity,
    pattern,
    phase_offset,
    visibility,
)

__all__ = [
    "__version__",
    "Config",
    "EmptyPatternError",
    "FockSpace",
    "FockVector",
    "FreqTag",
    "PatternScan",
    "PerturbationError",
    "PhysicsDomainError",
    "PROJECTOR_NAMES",
    "Projector",
    "Pulse",
    "ScenarioError",
    "ScenarioSpec",
    "SpaceMismatchError",
    "Treatment",
    "TruncationError",
    "TwoPathComponent",
    "TwoPathMixture",
    "apply_dispersive",
    "apply_eraser",
    "basis_state",
    "build",
    "coherence_sum",
    "coherent_state",
    "condition",
    "displacement_operator",
    "evolve_beat",
    "ground_state",
    "inner",
    "mean_intensity",
    "named_projector",
    "pattern",
    "phase_offset",
    "project",
    "quarter_beat_time",
    "tensor",
    "visibility",
    "zero_vector",
]
