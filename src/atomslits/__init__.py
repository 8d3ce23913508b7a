"""Fringe visibility and which-way information for trapped-atom double slits.

Simulates Young's double-slit configurations whose slits are single atoms in
harmonic traps: truncated Fock-space markers record the photon recoil, a
two-path carrier turns marker overlaps into interference patterns, and
closed-form references keep the simulation honest. See the README for the
configuration catalog and the command-line interface.

The package is lazy: each public name is imported from its module on first
use and then bound here, so `import atomslits` alone loads no numpy.
"""

from importlib import import_module

from ._version import __version__

# The module that defines each public name.
_HOMES = {
    "errors": ("EmptyPatternError", "PerturbationError", "PhysicsDomainError",
               "ScenarioError", "SpaceMismatchError", "TruncationError"),
    "fockspace": ("FockSpace", "FockVector", "basis_state", "coherent_state",
                  "displacement_operator", "ground_state", "inner", "zero_vector"),
    "spec": ("Config", "FreqTag", "PROJECTOR_NAMES", "Pulse", "ScenarioSpec", "Treatment"),
    "scenarios": ("build",),
    "transforms": ("apply_dispersive", "apply_eraser", "evolve_beat", "named_projector",
                   "quarter_beat_time"),
    "twopath": ("PatternScan", "Projector", "TwoPathComponent", "TwoPathMixture",
                "coherence_sum", "condition", "mean_intensity", "pattern", "phase_offset",
                "visibility"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    """Import a public name on first use and bind it, so the next lookup finds it here."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
