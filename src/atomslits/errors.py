"""Exception types shared across the package.

The CLI maps these onto exit codes: scenario/flag problems exit with 2,
physics-domain problems (truncation, empty post-selection, perturbative
domain) exit with 3.
"""

__all__ = [
    "PhysicsDomainError",
    "TruncationError",
    "PerturbationError",
    "EmptyPatternError",
    "SpaceMismatchError",
    "ScenarioError",
]


class PhysicsDomainError(ValueError):
    """A parameter lies outside the model's validity domain."""


class TruncationError(PhysicsDomainError):
    """A coherent amplitude too large for the Fock truncation: |beta|^2 above nmax, or a
    kick whose truncation residual, above 1e-10, reaches an output (atomslits.spec)."""


class PerturbationError(PhysicsDomainError):
    """Parameter outside the small-kick regime a first-order treatment assumes."""


class EmptyPatternError(PhysicsDomainError):
    """Every path amplitude vanished, e.g. after conditioning on an empty sector."""


class SpaceMismatchError(ValueError):
    """Operands live in incompatible Fock spaces."""


class ScenarioError(ValueError):
    """A run parameter outside its domain, or a combination the model does not define.

    field names what is at fault: a ScenarioSpec field ("pulse", "treatment",
    "beta", "alpha", "epsilon", "coupling_g", "evolve_time", "nmax"), "eraser"
    or "coincidence" for a transform the chain's marker space does not take, or
    pattern's "nsamples". The CLI names the flag of that field.
    """

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field
