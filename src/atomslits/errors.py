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
    """A run value outside its domain, or a combination the model does not define; the
    one exception for an exit-2 refusal of a value. field names what is at fault: a
    ScenarioSpec field, whichway's "beta" or "delta" (spec.check_whichway), "eraser" or
    "coincidence" for a transform the marker space does not take, pattern's "nsamples",
    sweep's "beta_range", or "out" or "stdout" for output that cannot be written. Only
    atomslits.front.run maps a field to the flag it names on stderr.
    """

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field
