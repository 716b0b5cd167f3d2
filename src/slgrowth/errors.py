"""Exception types shared across the package."""


class SlgrowthError(Exception):
    """Base class for all package-specific errors."""


class SingularMatrix(SlgrowthError):
    """Inversion was requested for a matrix with zero determinant."""


class NotInGroup(SlgrowthError):
    """An operation that assumes unit determinant met det != 1."""


class BudgetExceeded(SlgrowthError):
    """An expansion blew past the configured element or time budget.

    stage names the expansion or loop that tripped, and partial_count
    records how far it got (elements stored, or witnesses done), so
    callers can report progress honestly.
    """

    def __init__(self, message, partial_count=0, stage=None):
        super().__init__(message)
        self.partial_count = partial_count
        self.stage = stage


class Indeterminate(SlgrowthError):
    """A generation check could not be decided within budget."""


class InvalidWitness(SlgrowthError):
    """A torus/trace operation needs a regular semisimple witness."""


class UnsupportedTorus(SlgrowthError):
    """Eigenvalue coordinates were requested for a nonsplit witness."""


class NoBins(SlgrowthError):
    """A most-popular bin was requested from an empty bin list."""


class GenerationFailed(SlgrowthError):
    """Random generator search exhausted its retry budget."""


class FiberBoundViolation(SlgrowthError):
    """The |f(S)| >= |S|/n! lower bound failed (should never fire)."""
