"""Exception hierarchy shared by all limbsys modules."""

__all__ = [
    "LimbsysError",
    "ShapeMismatchError",
    "InfeasibleError",
    "DualInfeasibleError",
    "SizeLimitError",
    "CycleError",
    "CyclicSupportError",
    "InvalidSystemError",
]


class LimbsysError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatchError(LimbsysError):
    """Dimensions of two objects disagree; the message reports both shapes."""


class InfeasibleError(LimbsysError):
    """No coupling with the requested marginals/support can exist."""


class DualInfeasibleError(LimbsysError):
    """Supplied potentials violate q[i] + r[j] <= c[i][j] beyond tolerance."""


class SizeLimitError(LimbsysError):
    """Input exceeds a desk-scale guard of an exhaustive operation."""


class CycleError(LimbsysError):
    """A cycle witness is malformed or not contained in the support."""


class CyclicSupportError(LimbsysError):
    """An operation requiring an acyclic support received a cyclic one.

    Carries the offending cycle in the ``witness`` attribute.
    """

    def __init__(self, message, witness):
        super().__init__(message)
        self.witness = witness


class InvalidSystemError(LimbsysError):
    """A numbered limb system violates its structural invariants.

    Carries the individual violations in the ``violations`` attribute.
    """

    def __init__(self, message, violations=()):
        super().__init__(message)
        self.violations = tuple(violations)
