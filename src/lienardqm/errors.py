"""Exception types shared across the package."""


class LienardError(Exception):
    """Base class for all package errors."""


class ConstraintViolationError(LienardError):
    """A physical or parameter constraint is violated.

    Raised for invalid (omega, k, hbar), for ambiguity products at or below
    the admissibility boundary, and for phase-space points outside the region
    where the Lagrangian is real.
    """


class DomainError(LienardError):
    """An argument lies outside the admissible domain of an operation
    (momentum at or beyond the 3*omega**2/k bound, samples that do not
    vanish at the ends of a finite-difference grid, and similar)."""


class AmplitudeRangeError(DomainError):
    """Closed-form solution requested with amplitude A >= 3*omega/k."""


class GridMismatchError(LienardError):
    """Sampled values and grid do not belong together."""


class ConvergenceError(LienardError):
    """An iterative scheme exhausted its iteration budget."""


class OverflowGuardError(LienardError):
    """A log-space exponent exceeded the safe range for exponentiation."""
