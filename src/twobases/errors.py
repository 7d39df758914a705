"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument is outside the mathematical domain of the operation."""


class UnsupportedBaseError(DomainError):
    """The base does not satisfy a precondition (e.g. its quasi-greedy
    expansion is not eventually periodic: proved, as when q is no
    algebraic integer or a remainder escapes under a conjugate, or not
    detected within the step budget)."""


class NoRootByCaseError(DomainError):
    """The pair (c, d) falls in a monotonicity case with no root in the
    requested bracket."""


class NotFoundWithinBoundsError(LookupError):
    """A search exhausted its configured bounds without finding the object."""
