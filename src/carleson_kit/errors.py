"""Shared exception types."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class LinearDependenceError(DomainError):
    """A subspace family is (numerically) linearly dependent."""


class NetValidityError(DomainError):
    """A vector could not be assigned to any net point at the requested mesh."""


class ContourBoundError(RuntimeError):
    """A structural bound of the contour construction failed."""
