"""Exception taxonomy shared across the package.

Each class carries the exit code the CLI returns for it, as ``exit_code``:
1 for domain/validation problems (the base class's value), 2 for the
capacity/precision problems CapacityError, PrecisionError and
ContourError.  ``require_finite`` is the one refusal of a NaN or
infinite argument, shared by every module that takes one.
"""

import numpy as np


class KernelscopeError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 1


class DomainError(KernelscopeError):
    """Argument outside the mathematical domain of the operation."""


class PoleError(DomainError):
    """Evaluation requested exactly at a pole."""


class RangeError(KernelscopeError):
    """A requested index walks off the end of the available data."""


class CapacityError(KernelscopeError):
    """Work refused: table too short, bound too large, or int64 would overflow."""

    exit_code = 2


class PrecisionError(KernelscopeError):
    """Requested tolerance unreachable inside the working range."""

    exit_code = 2


class VerdictError(KernelscopeError):
    """An operation required a saturated/finite verdict it did not get."""


class ConstructionError(KernelscopeError):
    """An internal consistency check failed while building an object."""


class ContourError(KernelscopeError):
    """Zero counting failed: the segment passed near a zero, or two counts disagreed."""

    exit_code = 2


def require_finite(name: str, values) -> None:
    """Refuse a NaN or infinite entry of ``values`` (a number or an array),
    naming the first one, with a DomainError."""
    values = np.asarray(values)
    bad = ~np.isfinite(values)
    if bad.any():
        raise DomainError(f"{name} must be finite, got {values[bad].flat[0]}")
