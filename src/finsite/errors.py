"""Shared exception types and default resource caps.

Every cap-guarded operation raises :class:`ResourceError` rather than
silently truncating; the error names the cap that would be exceeded.
"""

DEFAULT_SIEVE_CAP = 20_000
DEFAULT_HOM_CAP = 100_000
DEFAULT_CANDIDATE_CAP = 1_000_000


class FinsiteError(Exception):
    """Base class for all errors raised by this package."""


class StructuralError(FinsiteError):
    """Malformed input: dangling ids, type mismatches, base mismatches."""


class DomainError(FinsiteError):
    """Argument outside the mathematical domain of an operation."""


class ResourceError(FinsiteError):
    """A configured cap would be exceeded."""

    def __init__(self, message: str, cap_name: str = "", cap_value: int = 0):
        super().__init__(message)
        self.cap_name = cap_name
        self.cap_value = cap_value


class UniversalPropertyError(FinsiteError):
    """A mediating arrow required to exist uniquely does not."""


def _check_cap(value, what: str) -> int:
    """``value`` if it is a non-negative int, else a ``StructuralError``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise StructuralError(f"{what} must be a non-negative integer, got {value!r}")
    return value
