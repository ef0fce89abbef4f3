"""Exception types raised across the library.

Everything derives from :class:`SeparabilityError` so callers (and the CLI)
can catch data-level failures with a single except clause.
"""

from __future__ import annotations

__all__ = [
    "SeparabilityError",
    "ParseError",
    "FormatError",
    "DegenerateDataset",
    "DegenerateClass",
    "DegenerateVector",
    "DegenerateSubset",
    "SingularCovariance",
    "EmptySample",
    "DomainError",
    "SpecError",
    "FetchError",
    "IntegrityError",
    "DistanceCapError",
]


class SeparabilityError(Exception):
    """Base class for all data-level errors raised by this package."""


class ParseError(SeparabilityError):
    """Malformed tabular input (ragged row, non-numeric or non-finite cell).

    ``row`` is the 0-based data-row index (header excluded); ``col`` the
    0-based column index when a single cell is at fault.
    """

    def __init__(self, message: str, row: int | None = None, col: int | None = None):
        super().__init__(message)
        self.row = row
        self.col = col


class FormatError(SeparabilityError):
    """Binary stream violates the expected record layout.

    ``record`` identifies the offending record index when known.
    """

    def __init__(self, message: str, record: int | None = None):
        super().__init__(message)
        self.record = record


class DegenerateDataset(SeparabilityError):
    """Dataset has fewer than two classes, so separability is undefined."""


class DegenerateClass(SeparabilityError):
    """A class (or point list) is too small for the requested operation."""

    def __init__(self, message: str, label: int | None = None):
        super().__init__(message)
        self.label = label


class DegenerateVector(SeparabilityError):
    """A feature vector has no variance (correlation) or zero norm (cosine)."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class DegenerateSubset(SeparabilityError):
    """Random subsampling could not produce a usable subset within retries."""


class SingularCovariance(SeparabilityError):
    """Covariance matrix is not positive definite after regularization."""


class EmptySample(SeparabilityError):
    """A two-sample statistic received an empty sample."""


class DomainError(SeparabilityError, ValueError):
    """Scalar argument outside the documented domain.

    Also a ``ValueError``, since that is what an out-of-range argument is.
    """


class SpecError(SeparabilityError):
    """Invalid synthetic-generator specification."""


class FetchError(SeparabilityError):
    """Network retrieval failed or the digest string is unusable."""


class IntegrityError(SeparabilityError):
    """Downloaded or cached payload does not match the expected digest."""


class DistanceCapError(SeparabilityError):
    """Dataset exceeds the exact-computation point cap.

    Raised instead of silently streaming; callers should switch to
    ``dsi_subsampled`` or raise ``max_points`` explicitly.
    """
