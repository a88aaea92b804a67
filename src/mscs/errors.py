"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "ArityMismatchError",
    "EmptyVectorError",
    "ExplosionLimitError",
    "HypothesisViolatedError",
    "IndexOutOfRangeError",
    "InvalidKError",
    "InvalidLimitError",
    "InvalidPMFError",
    "LengthMismatchError",
    "LevelOutOfRangeError",
    "MscsError",
    "ParseError",
    "PreconditionViolatedError",
    "SpecFormatError",
]


class MscsError(Exception):
    """Base class for every domain error raised by this package."""


class LengthMismatchError(MscsError, ValueError):
    """Two state vectors that must have equal length do not."""


class EmptyVectorError(MscsError, ValueError):
    """A state vector (or requested vector length) is empty."""


class IndexOutOfRangeError(MscsError, IndexError):
    """A component index lies outside the vector."""


class InvalidKError(MscsError, ValueError):
    """k of a k-out-of-n structure is outside 1..n."""


class ArityMismatchError(MscsError, ValueError):
    """A state vector is too short for the structure evaluated on it."""


class ParseError(MscsError, ValueError):
    """Structure DSL input is malformed.

    ``position`` is the 1-based byte offset of the offending input.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at byte {position})")
        self.message = message
        self.position = position


class ExplosionLimitError(MscsError, RuntimeError):
    """An exhaustive enumeration would exceed the configured vector limit."""


class InvalidLimitError(MscsError, ValueError):
    """An enumeration limit override is not a non-negative integer."""


class LevelOutOfRangeError(MscsError, ValueError):
    """A performance level lies outside 0..max_state."""


class InvalidPMFError(MscsError, ValueError):
    """A probability mass function fails validation."""


class HypothesisViolatedError(MscsError, ValueError):
    """Inputs do not satisfy the hypothesis of the property being checked."""


class PreconditionViolatedError(MscsError, ValueError):
    """Inputs do not satisfy a documented precondition."""


class SpecFormatError(MscsError, ValueError):
    """A pipeline specification document is malformed."""

