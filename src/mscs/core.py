"""State vectors and the componentwise lattice they form.

A state vector lists the performance levels of the system's components,
``0`` meaning complete failure and ``max_state`` perfect functioning.
Vectors are plain tuples of non-negative integers; all operations here are
pure and safe to call concurrently.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .errors import (
    EmptyVectorError,
    IndexOutOfRangeError,
    LengthMismatchError,
    LevelOutOfRangeError,
)

StateVector = tuple[int, ...]

#: Largest supported level count ceiling; exhaustive analysis beyond this is
#: meaningless at desk scale.
MAX_SUPPORTED_STATE = 255


def _check_max_state(max_state: int, enumerated: bool = True) -> None:
    """Refuse a level set ``0..max_state`` with fewer than two states, or,
    when it is to be ``enumerated``, with ``max_state`` past
    ``MAX_SUPPORTED_STATE``. M >= 1 holds for every analysis; the ceiling
    binds only the enumerator (closed forms and sampling accept any M)."""
    if max_state < 1 or (enumerated and max_state > MAX_SUPPORTED_STATE):
        raise LevelOutOfRangeError(
            f"max_state must be in 1..{MAX_SUPPORTED_STATE}, got {max_state}"
        )


def _check_level(level: int, max_state: int) -> None:
    """Refuse a level outside ``0..max_state``."""
    if not 0 <= level <= max_state:
        raise LevelOutOfRangeError(f"level {level} outside 0..{max_state}")


def _nonempty(x: Sequence[int]) -> Sequence[int]:
    """``x`` itself, refused with :class:`EmptyVectorError` when empty."""
    if len(x) == 0:
        raise EmptyVectorError("state vector must be nonempty")
    return x


@dataclass(frozen=True)
class StateSpace:
    """The shared level set ``{0, 1, ..., max_state}`` of an enumerable
    space: ``max_state`` in ``1..MAX_SUPPORTED_STATE``."""

    max_state: int

    def __post_init__(self) -> None:
        _check_max_state(self.max_state)

    @property
    def levels(self) -> range:
        return range(self.max_state + 1)

    def contains(self, vector: Sequence[int]) -> bool:
        return len(vector) > 0 and all(0 <= v <= self.max_state for v in vector)

    def size(self, n_components: int) -> int:
        """Number of vectors of ``n_components`` components."""
        return (self.max_state + 1) ** n_components


def as_vector(levels: Sequence[int]) -> StateVector:
    """Coerce a level sequence to a state vector, rejecting empty input."""
    vec = _nonempty(tuple(int(v) for v in levels))
    if any(v < 0 for v in vec):
        raise LevelOutOfRangeError(f"levels must be non-negative, got {vec}")
    return vec


def _check_pair(x: Sequence[int], y: Sequence[int]) -> None:
    if len(x) != len(y):
        raise LengthMismatchError(
            f"vector lengths differ: {len(x)} != {len(y)}"
        )
    _nonempty(x)


def meet(x: Sequence[int], y: Sequence[int]) -> StateVector:
    """Componentwise minimum of two equal-length vectors."""
    _check_pair(x, y)
    return tuple(min(a, b) for a, b in zip(x, y))


def join(x: Sequence[int], y: Sequence[int]) -> StateVector:
    """Componentwise maximum of two equal-length vectors."""
    _check_pair(x, y)
    return tuple(max(a, b) for a, b in zip(x, y))


def leq(x: Sequence[int], y: Sequence[int]) -> bool:
    """True iff ``x`` is componentwise at most ``y``."""
    _check_pair(x, y)
    return all(a <= b for a, b in zip(x, y))


def strictly_below(x: Sequence[int], y: Sequence[int]) -> bool:
    """True iff ``x <= y`` componentwise with strict inequality somewhere."""
    _check_pair(x, y)
    return leq(x, y) and tuple(x) != tuple(y)


def update_at(x: Sequence[int], index: int, level: int) -> StateVector:
    """Copy of ``x`` with the component at ``index`` (0-based) set to
    ``level``."""
    if not 0 <= index < len(x):
        raise IndexOutOfRangeError(
            f"component index {index} out of range for length {len(x)}"
        )
    out = list(x)
    out[index] = level
    return tuple(out)


def constant_vector(n_components: int, level: int) -> StateVector:
    """Vector of ``n_components`` copies of ``level``."""
    return _nonempty((level,) * n_components)


def extreme_levels(x: Sequence[int]) -> tuple[int, int]:
    """Minimum and maximum entry of a nonempty vector."""
    return min(_nonempty(x)), max(x)
