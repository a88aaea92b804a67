"""State vectors and the componentwise lattice they form.

A state vector lists the performance levels of the system's components,
``0`` meaning complete failure and ``max_state`` perfect functioning.
Vectors are plain tuples of non-negative integers; all operations here are
pure and safe to call concurrently.
"""

from __future__ import annotations

import operator
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


def _check_max_state(max_state: int, enumerated: bool = True) -> int:
    """``max_state`` as an int (through ``operator.index``), refused when
    the level set ``0..max_state`` has fewer than two states, or, when it is
    to be ``enumerated``, past ``MAX_SUPPORTED_STATE``. M >= 1 holds for
    every analysis; the ceiling binds only the enumerator (closed forms and
    sampling accept any M)."""
    max_state = operator.index(max_state)
    if max_state < 1 or (enumerated and max_state > MAX_SUPPORTED_STATE):
        raise LevelOutOfRangeError(
            f"max_state must be in 1..{MAX_SUPPORTED_STATE}, got {max_state}"
        )
    return max_state


def _as_level(value: object) -> int:
    """The one rule for what a level is: an int, or a value equal to one
    (``np.int8(2)``, ``True``, ``2.0``) as that int; anything else refused."""
    try:
        if (level := int(value)) == value:
            return level
    except (TypeError, ValueError, OverflowError):
        pass
    raise LevelOutOfRangeError(f"level must be an integer, got {value!r}")


def _check_level(level: object, max_state: int) -> int:
    """``level`` as an int, refused outside ``0..max_state``."""
    if not 0 <= (level := _as_level(level)) <= max_state:
        raise LevelOutOfRangeError(f"level {level} outside 0..{max_state}")
    return level


@dataclass(frozen=True)
class StateSpace:
    """The shared level set ``{0, 1, ..., max_state}`` of an enumerable
    space: ``max_state`` in ``1..MAX_SUPPORTED_STATE``."""

    max_state: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "max_state", _check_max_state(self.max_state))

    def contains(self, vector: Sequence[int]) -> bool:
        return len(vector) > 0 and all(
            0 <= _as_level(v) <= self.max_state for v in vector
        )

    def size(self, n_components: int) -> int:
        """Number of vectors of ``n_components`` components."""
        if (n_components := operator.index(n_components)) < 0:
            raise LevelOutOfRangeError(
                f"n_components must be non-negative, got {n_components}"
            )
        return (self.max_state + 1) ** n_components


def as_vector(levels: Sequence[int]) -> StateVector:
    """A level sequence as a state vector, refused when empty or negative."""
    if not (vec := tuple(map(_as_level, levels))):
        raise EmptyVectorError("state vector must be nonempty")
    if any(v < 0 for v in vec):
        raise LevelOutOfRangeError(f"levels must be non-negative, got {vec}")
    return vec


def _check_pair(
    x: Sequence[int], y: Sequence[int]
) -> tuple[StateVector, StateVector]:
    """``x`` and ``y`` as state vectors, refused when their lengths differ."""
    if len(x) != len(y):
        raise LengthMismatchError(
            f"vector lengths differ: {len(x)} != {len(y)}"
        )
    return as_vector(x), as_vector(y)


def meet(x: Sequence[int], y: Sequence[int]) -> StateVector:
    """Componentwise minimum of two equal-length vectors."""
    x, y = _check_pair(x, y)
    return tuple(min(a, b) for a, b in zip(x, y))


def join(x: Sequence[int], y: Sequence[int]) -> StateVector:
    """Componentwise maximum of two equal-length vectors."""
    x, y = _check_pair(x, y)
    return tuple(max(a, b) for a, b in zip(x, y))


def leq(x: Sequence[int], y: Sequence[int]) -> bool:
    """True iff ``x`` is componentwise at most ``y``."""
    x, y = _check_pair(x, y)
    return all(a <= b for a, b in zip(x, y))


def strictly_below(x: Sequence[int], y: Sequence[int]) -> bool:
    """True iff ``x <= y`` componentwise with strict inequality somewhere."""
    x, y = _check_pair(x, y)
    return leq(x, y) and x != y


def update_at(x: Sequence[int], index: int, level: int) -> StateVector:
    """Copy of ``x`` with the component at ``index`` (0-based) set to
    ``level``."""
    if not 0 <= (index := operator.index(index)) < len(x):
        raise IndexOutOfRangeError(
            f"component index {index} out of range for length {len(x)}"
        )
    out = list(x)
    out[index] = level
    return as_vector(out)


def constant_vector(n_components: int, level: int) -> StateVector:
    """Vector of ``n_components`` copies of ``level``."""
    return as_vector((level,) * operator.index(n_components))


def extreme_levels(x: Sequence[int]) -> tuple[int, int]:
    """Minimum and maximum entry of a nonempty vector."""
    vec = as_vector(x)
    return min(vec), max(vec)
