"""Exhaustive verification of the coherence axioms and related structure.

A structure function is coherent when it is monotone, every component is
relevant at every level, and the constant vector of any level maps to that
level. Passing a check is a proof for the given size, not a sample, and
counterexamples are deterministic: the lexicographically least violator
is reported, with component 1 as the most significant digit.

Arbitrary callables are checked by enumerating the full state space
(guarded by the enumeration limit). Expression trees are checked through
their binary image instead. Series (min), parallel (max) and koon (an
order statistic) commute with any non-decreasing map applied to every
component, so for every level j >= 1, phi(x) >= j exactly when the binary
tree phi_B gives 1 on the indicator vector 1[x >= j] (the class of
Barlow & Wu, *Coherent systems with multistate components*, Math. Oper.
Res. 1978). Trees are therefore monotone, and relevance and upper
critical vectors at every level follow from one pass over the 2^n
vectors of ``{0, 1}^n``. The guard still counts ``(max_state+1)^n``, so
the limit means the same for both routes.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    StateSpace,
    StateVector,
    _as_level,
    _check_level,
    as_vector,
    constant_vector,
    extreme_levels,
    join,
    leq,
    meet,
    update_at,
)
from .enumeration import (
    _ensure_within_limit,
    _fill_table,
    ensure_enumerable,
    resolve_limit,
)
from .errors import (
    LevelOutOfRangeError,
    PreconditionViolatedError,
)
from .structure import (
    Kind,
    StructureExpr,
    StructureFunction,
    _check_covers,
    as_level_function,
    kind_evaluator,
)


@dataclass(frozen=True)
class MonotonicityResult:
    passed: bool
    counterexample: Optional[tuple[StateVector, StateVector]] = None
    values: Optional[tuple[int, int]] = None


@dataclass(frozen=True)
class RelevanceEntry:
    component: int  # 1-based, as in all user-facing output
    level: int
    passed: bool
    witness: Optional[StateVector] = None
    note: Optional[str] = None


@dataclass(frozen=True)
class BoundaryEntry:
    level: int
    passed: bool
    value: int


@dataclass(frozen=True)
class UCVSet:
    """All upper critical connection vectors to one level, lexicographically
    sorted and pairwise incomparable."""

    level: int
    vectors: tuple[StateVector, ...]


@dataclass(frozen=True)
class CoherenceReport:
    n_components: int
    max_state: int
    monotonicity: MonotonicityResult
    relevance: tuple[RelevanceEntry, ...]
    boundary: tuple[BoundaryEntry, ...]

    @property
    def overall(self) -> bool:
        return (
            self.monotonicity.passed
            and all(e.passed for e in self.relevance)
            and all(e.passed for e in self.boundary)
        )

    def to_dict(self) -> dict:
        """Machine-readable document; every failure carries the concrete
        witness reproducing it."""
        counterexamples: dict = {"monotone": None, "relevance": [], "boundary": []}
        if not self.monotonicity.passed:
            (x, y) = self.monotonicity.counterexample
            (vx, vy) = self.monotonicity.values
            counterexamples["monotone"] = {
                "x": list(x),
                "y": list(y),
                "value_x": vx,
                "value_y": vy,
            }
        for e in self.relevance:
            if not e.passed:
                counterexamples["relevance"].append(
                    {"component": e.component, "level": e.level, "note": e.note}
                )
        for e in self.boundary:
            if not e.passed:
                counterexamples["boundary"].append(
                    {
                        "level": e.level,
                        "vector": [e.level] * self.n_components,
                        "value": e.value,
                    }
                )
        return {
            "n_components": self.n_components,
            "max_state": self.max_state,
            "overall": self.overall,
            "monotone": self.monotonicity.passed,
            "relevance": [
                {
                    "component": e.component,
                    "level": e.level,
                    "passed": e.passed,
                    "witness": list(e.witness) if e.witness is not None else None,
                    "note": e.note,
                }
                for e in self.relevance
            ],
            "boundary": [
                {"level": e.level, "passed": e.passed, "value": e.value}
                for e in self.boundary
            ],
            "counterexamples": counterexamples,
        }

    def to_table(self) -> str:
        rel_pass = sum(1 for e in self.relevance if e.passed)
        bnd_pass = sum(1 for e in self.boundary if e.passed)
        lines = [
            f"monotone   {'pass' if self.monotonicity.passed else 'fail'}",
            f"relevance  {'pass' if rel_pass == len(self.relevance) else 'fail'}"
            f" ({rel_pass}/{len(self.relevance)})",
            f"boundary   {'pass' if bnd_pass == len(self.boundary) else 'fail'}"
            f" ({bnd_pass}/{len(self.boundary)})",
            f"overall    {'pass' if self.overall else 'fail'}",
        ]
        if not self.monotonicity.passed:
            x, y = self.monotonicity.counterexample
            vx, vy = self.monotonicity.values
            lines.append(
                "  monotone counterexample: "
                f"x={_fmt(x)} y={_fmt(y)} levels {vx} > {vy}"
            )
        for e in self.relevance:
            if not e.passed:
                lines.append(
                    f"  relevance fail: component {e.component} level "
                    f"{e.level}: {e.note}"
                )
        for e in self.boundary:
            if not e.passed:
                lines.append(
                    f"  boundary fail: level {e.level} maps to {e.value}"
                )
        return "\n".join(lines)


def _fmt(vec: StateVector) -> str:
    return ",".join(str(v) for v in vec)


def check_monotonicity(
    structure: StructureFunction,
    n_components: int,
    max_state: int,
    limit: int | None = None,
) -> MonotonicityResult:
    """Verify that raising any component never lowers the system level.

    On failure, returns the lexicographically least violating pair (x, y).
    A tree is monotone by the lemma, once its space is guarded.
    """
    n_components, max_state = map(operator.index, (n_components, max_state))
    if isinstance(structure, StructureExpr):
        ensure_enumerable(n_components, max_state, limit)
        _check_covers(structure, n_components)
        return MonotonicityResult(True)
    return _monotonicity(_level_grid(structure, n_components, max_state, limit))


def _level_grid(
    structure: StructureFunction,
    n_components: int,
    max_state: int,
    limit: int | None,
) -> np.ndarray:
    """The level table every coherence pass reads, one axis per component:
    a tree's binary image over ``{0, 1}^n``, or a callable's full space.
    The guard counts the full space for both."""
    size = ensure_enumerable(n_components, max_state, limit)
    if isinstance(structure, StructureExpr):
        max_state, size = 1, 2**n_components  # the binary image
    table = _fill_table(structure, n_components, max_state, size)
    return table.reshape((max_state + 1,) * n_components)


def _monotonicity(table: np.ndarray) -> MonotonicityResult:
    """Search a callable's full ``table`` for a violating pair."""
    # suffix minima along each axis compose to the minimum over the
    # componentwise up-set of every vector; ``view[i, ...]`` stays a
    # writable view even when the table has a single axis
    upmin = table.copy()
    for axis in range(upmin.ndim):
        view = np.moveaxis(upmin, axis, 0)
        for i in range(len(view) - 2, -1, -1):
            np.minimum(view[i, ...], view[i + 1], out=view[i, ...])
    bad = table > upmin
    del upmin
    if not bad.any():
        return MonotonicityResult(True)
    x = _vector_at(int(np.argmax(bad)), table.shape)
    value_x = int(table[x])
    # the up-set of x is a box whose C order is lexicographic, so its first
    # hit is the least violating y
    box = table[tuple(slice(v, None) for v in x)]
    offset = _vector_at(int(np.argmax(box < value_x)), box.shape)
    y = tuple(v + d for v, d in zip(x, offset))
    return MonotonicityResult(False, (x, y), (value_x, int(box[offset])))


def _vector_at(index: int, shape: tuple[int, ...]) -> StateVector:
    """The vector at a flat C-order index of a table of this shape."""
    return tuple(int(v) for v in np.unravel_index(index, shape))


def check_relevance(
    structure: StructureFunction,
    n_components: int,
    max_state: int,
    limit: int | None = None,
) -> tuple[RelevanceEntry, ...]:
    """For every component and level, search for a context in which only
    that component's level produces that system level."""
    n_components, max_state = map(operator.index, (n_components, max_state))
    table = _level_grid(structure, n_components, max_state, limit)
    return _relevance_from_table(table, max_state)


def _relevance_from_table(
    table: np.ndarray, max_state: int
) -> tuple[RelevanceEntry, ...]:
    """Relevance of every component at every level ``0..max_state``.

    A table of radix 2 is a tree's binary image (or a full table at
    ``max_state`` 1). There, levels 0 and 1 ask for the same context, and
    a component is relevant at level j exactly when it is relevant in the
    binary table: the least witness at level j is ``min(j+1, max_state)``
    times the least binary context, since mapping every context entry to
    that scale if it reaches it and to 0 otherwise keeps a witness a
    witness and never raises it.
    """
    top = table.shape[0] - 1
    entries: list[RelevanceEntry] = []
    for axis in range(table.ndim):
        view = np.moveaxis(table, axis, 0)
        # a context is the other components' digits; only substituting
        # ``level`` for this component may give system level ``level``
        contexts = []
        for level in range(top + 1):
            ok = view[level] == level
            for sub in range(top + 1):
                if sub != level:
                    ok &= view[sub] != level
            if ok.any():
                # the least context, with this component's digit at 0
                least = _vector_at(int(np.argmax(ok)), ok.shape)
                contexts.append(least[:axis] + (0,) + least[axis:])
            else:
                contexts.append(None)
        for level in range(max_state + 1):
            context = contexts[min(level, top)]
            if context is None:
                note = (
                    f"no context makes the system level {level} depend "
                    f"on component {axis + 1} alone"
                )
                entries.append(RelevanceEntry(axis + 1, level, False, None, note))
                continue
            scale = min(level + 1, max_state) if top == 1 else 1
            witness = tuple(scale * v for v in context)
            entries.append(RelevanceEntry(axis + 1, level, True, witness, None))
    return tuple(entries)


def check_boundary(
    structure: StructureFunction, n_components: int, max_state: int
) -> tuple[BoundaryEntry, ...]:
    """Constant vectors must map to their own level."""
    n_components, max_state = map(operator.index, (n_components, max_state))
    StateSpace(max_state)
    fn = as_level_function(structure, n_components)
    entries = []
    for level in range(max_state + 1):
        value = fn(constant_vector(n_components, level))
        entries.append(BoundaryEntry(level, value == level, value))
    return tuple(entries)


def coherence_report(
    structure: StructureFunction,
    n_components: int,
    max_state: int,
    limit: int | None = None,
) -> CoherenceReport:
    """Run all three coherence checks; relevance, and a callable's
    monotonicity, read one table: a tree's binary image or a full space."""
    n_components, max_state = map(operator.index, (n_components, max_state))
    table = _level_grid(structure, n_components, max_state, limit)
    tree = isinstance(structure, StructureExpr)
    return CoherenceReport(
        n_components,
        max_state,
        MonotonicityResult(True) if tree else _monotonicity(table),
        _relevance_from_table(table, max_state),
        check_boundary(structure, n_components, max_state),
    )


def structure_bounds(
    structure: StructureFunction, x: StateVector
) -> tuple[int, int, int]:
    """(minimum entry, system level, maximum entry): for series, parallel
    and koon structures the middle value is sandwiched by the extremes."""
    vec = as_vector(x)
    low, high = extreme_levels(vec)
    return low, as_level_function(structure, len(vec))(vec), high


def redundancy_comparison(
    kind: Kind, x: StateVector, y: StateVector
) -> tuple[int, int]:
    """Componentwise redundancy versus system-level redundancy.

    Returns (level of the componentwise join, max of the two system
    levels). Series structures favor the component level; for parallel the
    two coincide.
    """
    fn = kind_evaluator(kind)
    merged = join(x, y)
    return fn(merged), max(fn(as_vector(x)), fn(as_vector(y)))


def composition_comparison(
    kind: Kind, x: StateVector, y: StateVector
) -> tuple[int, int]:
    """Componentwise composition versus system-level composition.

    Returns (level of the componentwise meet, min of the two system
    levels). They coincide for series; parallel favors the system level.
    """
    fn = kind_evaluator(kind)
    merged = meet(x, y)
    return fn(merged), min(fn(as_vector(x)), fn(as_vector(y)))


def is_connection_vector(
    structure: StructureFunction, x: StateVector, level: int
) -> bool:
    """True iff the vector produces exactly this system level."""
    vec = as_vector(x)
    return as_level_function(structure, len(vec))(vec) == _as_level(level)


def is_upper_critical(
    structure: StructureFunction,
    x: StateVector,
    level: int,
    max_state: int,
    limit: int | None = None,
) -> bool:
    """True iff x connects to ``level`` and every strictly lower vector
    falls below it. A tree is monotone, so only the covering predecessors
    of x (one entry lowered by one) need checking; a callable is checked
    by brute force over the down-set of x."""
    vec = _in_space(x, max_state)
    level = _check_level(level, max_state)
    down_set = math.prod(v + 1 for v in vec)
    _ensure_within_limit(f"down-set of {vec}", down_set, resolve_limit(limit))
    fn = as_level_function(structure, len(vec))
    if fn(vec) != level:
        return False
    if isinstance(structure, StructureExpr):
        lower = (update_at(vec, i, v - 1) for i, v in enumerate(vec) if v)
    else:
        lower = itertools.product(*(range(v + 1) for v in vec))
    return all(fn(below) < level for below in lower if below != vec)


def _in_space(x: StateVector, max_state: int) -> StateVector:
    """``x`` as a state vector, refused outside ``{0..max_state}^n``."""
    if not StateSpace(max_state).contains(vec := as_vector(x)):
        raise LevelOutOfRangeError(f"vector {vec} outside the state space")
    return vec


def enumerate_ucv(
    structure: StructureFunction,
    n_components: int,
    max_state: int,
    level: int,
    limit: int | None = None,
) -> UCVSet:
    """All upper critical connection vectors to ``level``, lexicographically
    sorted.

    Prefix passes along each axis mark every vector whose closed down-set
    reaches ``level``; a vector is upper critical when it sits at
    ``level`` and none of its covering predecessors (one per axis with a
    positive digit) is marked. Everything runs on boolean tables of one
    byte per vector. The result is an antichain for any table: if x < y
    both sit at ``level``, the predecessor of y along an axis where y
    exceeds x lies above x, is marked, and so y is not reported.

    Expression trees run this pass on their binary image: for level j >= 1
    the upper critical vectors are j times the binary ones to level 1, in
    the same order, and the zero vector is the only one to level 0.
    """
    n_components, max_state = map(operator.index, (n_components, max_state))
    level = _check_level(level, max_state)
    table = _level_grid(structure, n_components, max_state, limit)
    return UCVSet(level, _ucv_from_table(table, level))


def _ucv_from_table(table: np.ndarray, level: int) -> tuple[StateVector, ...]:
    """Upper critical vectors to ``level``, in lexicographic order. A
    table of radix 2 (a tree's binary image, or a full table at
    ``max_state`` 1) is searched at ``min(level, 1)`` and its vectors are
    scaled by ``level``; at level 0 the only candidate is the zero vector,
    which scales to itself."""
    top = table.shape[0] - 1
    target = min(level, top)
    reaches = table >= target
    for axis in range(reaches.ndim):
        view = np.moveaxis(reaches, axis, 0)
        for i in range(1, top + 1):
            np.logical_or(view[i, ...], view[i - 1], out=view[i, ...])
    covered = np.zeros_like(reaches)
    for axis in range(reaches.ndim):
        below = np.moveaxis(reaches, axis, 0)
        np.moveaxis(covered, axis, 0)[1:] |= below[:-1]
    del reaches
    mask = table == target
    mask &= ~covered
    hits = np.argwhere(mask)
    if top == 1:
        hits *= level
    return tuple(map(tuple, hits.tolist()))


def level_lower_bound_check(
    structure: StructureFunction,
    ucv: StateVector,
    level: int,
    x: StateVector,
    max_state: int,
    limit: int | None = None,
) -> bool:
    """Theorem check: a vector above an upper critical vector to ``level``
    keeps the system at or above that level.

    Returns the truth of the implication (vacuously true when the vector is
    not above the critical one); for coherent structures it always holds.
    """
    critical = as_vector(ucv)
    vec = _in_space(x, max_state)
    level = _check_level(level, max_state)
    if not is_upper_critical(structure, critical, level, max_state, limit):
        raise PreconditionViolatedError(
            f"{critical} is not an upper critical connection vector to "
            f"level {level}"
        )
    if not leq(critical, vec):
        return True
    return as_level_function(structure, len(vec))(vec) >= level
