"""Lexicographic enumeration of finite state spaces.

Vectors of ``{0..max_state}^n`` are indexed 0..size-1 in lexicographic
order with component 1 as the most significant digit, so the flat index
is the C-order index of the n-dimensional array with one axis per
component (``np.unravel_index`` recovers a vector from it). All
consumers iterate in this one fixed order, which keeps counterexamples and
accumulated sums deterministic.

The levels of an expression tree stream one slab at a time: every
vector that shares one tuple of leading digits, at most ``2**20`` of
them (one uint8 byte per vector), built by broadcasting. Per-vector
weights stream in fixed chunks of ``2**16`` vectors, the unit of the
exact sum's accumulation. Neither grows with the space. A full level
table (:func:`level_table`) is filled slab by slab for a tree, and by
calling a callable once per vector.
"""

from __future__ import annotations

__all__ = ["DEFAULT_ENUM_LIMIT", "LIMIT_ENV_VAR"]

import dataclasses
import itertools
import operator
import os
from collections.abc import Iterator

import numpy as np

from .core import StateSpace
from .errors import ExplosionLimitError, InvalidLimitError, LevelOutOfRangeError
from .structure import (
    Component,
    StructureExpr,
    StructureFunction,
    _check_covers,
    _eval_grid,
    _indices,
    as_level_function,
)

#: Default ceiling on the number of vectors any exhaustive pass may visit.
DEFAULT_ENUM_LIMIT = 10**8

#: Environment variable mirroring the CLI ``--limit`` flag.
LIMIT_ENV_VAR = "MSCS_LIMIT"

_CHUNK = 1 << 16

# most vectors in one slab of iter_level_slabs
_SLAB = 1 << 20

# largest radix whose weight blocks grow one digit column at a time; above
# it one np.multiply.outer is as fast or faster (measured: column-wise
# faster through radix 7, even at 8-10, outer faster from 11)
_COLUMNWISE_MAX_RADIX = 7


def resolve_limit(limit: int | None = None) -> int:
    """Effective enumeration limit: explicit value, else environment
    override, else the default.

    Raises :class:`InvalidLimitError` when the explicit or the environment
    value is not a non-negative integer.
    """
    if limit is not None:
        source, raw, value = "limit", limit, limit
    else:
        raw = os.environ.get(LIMIT_ENV_VAR)
        if raw is None:
            return DEFAULT_ENUM_LIMIT
        source = LIMIT_ENV_VAR
        try:
            value = int(raw)
        except ValueError:
            value = None
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise InvalidLimitError(
            f"{source} must be a non-negative integer, got {raw!r}"
        )
    return value


def ensure_enumerable(
    n_components: int, max_state: int, limit: int | None = None
) -> int:
    """Return the space size, refusing outright when it exceeds the limit.

    Checks n >= 1, then M (through :class:`StateSpace`, which also counts
    the space), then the limit. n and M may be numpy integers.
    """
    n_components, max_state = map(operator.index, (n_components, max_state))
    if n_components < 1:
        raise LevelOutOfRangeError("n_components must be at least 1")
    space = StateSpace(max_state)
    bound = resolve_limit(limit)
    if n_components > bound.bit_length():
        # 2^n alone exceeds the bound: (M+1)^n is named, never built
        size: int | str = f"{max_state + 1}^{n_components}"
    else:
        size = space.size(n_components)
    return _ensure_within_limit("state space", size, bound)


def _ensure_within_limit(what: str, size: int | str, bound: int) -> int:
    """``size``, the vector count of ``what`` (the state space, a down-set),
    refused with :class:`ExplosionLimitError` past the resolved ``bound``; a
    count too large to build comes as its text and is always refused."""
    if isinstance(size, int) and size <= bound:
        return size
    raise ExplosionLimitError(
        f"{what} holds {size} vectors, over the limit {bound}; "
        "raise the limit explicitly to proceed"
    )


def iter_vector_chunks(
    n_components: int, max_state: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(first_flat_index, digits_matrix)`` blocks of ``2**16``
    vectors in lexicographic order. Each matrix row holds one state
    vector. Nothing in the package calls it; ``perfbench`` times it as its
    digit-enumeration probe."""
    total = StateSpace(max_state).size(n_components)
    shape = (max_state + 1,) * n_components
    for lo in range(0, total, _CHUNK):
        hi = min(lo + _CHUNK, total)
        yield lo, np.array(np.unravel_index(np.arange(lo, hi), shape)).T


def iter_weight_chunks(pmf_matrix: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(first_flat_index, weights)`` in lexicographic order, in
    chunks of ``2**16`` vectors, where the weight of vector x is
    ``pmf[0][x1] * pmf[1][x2] * ...`` multiplied left to right (one row of
    ``pmf_matrix`` per component).

    Each chunk is sliced from the blocks of whole trailing axes that cover
    it: the left-to-right products of the leading entries, extended one
    trailing axis at a time. At most n - 1 axes trail, so every block has
    a leading digit; the blocks' digits come from ``np.unravel_index``,
    and their products from one gather and one ``np.multiply.reduce``
    down the leading axes, which multiplies left to right. For small
    radices the extension fills one digit column per pass
    (``weights * pmf[d]``, so the inner loop runs over the long axis);
    otherwise it is ``np.multiply.outer``. Both form the same single
    products, so the weights are bit-identical.

    The products grow in two buffers allocated once per call: one holds a
    chunk plus the blocks overhanging its edges, the other a radix-th of
    that. Each extension writes into the other buffer, and the last lands
    in the large one. So each yielded chunk is a view that the next chunk
    overwrites: copy it to keep it. Memory stays a small multiple of the
    chunk whatever the space size, and no chunk allocates an array of its
    size.
    """
    n_components, radix = pmf_matrix.shape
    total = StateSpace(radix - 1).size(n_components)
    chunk = _CHUNK
    # trailing axes per block; blocks of at most chunk/radix vectors keep
    # the part computed beyond a chunk's two edges small
    trailing = 0
    while trailing < n_components - 1 and radix ** (trailing + 2) <= chunk:
        trailing += 1
    leading, block = n_components - trailing, radix**trailing
    # a chunk spans at most ceil(chunk/block) + 1 blocks; the space is a
    # whole number of blocks
    size = min((-(-chunk // block) + 1) * block, total)
    # growth step s writes pair[(trailing - s) % 2], step 0 being the
    # leading products, so the last step writes the large buffer
    pair = (np.empty(size), np.empty(size // radix))
    rows, shape = np.arange(leading)[:, np.newaxis], (radix,) * leading
    for lo in range(0, total, chunk):
        hi = min(lo + chunk, total)
        first = lo // block
        blocks = np.arange(first, (hi - 1) // block + 1)
        digits = np.array(np.unravel_index(blocks, shape))
        weights = pair[trailing % 2][: blocks.size]
        np.multiply.reduce(pmf_matrix[rows, digits], axis=0, out=weights)
        for step, pmf in enumerate(pmf_matrix[leading:], 1):
            grown = pair[(trailing - step) % 2][: weights.size * radix]
            grown = grown.reshape(-1, radix)
            if radix <= _COLUMNWISE_MAX_RADIX:
                for digit, mass in enumerate(pmf):
                    np.multiply(weights, mass, out=grown[:, digit])
            else:
                np.multiply.outer(weights, pmf, out=grown)
            weights = grown.reshape(-1)
        yield lo, weights[lo - first * block : hi - first * block]


def iter_level_slabs(
    expr: StructureExpr, n_components: int, max_state: int
) -> Iterator[tuple[int, np.ndarray]]:
    """``(first_flat_index, levels)`` of an expression tree over
    ``{0..max_state}^n_components`` in lexicographic order, one slab at a
    time: uint8 system levels, one per vector.

    This is the one evaluator of a tree over a whole space. A slab holds
    every vector that shares one tuple of leading digits: the trailing
    components span at most ``2**20`` vectors, component ``ci`` as
    ``arange(max_state+1)`` laid along axis ``i-1`` so the nodes combine
    by broadcasting, and the leading ones are fixed to the slab's digits.
    The call itself evaluates every largest subtree that reads trailing
    components only, once per call, not once per slab; the generator it
    returns then yields the slabs. Memory stays a small multiple of a slab
    whatever the space size. Callers check that n covers the tree.
    """
    radix = max_state + 1
    trailing = 0
    while trailing < n_components and radix ** (trailing + 1) <= _SLAB:
        trailing += 1
    leading = n_components - trailing
    levels = np.arange(radix, dtype=np.uint8)
    axes = [levels[0]] * leading + [
        levels.reshape((-1,) + (1,) * (n_components - 1 - i))
        for i in range(leading, n_components)
    ]
    tree = _hoist_trailing(expr, leading, axes)
    shape = (radix,) * trailing

    def slabs() -> Iterator[tuple[int, np.ndarray]]:
        digit_tuples = itertools.product(levels, repeat=leading)
        for first, digits in enumerate(digit_tuples):
            axes[:leading] = digits
            slab = np.broadcast_to(_eval_grid(tree, axes), shape)
            # a copy only when the slab is broadcast from a smaller shape
            yield first * slab.size, slab.reshape(-1)

    return slabs()


def _hoist_trailing(
    expr: StructureExpr, leading: int, axes: list
) -> StructureExpr:
    """``expr`` with every largest operator subtree that reads no component
    up to ``leading`` evaluated once on ``axes``, appended to them, and
    replaced by a component that reads it."""
    if isinstance(expr, Component):
        return expr
    if min(_indices(expr)) > leading:
        axes.append(_eval_grid(expr, axes))
        return Component(len(axes))
    children = tuple(_hoist_trailing(c, leading, axes) for c in expr.children)
    return dataclasses.replace(expr, children=children)


def level_table(
    structure: StructureFunction,
    n_components: int,
    max_state: int,
    limit: int | None = None,
) -> np.ndarray:
    """System level for every vector of the space, flat, lexicographic.

    Expression trees fill a uint8 table (levels never exceed the 255 state
    ceiling) slab by slab from :func:`iter_level_slabs`; arbitrary
    callables are called once per vector, in that order, straight into an
    int64 table. The limit is checked before anything is allocated.
    """
    n_components, max_state = map(operator.index, (n_components, max_state))
    size = ensure_enumerable(n_components, max_state, limit)
    return _fill_table(structure, n_components, max_state, size)


def _fill_table(
    structure: StructureFunction, n_components: int, max_state: int, size: int
) -> np.ndarray:
    """:func:`level_table` of ``size`` vectors, after the caller's guard;
    coherence passes fill a tree's binary image or a callable's space."""
    if isinstance(structure, StructureExpr):
        _check_covers(structure, n_components)
        slabs = iter_level_slabs(structure, n_components, max_state)
        table = np.empty(size, dtype=np.uint8)
        for lo, levels in slabs:
            table[lo : lo + levels.size] = levels
        return table
    fn = as_level_function(structure, n_components)
    vectors = itertools.product(range(max_state + 1), repeat=n_components)
    return np.fromiter(map(fn, vectors), np.int64, count=size)
