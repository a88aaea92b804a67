"""Lexicographic enumeration of finite state spaces.

Vectors of ``{0..max_state}^n`` are indexed 0..size-1 in lexicographic
order with component 1 as the most significant digit, so the flat index
is the C-order index of the n-dimensional array with one axis per
component (``np.unravel_index`` recovers a vector from it). All
consumers iterate in this one fixed order, which keeps counterexamples and
accumulated sums deterministic.

Exact sums are accumulated in fixed chunks of ``2**16`` vectors, and
both of their inputs come in those chunks, cut by one helper: per-vector
weights, built block by block, and the levels of an expression tree,
built by broadcasting over slabs of at most ``2**20`` vectors (one uint8
byte per vector), so their memory does not grow with the space. A full
level table (:func:`level_table`) is filled from those chunks for a
tree, and by calling a callable once per vector.
"""

from __future__ import annotations

import itertools
import os
from collections.abc import Callable, Iterator, Sequence

import numpy as np

from .core import StateSpace
from .errors import ExplosionLimitError, InvalidLimitError, LevelOutOfRangeError
from .structure import (
    Component,
    KOutOfN,
    StructureExpr,
    _check_covers,
    _eval_grid,
    _indices,
)

#: Default ceiling on the number of vectors any exhaustive pass may visit.
DEFAULT_ENUM_LIMIT = 10**8

#: Environment variable mirroring the CLI ``--limit`` flag.
LIMIT_ENV_VAR = "MSCS_LIMIT"

_CHUNK = 1 << 16

# most vectors whose levels iter_level_chunks evaluates at once
_SLAB = 1 << 20

# largest radix whose weight blocks grow one digit column at a time; above
# it one np.multiply.outer is faster (measured break-even near radix 8)
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
    the space), then the limit.
    """
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


def _ensure_within_limit(what: str, size: int | str, limit: int | None) -> int:
    """``size``, the vector count of ``what`` (the state space, a down-set),
    refused with :class:`ExplosionLimitError` past the limit; a count too
    large to build comes as its text and is always refused."""
    bound = resolve_limit(limit)
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
    for lo in range(0, total, _CHUNK):
        hi = min(lo + _CHUNK, total)
        yield lo, _digit_matrix(lo, hi, n_components, max_state + 1)


def _digit_matrix(lo: int, hi: int, n_components: int, radix: int) -> np.ndarray:
    """Digits of the flat indices lo..hi-1, one row per index."""
    idx = np.arange(lo, hi, dtype=np.int64)
    digits = np.empty((hi - lo, n_components), dtype=np.int64)
    for col in range(n_components - 1, -1, -1):
        idx, digits[:, col] = np.divmod(idx, radix)
    return digits


def _cut_chunks(
    total: int, block: int, build: Callable[[int, int], np.ndarray]
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(first_flat_index, values)`` for the flat indices
    0..total-1 in lexicographic order, in chunks of ``2**16`` vectors, cut
    from blocks of ``block`` consecutive vectors; ``build(first, stop)``
    returns the flat values of blocks first..stop-1.

    A chunk inside the blocks built last is a view of them. A chunk that
    starts inside the last block built and runs past it either rebuilds
    that block, when it is shorter than a chunk (cheaper than a copy), or
    joins its tail to the head of the next block, which is built once.
    """
    values, start = None, 0
    for lo in range(0, total, _CHUNK):
        hi = min(lo + _CHUNK, total)
        end = start if values is None else start + values.size
        if hi > end:
            stop = (hi - 1) // block + 1
            if lo < end and block >= _CHUNK:
                tail = values[lo - start :]
                values, start = build(end // block, stop), end
                yield lo, np.concatenate((tail, values[: hi - end]))
                continue
            first = lo // block
            values, start = build(first, stop), first * block
        yield lo, values[lo - start : hi - start]


def iter_weight_chunks(pmf_matrix: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(first_flat_index, weights)`` in lexicographic order, in
    chunks of ``2**16`` vectors, where the weight of vector x is
    ``pmf[0][x1] * pmf[1][x2] * ...`` multiplied left to right (one row of
    ``pmf_matrix`` per component).

    Each chunk is cut from a block of whole trailing axes: the
    left-to-right products of the leading entries, extended one trailing
    axis at a time. For small radices the extension fills one digit column
    per pass (``weights * pmf[d]``, so the inner loop runs over the long
    axis); otherwise it is ``np.multiply.outer``. Both form the same single
    products, so the weights are bit-identical. Memory stays a small
    multiple of the chunk whatever the space size.
    """
    n_components, radix = pmf_matrix.shape
    total = StateSpace(radix - 1).size(n_components)
    # trailing axes per block; blocks of at most chunk/radix vectors keep
    # the part computed beyond a chunk's two edges small
    trailing = 0
    while trailing < n_components and radix ** (trailing + 2) <= _CHUNK:
        trailing += 1
    leading = n_components - trailing

    def build(first: int, stop: int) -> np.ndarray:
        digits = _digit_matrix(first, stop, leading, radix)
        weights = np.ones(digits.shape[0])
        for col in range(leading):
            weights *= pmf_matrix[col, digits[:, col]]
        for pmf in pmf_matrix[leading:]:
            if radix <= _COLUMNWISE_MAX_RADIX:
                grown = np.empty((weights.size, radix))
                for digit, mass in enumerate(pmf):
                    np.multiply(weights, mass, out=grown[:, digit])
                weights = grown.reshape(-1)
            else:
                weights = np.multiply.outer(weights, pmf).reshape(-1)
        return weights

    return _cut_chunks(total, radix**trailing, build)


def iter_level_chunks(
    expr: StructureExpr, n_components: int, max_state: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(first_flat_index, levels)`` of an expression tree over
    ``{0..max_state}^n_components`` in lexicographic order, in the chunks
    of :func:`iter_weight_chunks`: uint8 system levels, one per vector.

    This is the one evaluator of a tree over a whole space. Levels are
    evaluated one slab at a time: the trailing components span at most
    ``2**20`` vectors, component ``ci`` as ``arange(max_state+1)`` laid
    along axis ``i-1`` so the nodes combine by broadcasting, and the
    leading ones are fixed to the slab's digits. Every largest
    subtree that reads trailing components only is evaluated once per
    call, not once per slab. Memory stays a small multiple of a slab
    whatever the space size.
    """
    _check_covers(expr, n_components)
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

    def build(first: int, stop: int) -> np.ndarray:
        slabs = []
        for digits in _digit_matrix(first, stop, leading, radix):
            axes[:leading] = levels[digits]
            slab = _eval_grid(tree, axes)
            # a copy only when the slab is broadcast from a smaller shape
            slabs.append(np.broadcast_to(slab, shape).reshape(-1))
        return slabs[0] if len(slabs) == 1 else np.concatenate(slabs)

    total = StateSpace(max_state).size(n_components)
    return _cut_chunks(total, radix**trailing, build)


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
    if isinstance(expr, KOutOfN):
        return KOutOfN(expr.k, children)
    return type(expr)(children)


def level_table(
    structure: StructureExpr | Callable[[Sequence[int]], int],
    n_components: int,
    max_state: int,
    limit: int | None = None,
) -> np.ndarray:
    """System level for every vector of the space, flat, lexicographic.

    Expression trees fill a uint8 table (levels never exceed the 255 state
    ceiling) chunk by chunk from :func:`iter_level_chunks`, the slabs the
    exact distribution reads; arbitrary callables are called once per
    vector, in that order, straight into an int64 table. The limit is
    checked before anything is allocated. Coherence passes read it for a
    tree's binary image and for a callable's full space.
    """
    size = ensure_enumerable(n_components, max_state, limit)
    if isinstance(structure, StructureExpr):
        chunks = iter_level_chunks(structure, n_components, max_state)
        table = np.empty(size, dtype=np.uint8)
        for lo, levels in chunks:
            table[lo : lo + levels.size] = levels
        return table
    vectors = itertools.product(range(max_state + 1), repeat=n_components)
    return np.fromiter(map(structure, vectors), np.int64, count=size)
