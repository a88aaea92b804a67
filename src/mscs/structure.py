"""Structure functions: expression trees, evaluators, and the textual DSL.

The three basic building blocks are series (minimum), parallel (maximum),
and k-out-of-n (ascending order statistic). Expression trees compose them
over 1-based component references and are immutable after construction.

DSL grammar::

    expr := "c" INT
          | "series" "(" expr ("," expr)+ ")"
          | "parallel" "(" expr ("," expr)+ ")"
          | "koon" "(" INT ";" expr ("," expr)* ")"

Whitespace is insignificant; INT is a decimal integer >= 1. Series and
parallel take at least two children (a singleton is just the bare
component); koon takes at least one. Operators nest at most
``MAX_NESTING`` deep.
"""

from __future__ import annotations

__all__ = [
    "Component",
    "Kind",
    "KOutOfN",
    "Parallel",
    "Series",
    "StructureExpr",
    "StructureFunction",
    "arity",
    "component",
    "eval_expr",
    "eval_expr_batch",
    "eval_k_out_of_n",
    "eval_parallel",
    "eval_series",
    "format_expr",
    "k_out_of_n",
    "parallel",
    "parse_expr",
    "series",
]

import math
import operator
import re
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Literal, Union

import numpy as np

from .core import _as_level, as_vector
from .errors import (
    ArityMismatchError,
    EmptyVectorError,
    InvalidKError,
    LevelOutOfRangeError,
    ParseError,
    PreconditionViolatedError,
)


class StructureExpr:
    """Base class for structure-function expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Component(StructureExpr):
    index: int  # 1-based

    def __post_init__(self) -> None:
        object.__setattr__(self, "index", operator.index(self.index))
        if self.index < 1:
            raise ArityMismatchError(
                f"component index must be >= 1, got {self.index}"
            )


@dataclass(frozen=True)
class Series(StructureExpr):
    children: tuple[StructureExpr, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", tuple(self.children))
        # at least two: singletons are written as the bare component, which
        # keeps parse/format a bijection
        if len(self.children) < 2:
            raise EmptyVectorError("series requires at least two children")


@dataclass(frozen=True)
class Parallel(StructureExpr):
    children: tuple[StructureExpr, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", tuple(self.children))
        if len(self.children) < 2:
            raise EmptyVectorError("parallel requires at least two children")


@dataclass(frozen=True)
class KOutOfN(StructureExpr):
    k: int
    children: tuple[StructureExpr, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", operator.index(self.k))
        object.__setattr__(self, "children", tuple(self.children))
        if len(self.children) < 1:
            raise EmptyVectorError("koon requires at least one child")
        if not 1 <= self.k <= len(self.children):
            raise InvalidKError(
                f"k={self.k} outside 1..{len(self.children)} children"
            )


def component(index: int) -> Component:
    return Component(index)


def series(*children: StructureExpr) -> Series:
    return Series(tuple(children))


def parallel(*children: StructureExpr) -> Parallel:
    return Parallel(tuple(children))


def k_out_of_n(k: int, *children: StructureExpr) -> KOutOfN:
    return KOutOfN(k, tuple(children))


#: A structure function: an expression tree, or any callable mapping a state
#: vector to a system level: an integer, or a value equal to one (``2.0``,
#: ``np.int8(2)``, ``True``), read through :func:`as_level_function`.
StructureFunction = Union[StructureExpr, Callable[[Sequence[int]], int]]

#: The two arrangements with product closed forms.
Kind = Literal["series", "parallel"]


def eval_series(x: Sequence[int]) -> int:
    """System level of a series arrangement: the minimum component level."""
    return min(as_vector(x))


def eval_parallel(x: Sequence[int]) -> int:
    """System level of a parallel arrangement: the maximum component level."""
    return max(as_vector(x))


def eval_k_out_of_n(k: int, x: Sequence[int]) -> int:
    """The (n-k+1)-th smallest entry of ``x`` (ascending order statistic).

    k=1 reduces to parallel, k=n to series. Ties are resolved naturally by
    the ascending sort.
    """
    x, k = as_vector(x), operator.index(k)
    n = len(x)
    if not 1 <= k <= n:
        raise InvalidKError(f"k={k} outside 1..{n}")
    return sorted(x)[n - k]


def kind_evaluator(kind: Kind) -> Callable[[Sequence[int]], int]:
    if kind == "series":
        return eval_series
    if kind == "parallel":
        return eval_parallel
    raise PreconditionViolatedError(
        f"kind must be 'series' or 'parallel', got {kind!r}"
    )


def _indices(expr: StructureExpr) -> list[int]:
    """Every 1-based component index ``expr`` references, one per leaf: the
    one node-type check, which every pass runs before it walks a tree."""
    found, stack = [], [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Component):
            found.append(node.index)
        elif isinstance(node, (Series, Parallel, KOutOfN)):
            stack.extend(node.children)
        else:
            raise TypeError(f"not a structure expression: {node!r}")
    return found


def arity(expr: StructureExpr) -> int:
    """Largest 1-based component index referenced by ``expr``."""
    return max(_indices(expr))


def _check_covers(expr: StructureExpr, n_components: int) -> None:
    """Refuse ``n_components`` (a vector's length, a matrix's width, a
    family's size) below the largest component index ``expr`` references."""
    if n_components < arity(expr):
        noun = "component does" if n_components == 1 else "components do"
        raise ArityMismatchError(
            f"{n_components} {noun} not cover component indices up to "
            f"{arity(expr)}"
        )


def eval_expr(expr: StructureExpr, x: Sequence[int]) -> int:
    """Recursively evaluate an expression on a state vector.

    ``x`` must cover every referenced component; extra trailing components
    are permitted (and ignored) so that an expression can be checked inside
    a larger declared component set.
    """
    _check_covers(expr, len(x))
    return _eval(expr, as_vector(x))


def _eval(expr: StructureExpr, x: Sequence[int]) -> int:
    if isinstance(expr, Component):
        return x[expr.index - 1]
    if isinstance(expr, Series):
        return min(_eval(c, x) for c in expr.children)
    if isinstance(expr, Parallel):
        return max(_eval(c, x) for c in expr.children)
    return sorted(_eval(c, x) for c in expr.children)[-expr.k]  # koon


def eval_expr_batch(expr: StructureExpr, states: np.ndarray) -> np.ndarray:
    """Vectorized :func:`eval_expr` over the rows of a 2-D level matrix:
    integer or bool, with no negative entry."""
    states = np.asarray(states)
    if states.ndim != 2:
        raise ArityMismatchError("states must be a 2-D matrix of levels")
    _check_covers(expr, states.shape[1])
    if states.dtype.kind not in "biu" or (states.size and states.min() < 0):
        raise LevelOutOfRangeError("states must be non-negative integers")
    # column views broadcast against each other like grid axes
    return _eval_grid(expr, list(states.T))


def _eval_grid(expr: StructureExpr, axes: list[np.ndarray]) -> np.ndarray:
    """Levels of ``expr``, component ``ci`` read from ``axes[i-1]``, in the
    broadcast shape of the axes it reads. Never writes into its inputs."""
    if isinstance(expr, Component):
        return axes[expr.index - 1]
    if isinstance(expr, (Series, Parallel)):
        op = np.minimum if isinstance(expr, Series) else np.maximum
        # smallest first, so the running result grows as late as it can;
        # among equal sizes the one laid along the fewest axes goes first,
        # which keeps the running result contiguous over the inner axes
        out, *rest = sorted(
            (_eval_grid(c, axes) for c in expr.children),
            key=lambda value: (value.size, value.ndim),
        )
        owned = False  # whether out is a temporary this node may overwrite
        for value in rest:
            shape = np.broadcast_shapes(out.shape, value.shape)
            value = _lay_out_inner(value, shape)
            if owned and out.shape == shape:
                op(out, value, out=out)
            else:
                out = op(_lay_out_inner(out, shape), value)
                owned = isinstance(out, np.ndarray)
        return out
    values = [_eval_grid(c, axes) for c in expr.children]  # koon
    stacked = np.stack(np.broadcast_arrays(*values), axis=-1)
    pick = stacked.shape[-1] - expr.k
    return np.partition(stacked, pick, axis=-1)[..., pick]


#: Entries a ufunc's innermost loop should cover on a large grid.
_INNER_RUN = 512


def _lay_out_inner(value: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """``value`` laid out contiguously over the innermost axes of
    ``shape``, the shape it is about to be combined into, that hold at
    least ``_INNER_RUN`` entries, when it is not already.

    numpy's vectorized minimum and maximum loops need both operands
    contiguous along the inner loop. A child that is constant along the
    last axes, or that varies along the last axis but not along the next
    (component n against a grid), gets short rows or a scalar loop
    instead: on a ``(5,) * 10`` grid a contiguous pair takes 1.2 ms, rows
    of 5 against a constant 12 ms. The copy holds at most as many entries
    as the result. Grids of fewer than eight such runs are left alone.
    """
    if math.prod(shape) < 8 * _INNER_RUN:
        return value
    split, run = len(shape), 1
    while split > 0 and run < _INNER_RUN:
        split -= 1
        run *= shape[split]
    padded = (1,) * (len(shape) - value.ndim) + value.shape
    if padded[split:] == shape[split:]:
        return value
    return np.broadcast_to(value, padded[:split] + shape[split:]).copy()


def as_level_function(
    structure: StructureFunction, n_components: int
) -> Callable[[Sequence[int]], int]:
    """View any structure function as a plain vector-to-level callable.
    The one reader of a callable's value: it comes back an int, or is
    refused with :class:`LevelOutOfRangeError` when it is not a level."""
    if isinstance(structure, StructureExpr):
        _check_covers(structure, n_components)
        return lambda x: _eval(structure, x)
    if callable(structure):
        return lambda x: _as_level(structure(x))
    raise TypeError(f"not a structure function: {structure!r}")


def format_expr(expr: StructureExpr) -> str:
    """Canonical DSL text; round-trips through :func:`parse_expr`."""
    if isinstance(expr, Component):
        return f"c{expr.index}"
    if isinstance(expr, Series):
        return f"series({', '.join(format_expr(c) for c in expr.children)})"
    if isinstance(expr, Parallel):
        return f"parallel({', '.join(format_expr(c) for c in expr.children)})"
    if isinstance(expr, KOutOfN):
        inner = ", ".join(format_expr(c) for c in expr.children)
        return f"koon({expr.k}; {inner})"
    raise TypeError(f"not a structure expression: {expr!r}")


# --- DSL parser (recursive descent over a token list) ---

#: Most operators a parsed tree nests. Tree walks take up to three frames
#: per level, so every command runs at this depth under the default limit.
MAX_NESTING = 200

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<name>[A-Za-z][A-Za-z0-9]*)
  | (?P<int>[0-9]+)
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<comma>,)
  | (?P<semi>;)
    """,
    re.VERBOSE,
)

_COMPONENT_RE = re.compile(r"^c([0-9]+)$")


@dataclass
class _Token:
    kind: str
    text: str
    offset: int  # 0-based character offset


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = self._tokenize(text)
        self.pos = 0

    def _byte_offset(self, char_offset: int) -> int:
        # 1-based byte offset of the character position
        return len(self.text[:char_offset].encode("utf-8")) + 1

    def _fail(self, message: str, char_offset: int) -> ParseError:
        return ParseError(message, self._byte_offset(char_offset))

    def _tokenize(self, text: str) -> list[_Token]:
        tokens: list[_Token] = []
        i = 0
        while i < len(text):
            m = _TOKEN_RE.match(text, i)
            if m is None:
                raise self._fail(f"unexpected character {text[i]!r}", i)
            if m.lastgroup != "ws":
                tokens.append(_Token(m.lastgroup, m.group(), i))
            i = m.end()
        tokens.append(_Token("eof", "", len(text)))
        return tokens

    def _peek(self) -> _Token:
        return self.tokens[self.pos]

    def _advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _expect(self, kind: str, what: str) -> _Token:
        tok = self._peek()
        if tok.kind != kind:
            raise self._fail(f"expected {what}", tok.offset)
        return self._advance()

    def parse(self) -> StructureExpr:
        expr = self._expr(0)
        tail = self._peek()
        if tail.kind != "eof":
            raise self._fail("expected end of input", tail.offset)
        return expr

    def _expr(self, depth: int) -> StructureExpr:  # inside depth operators
        tok = self._peek()
        if tok.kind != "name":
            raise self._fail(
                "expected 'series', 'parallel', 'koon', or a component "
                "like 'c1'",
                tok.offset,
            )
        self._advance()
        if tok.text in ("series", "parallel", "koon"):
            if depth == MAX_NESTING:
                raise self._fail(
                    f"operators nest deeper than {MAX_NESTING} levels",
                    tok.offset,
                )
            self._expect("lparen", "'('")
            if tok.text == "koon":
                k = self._positive_int()
                self._expect("semi", "';'")
            children = [self._expr(depth + 1)]
            comma = self._peek()
            if comma.kind != "comma" and tok.text != "koon":
                raise self._fail(
                    f"expected ',' ({tok.text} needs at least two children)",
                    comma.offset,
                )
            while self._peek().kind == "comma":
                self._advance()
                children.append(self._expr(depth + 1))
            self._expect("rparen", "')' or ','")
            if tok.text == "koon":
                return KOutOfN(k, tuple(children))
            node = Series if tok.text == "series" else Parallel
            return node(tuple(children))
        m = _COMPONENT_RE.match(tok.text)
        if m:
            index = int(m.group(1))
            if index < 1:
                raise self._fail("component index must be >= 1", tok.offset)
            return Component(index)
        raise self._fail(
            f"unknown name {tok.text!r}: expected 'series', 'parallel', "
            "'koon', or a component like 'c1'",
            tok.offset,
        )

    def _positive_int(self) -> int:
        tok = self._expect("int", "a positive integer")
        value = int(tok.text)
        if value < 1:
            raise self._fail("expected an integer >= 1", tok.offset)
        return value


def parse_expr(text: str) -> StructureExpr:
    """Parse DSL text into an expression tree.

    Raises :class:`ParseError` with a 1-based byte offset on malformed
    input or on an operator nested deeper than ``MAX_NESTING``, and
    :class:`InvalidKError` when a koon's k exceeds its child count.
    """
    return _Parser(text).parse()
