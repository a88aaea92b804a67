"""Series pipeline case study: spec files, closed forms, and the sweep.

A long-distance pipeline is a series arrangement of segments, each with a
PMF over the shared level set. The module ships three ready-made
10-segment, 5-state specs (see :func:`case_study_path`): a mixed default,
and the above-average / below-average scenarios in which every segment
from the third onward holds its state-1 probability at 0.7 or 0.3 while
the first two are swept.
"""

from __future__ import annotations

import json
import math
import re
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cache
from importlib import resources
from pathlib import Path
from typing import TextIO, Union

import numpy as np

from .core import _check_max_state
from .errors import (
    InvalidPMFError,
    LevelOutOfRangeError,
    PreconditionViolatedError,
    SpecFormatError,
)
from .probability import (
    PMF_TOLERANCE,
    ComponentDistribution,
    SystemDistribution,
    _check_seed,
    _uniform_blocks,
    closed_form_cdf,
    validate_pmf,
)

_SCENARIO_FILES = {
    "default": "case_study.json",
    "above_average": "case_study_above_average.json",
    "below_average": "case_study_below_average.json",
}

_SWEEP_HEADER = "trial,p_1_1,p_2_1,P_pipeline_1\n"
_SWEEP_ROW = "%d,%.17g,%.17g,%.17g\n"
#: Sweep rows rendered per write, which bounds the bytes held at once.
_ROW_BLOCK = 1 << 12


@dataclass(frozen=True)
class Segment:
    name: str
    distribution: ComponentDistribution


@dataclass(frozen=True)
class PipelineSpec:
    max_state: int
    segments: tuple[Segment, ...]

    def __post_init__(self) -> None:
        try:
            _check_max_state(self.max_state, enumerated=False)
        except LevelOutOfRangeError as err:
            raise SpecFormatError(str(err)) from None
        if not self.segments:
            raise SpecFormatError("a pipeline needs at least one segment")
        for seg in self.segments:
            if seg.distribution.max_state != self.max_state:
                raise SpecFormatError(
                    f"segment {seg.name!r} has {len(seg.distribution.pmf)} "
                    f"pmf entries, expected {self.max_state + 1}"
                )
            diagnostic = validate_pmf(seg.distribution)
            if diagnostic is not None:
                raise InvalidPMFError(
                    f"segment {seg.name!r}: {diagnostic.message}"
                )

    @property
    def n_segments(self) -> int:
        return len(self.segments)

    @property
    def distributions(self) -> tuple[ComponentDistribution, ...]:
        return tuple(seg.distribution for seg in self.segments)


@dataclass(frozen=True)
class SweepRow:
    trial: int  # 1-based
    p_1_1: float
    p_2_1: float
    performance: float


@dataclass(frozen=True)
class SweepResult:
    """A state-1 sweep held as its recipe: the seed, the trial count and
    the product ``prod(1 - h)`` over the held segments' state-1 masses.

    Row ``t`` (0-based) is trial ``t + 1``. Its draws are the PCG64
    stream's doubles ``2t`` and ``2t + 1``, clamped to the smallest
    positive normal, and its value is the state-1 formula of
    :func:`state1_performance`. :meth:`columns`, :meth:`argmax_row` and
    the CSV and JSON writers compute rows ``_ROW_BLOCK`` at a time from the
    seed, so none of them holds a column of every trial. Equal recipes give
    the same rows bit for bit.
    """

    seed: int
    trials: int
    held_product: float

    def _blocks(
        self, start: int, stop: int
    ) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """``(first, draws, performance)`` for rows ``start:stop``: the
        clamped ``(rows, 2)`` blocks of :func:`_uniform_blocks`, which the
        next block overwrites, and their performance column."""
        for first, d in _uniform_blocks(self.seed, 2, start, stop, _ROW_BLOCK):
            np.maximum(d, np.finfo(np.float64).tiny, out=d)
            yield first, d, _state1(d[:, 0], d[:, 1], self.held_product)

    def columns(
        self, start: int = 0, stop: int | None = None
    ) -> tuple[range, list[float], list[float], list[float]]:
        """Trial numbers and the three float columns of rows
        ``start:stop`` as Python values; only those rows are drawn."""
        stop = self.trials if stop is None else min(stop, self.trials)
        start = min(start, stop)
        p_1_1, p_2_1, performance = [], [], []
        for _, d, p in self._blocks(start, stop):
            p_1_1 += d[:, 0].tolist()
            p_2_1 += d[:, 1].tolist()
            performance += p.tolist()
        return range(start + 1, stop + 1), p_1_1, p_2_1, performance

    def argmax_row(self) -> SweepRow:
        """The first row of largest performance, found a block at a time."""
        best, best_value = 0, -math.inf
        for first, _, p in self._blocks(0, self.trials):
            i = int(np.argmax(p))
            if p[i] > best_value:
                best, best_value = first + i, p[i]
        return SweepRow(*(column[0] for column in self.columns(best, best + 1)))

    @property
    def corner_supremum(self) -> float:
        """Least upper bound of the swept formula over the open unit
        square: the limit at both draws approaching 1, which is exactly 1.
        Unless a held segment has state-1 mass 1, the formula is strictly
        increasing in both draws and no sample attains it; with such a
        segment the held product is 0 and every sample is exactly 1."""
        return 1.0


def case_study_path(scenario: str = "default") -> Path:
    """Filesystem path of a shipped case-study spec."""
    try:
        name = _SCENARIO_FILES[scenario]
    except KeyError:
        raise SpecFormatError(
            f"unknown scenario {scenario!r}; choose from "
            f"{sorted(_SCENARIO_FILES)}"
        ) from None
    return Path(str(resources.files("mscs").joinpath("data", name)))


def load_case_study(scenario: str = "default") -> PipelineSpec:
    return load_pipeline_spec(case_study_path(scenario))


def load_pipeline_spec(path: Union[str, Path]) -> PipelineSpec:
    """Parse and validate a pipeline spec document.

    The format is JSON with an integer ``max_state`` and a nonempty
    ``segments`` array of ``{"name": str, "pmf": [max_state+1 numbers]}``.
    Text that does not decode (not UTF-8 or JSON, too deep, a number no
    float carries) raises :class:`SpecFormatError`, as does a bad field.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.loads(handle.read())
    except json.JSONDecodeError as err:
        raise SpecFormatError(
            f"line {err.lineno}, column {err.colno}: {err.msg}"
        ) from None
    except (ValueError, RecursionError) as err:
        # not UTF-8, an integer past the digit limit, or nested too deeply
        raise SpecFormatError(str(err)) from None
    if not isinstance(doc, dict):
        raise SpecFormatError("top level must be an object")
    if not isinstance(doc.get("max_state"), int) or isinstance(
        doc.get("max_state"), bool
    ):
        raise SpecFormatError("field 'max_state' must be an integer")
    raw_segments = doc.get("segments")
    if not isinstance(raw_segments, list):
        raise SpecFormatError("field 'segments' must be an array")
    segments = []
    for pos, raw in enumerate(raw_segments, start=1):
        if not isinstance(raw, dict):
            raise SpecFormatError(f"segment {pos} must be an object")
        name = raw.get("name")
        if not isinstance(name, str) or not name:
            raise SpecFormatError(
                f"segment {pos}: field 'name' must be a nonempty string"
            )
        pmf = raw.get("pmf")
        if not isinstance(pmf, list) or not all(
            isinstance(p, (int, float)) and not isinstance(p, bool) for p in pmf
        ):
            raise SpecFormatError(
                f"segment {name!r}: field 'pmf' must be an array of numbers"
            )
        try:
            segments.append(Segment(name, ComponentDistribution(tuple(pmf))))
        except (OverflowError, InvalidPMFError) as err:
            raise SpecFormatError(f"segment {name!r}: {err}") from None
    return PipelineSpec(doc["max_state"], tuple(segments))


def pipeline_cdf(spec: PipelineSpec, level: int) -> float:
    """Probability the pipeline performs at or below ``level``: one minus
    the product of the segment survival values (series closed form)."""
    return closed_form_cdf("series", spec.distributions, level)


def pipeline_state1_cdf(spec: PipelineSpec) -> float:
    """State-1 closed form, valid only when no segment carries mass at
    complete failure: :func:`pipeline_cdf` at 1, i.e. 1 - prod(1 - p_i1)."""
    for seg in spec.segments:
        if seg.distribution.pmf[0] != 0.0:
            raise PreconditionViolatedError(
                f"segment {seg.name!r} has nonzero complete-failure mass "
                f"{seg.distribution.pmf[0]!r}"
            )
    return pipeline_cdf(spec, 1)


def set_state1(
    spec: PipelineSpec, segment_number: int, probability: float
) -> PipelineSpec:
    """New spec with one segment's state-1 mass replaced (1-based index).

    Only the state-1 entry is overridden; the residual mass lands on the
    top state so the PMF stays normalized. Infeasible overrides (residual
    below zero) are rejected.
    """
    if spec.max_state < 2:
        raise PreconditionViolatedError(
            "overriding state 1 needs max_state >= 2 so the residual mass "
            "can land above it"
        )
    if not 1 <= segment_number <= spec.n_segments:
        raise PreconditionViolatedError(
            f"segment number {segment_number} outside 1..{spec.n_segments}"
        )
    seg = spec.segments[segment_number - 1]
    pmf = list(seg.distribution.pmf)
    pmf[1] = float(probability)
    residual = 1.0 - math.fsum(pmf[:-1])
    if residual < -PMF_TOLERANCE:
        raise InvalidPMFError(
            f"segment {seg.name!r}: overriding state 1 to {probability!r} "
            f"leaves residual mass {residual!r}"
        )
    pmf[-1] = max(residual, 0.0)
    segments = list(spec.segments)
    segments[segment_number - 1] = Segment(
        seg.name, ComponentDistribution(tuple(pmf))
    )
    return PipelineSpec(spec.max_state, tuple(segments))


def _state1(p_1_1, p_2_1, held_product):
    """The state-1 formula ``1 - (1 - p_1_1) * (1 - p_2_1) * held_product``,
    on floats or on arrays alike, so a sweep row and the scalar form agree
    bit for bit. Its association order is not pipeline_cdf's."""
    return 1.0 - (1.0 - p_1_1) * (1.0 - p_2_1) * held_product


def state1_performance(
    p_1_1: float, p_2_1: float, held: Sequence[float]
) -> float:
    """State-1 closed form from the two swept values and the held state-1
    probabilities of the remaining segments."""
    return _state1(p_1_1, p_2_1, math.prod(1.0 - h for h in held))


def sweep_state1(spec: PipelineSpec, trials: int, seed: int) -> SweepResult:
    """Sweep the first two segments' state-1 probabilities.

    Each trial draws both values uniformly from the open unit interval on
    the seeded PCG64 stream (two draws per trial, trial-major order; exact
    zeros are clamped to the smallest positive normal) and evaluates the
    state-1 closed form with the remaining segments held at their spec
    values. Identical (spec, trials, seed) reproduce identical rows.

    Only the input is checked here, in O(1): the result is the sweep's
    recipe, and its rows are drawn a block at a time when they are read.
    """
    if trials < 1:
        raise PreconditionViolatedError("trials must be at least 1")
    _check_seed(seed)
    if spec.n_segments < 2:
        raise PreconditionViolatedError(
            "the sweep needs at least two segments to vary"
        )
    for seg in spec.segments[2:]:
        if seg.distribution.pmf[0] != 0.0:
            raise PreconditionViolatedError(
                f"segment {seg.name!r} has nonzero complete-failure mass; "
                "the state-1 closed form does not apply"
            )
    held_product = math.prod(
        1.0 - seg.distribution.pmf[1] for seg in spec.segments[2:]
    )
    return SweepResult(seed, trials, held_product)


# The row renderer (see _render_rows) builds text as uint32 words of four
# bytes; a NUL byte marks a place that prints nothing.
@cache
def _digit_words() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The four ASCII digits of 0..9999 as one word each: all of them,
    with the leading zeros NUL, and with the trailing zeros NUL (0 is all
    NUL in the last two). Built on first use, so importing costs nothing."""
    value = np.arange(10_000, dtype=np.int32)[:, None]
    place = np.array([1000, 100, 10, 1], np.int32)
    digits = (value // place % 10 + 48).astype(np.uint8)
    leading = np.where(value < place, np.uint8(0), digits)
    trailing = np.where(value % (10 * place) == 0, np.uint8(0), digits)
    return tuple(t.view(np.uint32).ravel() for t in (digits, leading, trailing))


def _words(text: bytes) -> np.ndarray:
    """``text`` as words, padded with NULs to a whole word."""
    text += b"\0" * (-len(text) % 4)
    return np.frombuffer(text, np.uint8).view(np.uint32)


def _veltkamp_split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split doubles into two halves of at most 26 significant bits whose
    sum is exact, so products of halves are exact (Veltkamp)."""
    scaled = v * 134217729.0  # 2**27 + 1
    high = scaled - (scaled - v)
    return high, v - high


#: 10**e for e = -4..-1. Each double lies just above the power it names,
#: so ``x >= 1e-k`` holds for a double x exactly when x >= 10**-k.
_DECADES = np.array([1e-4, 1e-3, 1e-2, 1e-1])
#: 10**(16 - e) for the same e: exact doubles (10**p is one for p <= 22).
_SCALES = np.array([1e20, 1e19, 1e18, 1e17])
_SCALES_HIGH, _SCALES_LOW = _veltkamp_split(_SCALES)
#: Indexed by 10 * (e + 4) + d: the -e - 1 zeros after the point, then d.
_ZEROS_AND_DIGIT = _words(
    b"".join(
        b"\0" * (e + 4) + b"0" * (-e - 1) + b"%d" % d
        for e in range(-4, 0)
        for d in range(10)
    )
)
_CONVERSION = re.compile(r"(%d|%r|%\.17g)")


def _base_10000(values: np.ndarray, groups: int) -> list[np.ndarray]:
    """``groups`` base-10000 digits of non-negative int64 ``values``,
    most significant first (the first one takes what is left)."""
    out = []
    for _ in range(groups - 1):
        quotient = values // 10_000
        out.append(values - quotient * 10_000)
        values = quotient
    out.append(values)
    return out[::-1]


@cache
def _row_layout(
    template: str, groups: int
) -> tuple[np.ndarray, int, tuple[int, ...], int, bool]:
    """The words of one row of ``template``, whose conversions are one
    ``%d`` and floats that are all ``%.17g`` or all ``%r``.

    Each literal is padded to whole words; a float's literal ends in
    ``0.`` and is followed by five words of digits (the zeros after the
    point with the leading digit, then 16 digits), the ``%d`` by
    ``groups`` words. Returns the row with those digit words NUL, the
    first word of the ``%d`` and of each float, the place of the ``%d``
    among the conversions and whether the floats print shortest digits.
    """
    literals = _CONVERSION.split(template)
    conversions = literals[1::2]
    words, trial_word, float_words = [], 0, []
    for literal, conversion in zip(literals[::2], conversions):
        if conversion == "%d":
            words.append(_words(literal.encode()))
            trial_word = sum(map(len, words))
            words.append(np.zeros(groups, np.uint32))
        else:
            words.append(_words(literal.encode() + b"0."))
            float_words.append(sum(map(len, words)))
            words.append(np.zeros(5, np.uint32))
    words.append(_words(literals[-1].encode()))
    return (
        np.concatenate(words),
        trial_word,
        tuple(float_words),
        conversions.index("%d"),
        "%r" in conversions,
    )


def _fixed_digits(
    values: np.ndarray, shortest: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The decade ``e`` of each float and its digits as a 17-digit
    integer, and the mask of the floats printed from them.

    Those are the floats in ``[1e-4, 1)``. There ``%.17g`` prints ``x`` as
    ``0.``, then ``-e - 1`` zeros, then the correctly rounded 17-digit
    integer ``D = round(x * 10**(16 - e))`` without its trailing zeros,
    where ``10**e <= x < 10**(e + 1)``. The product is formed exactly as
    ``high + error`` (Dekker's two-product). ``high`` is at least
    ``10**16 > 2**53``, so it is an even integer, and ``high + rint(error)``
    is ``D`` rounded half to even, as ``%`` rounds. ``D`` stays below
    ``10**17``: the largest double below ``10**(e + 1)`` is more than ten
    units of the last digit away from it.

    ``%r`` prints the same layout with the shortest digits that read back
    as ``x``, the closest such if several (see :func:`_shortest`).
    """
    printed = (values >= 1e-4) & (values < 1.0)
    # floats printed by % get a stand-in, so no NaN reaches the int casts
    x = np.where(printed, values, 0.5)
    decade = np.searchsorted(_DECADES, x, side="right") - 1
    high = x * _SCALES[decade]
    x_high, x_low = _veltkamp_split(x)
    s_high, s_low = _SCALES_HIGH[decade], _SCALES_LOW[decade]
    error = (
        (x_high * s_high - high) + x_high * s_low + x_low * s_high
    ) + x_low * s_low
    rounded = np.rint(error)
    digits = high.astype(np.int64) + rounded.astype(np.int64)
    if shortest:
        digits = _shortest(x, decade, digits, error - rounded)
    return decade, digits, printed


def _shortest(
    x: np.ndarray, decade: np.ndarray, digits: np.ndarray, residual: np.ndarray
) -> np.ndarray:
    """The shortest digits of ``x`` that read back as ``x``, the closest
    such if several (ties to even, as ``repr`` rounds), as a 17-digit
    integer; from the correctly rounded 17 ``digits`` and the exact
    ``residual`` ``x * 10**(16 - e) - digits``.

    The correctly rounded k-digit decimal is the closest one, so if any
    k-digit decimal reads back as ``x``, it does: exactly when it lies
    within half the gap between ``x`` and its neighbours. Seventeen digits
    always do (the half gap is at least 0.55 units of the 17th digit), so
    16 and then 15 digits are tried, and the shortest that reads back wins;
    fewer than 15 show as trailing zeros of the 15-digit integer.

    Every quantity compared is exact, in units of the 17th digit: the
    residual is a multiple of 2**-46 below 1/2, the offsets below 128, and
    the half gap a power of two times ``10**(16 - e)``. No decimal of 17
    digits lies at exactly half the gap, and at the powers of two in
    ``[1e-4, 1)``, whose gap below is half the gap above, 15 digits are
    exact.
    """
    half_gap = np.spacing(x) * _SCALES[decade] * 0.5
    chosen = digits
    for unit in (10, 100):
        multiple = digits // unit
        offset = (digits - multiple * unit) + residual
        # the nearer multiple of unit, a tie to the even one
        up = (offset > unit / 2) | ((offset == unit / 2) & (multiple % 2 == 1))
        distance = np.abs(offset - unit * up)
        chosen = np.where(distance < half_gap, (multiple + up) * unit, chosen)
    return chosen


def _render_rows(template: str, first_trial: int, values: np.ndarray) -> str:
    """``template % row`` for each row of the ``(count, floats)`` float64
    array ``values``, with the trial number ``first_trial + i`` of row ``i``
    at the template's ``%d``, joined byte for byte.

    Rows whose floats all print in fixed notation (see
    :func:`_fixed_digits`) are rendered by array arithmetic; every other
    row goes through the template itself.
    """
    count = len(values)
    groups = -(-len(str(first_trial + count - 1)) // 4)
    proto, trial_word, float_words, trial_arg, shortest = _row_layout(
        template, groups
    )
    all_digits, lstripped, rstripped = _digit_words()
    decade, digits, printed = _fixed_digits(values, shortest)

    # Deleting the NULs from the words of a row leaves the row as printed.
    row = np.empty((count, len(proto)), np.uint32)
    row[:] = proto
    trial = np.arange(first_trial, first_trial + count)
    shown = np.zeros(count, bool)
    for j, group in enumerate(_base_10000(trial, groups)):
        row[:, trial_word + j] = np.where(
            shown, all_digits[group], lstripped[group]
        )
        shown |= group > 0
    fields = np.empty((*values.shape, 5), np.uint32)
    leading, *rest = _base_10000(digits, 5)
    fields[..., 0] = _ZEROS_AND_DIGIT[10 * decade + leading]
    shown = np.zeros(digits.shape, bool)
    for j in range(3, -1, -1):
        fields[..., 1 + j] = np.where(
            shown, all_digits[rest[j]], rstripped[rest[j]]
        )
        shown |= rest[j] > 0
    for f, word in enumerate(float_words):
        row[:, word : word + 5] = fields[:, f]

    pieces = []
    done = 0
    for i in np.flatnonzero(~printed.all(axis=1)).tolist() + [count]:
        pieces.append(row[done:i].tobytes().translate(None, b"\0").decode())
        if i < count:
            args = values[i].tolist()
            args.insert(trial_arg, first_trial + i)
            pieces.append(template % tuple(args))
        done = i + 1
    return "".join(pieces)


def _sweep_row_blocks(
    result: SweepResult, template: str, order: Sequence[int]
) -> Iterator[str]:
    """A sweep's rows through ``template``, ``_ROW_BLOCK`` rows at a time,
    which bounds the bytes held at once. ``order`` gives the template's
    floats as columns: 0 is p_1_1, 1 is p_2_1, 2 is P_pipeline_1."""
    for first, draws, performance in result._blocks(0, result.trials):
        columns = (draws[:, 0], draws[:, 1], performance)
        values = np.column_stack([columns[c] for c in order])
        yield _render_rows(template, first + 1, values)


def _write_sweep_csv(result: SweepResult, handle: TextIO) -> None:
    """Write a sweep's CSV header and rows to a text stream."""
    handle.write(_SWEEP_HEADER)
    handle.writelines(_sweep_row_blocks(result, _SWEEP_ROW, (0, 1, 2)))


# one row of the sweep document after its separator, keys in sorted order;
# %r is the repr that json.dumps gives a finite float, and every sweep value
# is finite (draws are clamped to [tiny, 1), the held pmfs are validated)
_SWEEP_JSON_ROW = ', {"P_pipeline_1": %r, "p_1_1": %r, "p_2_1": %r, "trial": %d}'


def _write_sweep_json(result: SweepResult, handle: TextIO) -> None:
    """Write the sweep document and a newline, byte for byte
    ``json.dumps(doc, sort_keys=True)`` of its dict form, with the rows
    rendered a block at a time instead of a dict per row."""
    best = result.argmax_row()
    argmax = json.dumps(
        {
            "trial": best.trial,
            "p_1_1": best.p_1_1,
            "p_2_1": best.p_2_1,
            "P_pipeline_1": best.performance,
        },
        sort_keys=True,
    )
    handle.write(
        f'{{"argmax": {argmax}, '
        f'"corner_supremum": {result.corner_supremum!r}, "rows": ['
    )
    blocks = _sweep_row_blocks(result, _SWEEP_JSON_ROW, (2, 0, 1))
    handle.write(next(blocks)[2:])  # no separator before the first row
    handle.writelines(blocks)
    handle.write(
        f'], "seed": {result.seed:d}, "trials": {result.trials:d}}}\n'
    )


def export_results(
    result: Union[SweepResult, SystemDistribution],
    path: Union[str, Path],
) -> None:
    """Write a sweep or a system distribution as CSV, rows in order.

    Numbers carry 17 significant digits so a reload is bit-faithful.
    """
    if not isinstance(result, (SweepResult, SystemDistribution)):
        raise TypeError(f"cannot export {type(result).__name__}")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        if isinstance(result, SweepResult):
            _write_sweep_csv(result, handle)
        else:
            handle.write("level,pmf,cdf\n")
            for level, (p, c) in enumerate(zip(result.pmf, result.cdf)):
                handle.write("%d,%.17g,%.17g\n" % (level, p, c))
