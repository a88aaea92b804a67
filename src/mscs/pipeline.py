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
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import TextIO, Union

import numpy as np

from .errors import (
    InvalidPMFError,
    PreconditionViolatedError,
    SpecFormatError,
)
from .probability import (
    ComponentDistribution,
    SystemDistribution,
    _check_seed,
    closed_form_cdf,
    validate_pmf,
)

_SCENARIO_FILES = {
    "default": "case_study.json",
    "above_average": "case_study_above_average.json",
    "below_average": "case_study_below_average.json",
}

_RESIDUAL_TOLERANCE = 1e-9

_SWEEP_HEADER = "trial,p_1_1,p_2_1,P_pipeline_1\n"
_SWEEP_ROW = "%d,%.17g,%.17g,%.17g\n"
#: Sweep rows formatted per write, which bounds the text held at once.
_ROW_BLOCK = 1 << 16


@dataclass(frozen=True)
class Segment:
    name: str
    distribution: ComponentDistribution


@dataclass(frozen=True)
class PipelineSpec:
    max_state: int
    segments: tuple[Segment, ...]

    def __post_init__(self) -> None:
        if self.max_state < 1:
            raise SpecFormatError("max_state must be at least 1")
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


@dataclass(frozen=True, eq=False)
class SweepResult:
    """A state-1 sweep held as columns: row ``t`` (0-based) is trial
    ``t + 1`` with draws ``draws[t]`` and value ``performance[t]``.

    Equality compares the seed and every column bitwise.
    """

    draws: np.ndarray  # (trials, 2) float64: p_1_1, p_2_1
    performance: np.ndarray  # (trials,) float64
    seed: int

    @property
    def trials(self) -> int:
        return len(self.performance)

    def columns(
        self, start: int = 0, stop: int | None = None
    ) -> tuple[range, list[float], list[float], list[float]]:
        """Trial numbers and the three float columns of rows
        ``start:stop`` as Python values."""
        stop = self.trials if stop is None else min(stop, self.trials)
        draws = self.draws[start:stop]
        return (
            range(start + 1, stop + 1),
            draws[:, 0].tolist(),
            draws[:, 1].tolist(),
            self.performance[start:stop].tolist(),
        )

    @cached_property
    def rows(self) -> tuple[SweepRow, ...]:
        return tuple(map(SweepRow, *self.columns()))

    def argmax_row(self) -> SweepRow:
        """The first row of largest performance."""
        t = int(np.argmax(self.performance))
        return SweepRow(*(column[0] for column in self.columns(t, t + 1)))

    @property
    def corner_supremum(self) -> float:
        """Least upper bound of the swept formula over the open unit
        square: the limit at both draws approaching 1, which is exactly 1.
        The formula is strictly increasing in both draws, so no sample
        attains it."""
        return 1.0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SweepResult):
            return NotImplemented
        return self.seed == other.seed and all(
            mine.shape == theirs.shape and mine.tobytes() == theirs.tobytes()
            for mine, theirs in (
                (self.draws, other.draws),
                (self.performance, other.performance),
            )
        )


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
    """
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise SpecFormatError(
            f"line {err.lineno}, column {err.colno}: {err.msg}"
        ) from None
    if not isinstance(doc, dict):
        raise SpecFormatError("top level must be an object")
    if not isinstance(doc.get("max_state"), int) or isinstance(
        doc.get("max_state"), bool
    ):
        raise SpecFormatError("field 'max_state' must be an integer")
    raw_segments = doc.get("segments")
    if not isinstance(raw_segments, list) or not raw_segments:
        raise SpecFormatError("field 'segments' must be a nonempty array")
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
        if len(pmf) != doc["max_state"] + 1:
            raise SpecFormatError(
                f"segment {name!r}: pmf has {len(pmf)} entries, expected "
                f"{doc['max_state'] + 1}"
            )
        segments.append(Segment(name, ComponentDistribution(tuple(pmf))))
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
    if residual < -_RESIDUAL_TOLERANCE:
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


def state1_performance(
    p_1_1: float, p_2_1: float, held: Sequence[float]
) -> float:
    """State-1 closed form from the two swept values and the held state-1
    probabilities of the remaining segments. Sweep rows reproduce this
    bitwise, so both keep this association order (not pipeline_cdf's)."""
    held_product = math.prod(1.0 - h for h in held)
    return 1.0 - (1.0 - p_1_1) * (1.0 - p_2_1) * held_product


def sweep_state1(spec: PipelineSpec, trials: int, seed: int) -> SweepResult:
    """Sweep the first two segments' state-1 probabilities.

    Each trial draws both values uniformly from the open unit interval on
    the seeded PCG64 stream (two draws per trial, trial-major order; exact
    zeros are clamped to the smallest positive normal) and evaluates the
    state-1 closed form with the remaining segments held at their spec
    values. Identical (spec, trials, seed) reproduce identical rows.
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
    held = [seg.distribution.pmf[1] for seg in spec.segments[2:]]
    held_product = math.prod(1.0 - h for h in held)
    rng = np.random.Generator(np.random.PCG64(seed))
    draws = rng.random((trials, 2))
    np.maximum(draws, np.finfo(np.float64).tiny, out=draws)
    performance = 1.0 - (1.0 - draws[:, 0]) * (1.0 - draws[:, 1]) * held_product
    return SweepResult(draws, performance, seed)


def _write_sweep_csv(result: SweepResult, handle: TextIO) -> None:
    """Write a sweep's CSV header and rows to a text stream, formatting
    each block of rows with one ``%`` call over the columns' values."""
    handle.write(_SWEEP_HEADER)
    for start in range(0, result.trials, _ROW_BLOCK):
        columns = result.columns(start, start + _ROW_BLOCK)
        count = len(columns[0])
        fields: list = [None] * (len(columns) * count)
        for k, column in enumerate(columns):
            fields[k :: len(columns)] = column
        handle.write(_SWEEP_ROW * count % tuple(fields))


def export_results(
    result: Union[SweepResult, SystemDistribution],
    path: Union[str, Path],
    format: str = "csv",
) -> None:
    """Write a sweep or a system distribution as CSV, rows in order.

    Numbers carry 17 significant digits so a reload is bit-faithful.
    """
    if format != "csv":
        raise ValueError(f"unsupported format {format!r}")
    if not isinstance(result, (SweepResult, SystemDistribution)):
        raise TypeError(f"cannot export {type(result).__name__}")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        if isinstance(result, SweepResult):
            _write_sweep_csv(result, handle)
        else:
            handle.write("level,pmf,cdf\n")
            for level, (p, c) in enumerate(zip(result.pmf, result.cdf)):
                handle.write("%d,%.17g,%.17g\n" % (level, p, c))
