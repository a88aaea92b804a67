"""Performance distributions of systems with independent components.

Component states are modeled by discrete PMFs over the shared level set.
Mutual independence of the components is an input assumption throughout;
it cannot be checked from the marginals and is simply trusted. The exact
enumerator sums the product weights of every state vector; the closed
forms and bounds are cheap products over the component distribution
functions; the Monte-Carlo estimator is a seeded, bit-reproducible
cross-check (PCG64 stream, inverse-CDF sampling, draws consumed in
trial-major order).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional, Union

import numpy as np

from .enumeration import iter_weight_chunks, level_table
from .errors import (
    ArityMismatchError,
    HypothesisViolatedError,
    InvalidPMFError,
    LengthMismatchError,
    LevelOutOfRangeError,
    PreconditionViolatedError,
)
from .structure import (
    Kind,
    StructureExpr,
    arity,
    eval_expr_batch,
    kind_evaluator,
)

#: Input PMFs must sum to one within this tolerance.
PMF_TOLERANCE = 1e-9

#: Exact routes that must agree (enumerator vs closed form) agree to this.
ORACLE_TOLERANCE = 1e-12


@dataclass(frozen=True)
class ComponentDistribution:
    """PMF of one component's random state over levels 0..max_state.

    Construction only shapes the data; call :func:`validate_pmf` for the
    validity verdict (operations that require a valid PMF do so
    internally).
    """

    pmf: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "pmf", tuple(float(p) for p in self.pmf))
        if not self.pmf:
            raise InvalidPMFError("pmf must have at least one entry")

    @property
    def max_state(self) -> int:
        return len(self.pmf) - 1


@dataclass(frozen=True)
class PmfDiagnostic:
    kind: str  # "negative_mass" | "mass_above_one" | "normalization"
    message: str
    residual: Optional[float] = None


@dataclass(frozen=True)
class SystemDistribution:
    """System-level PMF and its accumulated CDF over levels 0..max_state."""

    pmf: tuple[float, ...]
    cdf: tuple[float, ...]

    @classmethod
    def from_pmf(cls, pmf: Sequence[float]) -> "SystemDistribution":
        values = tuple(float(p) for p in pmf)
        if not values:
            raise InvalidPMFError("system pmf must have at least one entry")
        if any(p < 0.0 for p in values):
            raise InvalidPMFError("system pmf has negative mass")
        cdf = tuple(accumulate(values))
        if abs(cdf[-1] - 1.0) > PMF_TOLERANCE:
            raise InvalidPMFError(
                f"system pmf sums to {cdf[-1]!r}, not 1 within {PMF_TOLERANCE}"
            )
        return cls(values, cdf)

    @property
    def max_state(self) -> int:
        return len(self.pmf) - 1


@dataclass(frozen=True)
class MonteCarloEstimate:
    estimate: float
    samples: int
    seed: int
    std_error: float


DistributionLike = Union[ComponentDistribution, Sequence[float]]


def as_distribution(dist: DistributionLike) -> ComponentDistribution:
    if isinstance(dist, ComponentDistribution):
        return dist
    return ComponentDistribution(tuple(dist))


def validate_pmf(dist: DistributionLike) -> Optional[PmfDiagnostic]:
    """None when the PMF is valid, otherwise the first violated clause."""
    d = as_distribution(dist)
    for i, p in enumerate(d.pmf):
        if p < 0.0:
            return PmfDiagnostic(
                "negative_mass", f"entry {i} is negative ({p!r})"
            )
    for i, p in enumerate(d.pmf):
        if p > 1.0:
            return PmfDiagnostic(
                "mass_above_one", f"entry {i} exceeds 1 ({p!r})"
            )
    residual = math.fsum(d.pmf) - 1.0
    if abs(residual) > PMF_TOLERANCE:
        return PmfDiagnostic(
            "normalization",
            f"mass sums to 1{residual:+.3g}, residual over {PMF_TOLERANCE}",
            residual,
        )
    return None


def _ensure_valid(dist: DistributionLike) -> ComponentDistribution:
    d = as_distribution(dist)
    diagnostic = validate_pmf(d)
    if diagnostic is not None:
        raise InvalidPMFError(diagnostic.message)
    return d


def _ensure_valid_family(
    dists: Sequence[DistributionLike],
) -> list[ComponentDistribution]:
    if not dists:
        raise LengthMismatchError("at least one component distribution needed")
    family = [_ensure_valid(d) for d in dists]
    widths = {d.max_state for d in family}
    if len(widths) != 1:
        raise LengthMismatchError(
            f"component distributions disagree on max_state: {sorted(widths)}"
        )
    return family


def component_cdf(dist: DistributionLike, level: int) -> float:
    """Probability that the component state is at or below ``level``."""
    d = as_distribution(dist)
    if not 0 <= level <= d.max_state:
        raise LevelOutOfRangeError(f"level {level} outside 0..{d.max_state}")
    return math.fsum(d.pmf[: level + 1])


def exact_system_distribution(
    expr: StructureExpr,
    dists: Sequence[DistributionLike],
    limit: int | None = None,
) -> SystemDistribution:
    """Exact system distribution by full enumeration of the state space.

    Every vector's probability is the product of its component PMF entries
    (independence), multiplied left to right. Levels come from the
    broadcast level table; weights are summed per level with
    ``np.bincount`` chunk by chunk (``2**16`` vectors each) in one fixed
    lexicographic order, so the accumulated sums are deterministic. No
    full-space float array is allocated.
    """
    if not isinstance(expr, StructureExpr):
        raise TypeError("expr must be a StructureExpr")
    family = _ensure_valid_family(dists)
    n = len(family)
    if arity(expr) > n:
        raise ArityMismatchError(
            f"{n} distributions do not cover component indices up to "
            f"{arity(expr)}"
        )
    max_state = family[0].max_state
    levels = level_table(expr, n, max_state, limit)
    pmf_matrix = np.asarray([d.pmf for d in family])  # n x (max_state+1)
    acc = np.zeros(max_state + 1)
    for lo, weights in iter_weight_chunks(pmf_matrix):
        chunk = levels[lo : lo + len(weights)]
        acc += np.bincount(chunk, weights=weights, minlength=max_state + 1)
    return SystemDistribution.from_pmf(acc.tolist())


def closed_form_cdf(
    kind: Kind, dists: Sequence[DistributionLike], level: int
) -> float:
    """Product-form CDF at one level.

    Series: one minus the product of the component survival values.
    Parallel: the product of the component CDF values. Under independence
    both are exact (the enumerator reproduces them to within
    ``ORACLE_TOLERANCE``).
    """
    kind_evaluator(kind)  # validates the kind
    family = _ensure_valid_family(dists)
    values = [component_cdf(d, level) for d in family]
    if kind == "series":
        return 1.0 - math.prod(1.0 - v for v in values)
    return math.prod(values)


def cdf_bounds(
    kind: Kind, dists: Sequence[DistributionLike], level: int
) -> tuple[float, float]:
    """(lower, upper) bracket for the exact system CDF at one level.

    The lower bound is the product of the component CDFs, the upper bound
    one minus the product of their complements; both brackets hold for any
    coherent structure because its level is sandwiched between the series
    and parallel envelopes. For series the upper bound is tight; for
    parallel the lower one is.
    """
    kind_evaluator(kind)
    family = _ensure_valid_family(dists)
    values = [component_cdf(d, level) for d in family]
    lower = math.prod(values)
    upper = 1.0 - math.prod(1.0 - v for v in values)
    return lower, upper


def dominance_check(
    expr: StructureExpr,
    dists_primed: Sequence[DistributionLike],
    dists: Sequence[DistributionLike],
    limit: int | None = None,
    tolerance: float = ORACLE_TOLERANCE,
) -> bool:
    """Theorem check: componentwise CDF dominance carries to the system.

    Requires component_cdf(dists[i], j) >= component_cdf(primed[i], j) at
    every i, j (raises :class:`HypothesisViolatedError` otherwise), then
    compares the two exact system CDFs at every level. The comparison
    allows ``tolerance`` of slack because at the top level both sides equal
    one exactly in real arithmetic and float summation may order them
    either way.
    """
    family = _ensure_valid_family(dists)
    primed = _ensure_valid_family(dists_primed)
    if len(family) != len(primed):
        raise LengthMismatchError(
            f"distribution families differ in size: {len(primed)} vs "
            f"{len(family)}"
        )
    if family[0].max_state != primed[0].max_state:
        raise LengthMismatchError("distribution families disagree on max_state")
    max_state = family[0].max_state
    for i, (d, dp) in enumerate(zip(family, primed)):
        for level in range(max_state + 1):
            if component_cdf(d, level) < component_cdf(dp, level) - tolerance:
                raise HypothesisViolatedError(
                    f"component {i + 1} violates CDF dominance at level "
                    f"{level}"
                )
    system = exact_system_distribution(expr, family, limit)
    system_primed = exact_system_distribution(expr, primed, limit)
    return all(
        pj >= ppj - tolerance
        for pj, ppj in zip(system.cdf, system_primed.cdf)
    )


def monte_carlo_cdf(
    expr: StructureExpr,
    dists: Sequence[DistributionLike],
    level: int,
    samples: int,
    seed: int,
) -> MonteCarloEstimate:
    """Estimate the system CDF at one level by seeded simulation.

    Fixed (seed, samples, expr, dists) reproduce the estimate bitwise:
    the PCG64 stream is consumed one uniform per component in trial-major
    order and each state is read off the component CDF by inverse
    transform.
    """
    if samples < 1:
        raise PreconditionViolatedError("samples must be at least 1")
    if not isinstance(expr, StructureExpr):
        raise TypeError("expr must be a StructureExpr")
    family = _ensure_valid_family(dists)
    n = len(family)
    if arity(expr) > n:
        raise ArityMismatchError(
            f"{n} distributions do not cover component indices up to "
            f"{arity(expr)}"
        )
    max_state = family[0].max_state
    if not 0 <= level <= max_state:
        raise LevelOutOfRangeError(f"level {level} outside 0..{max_state}")
    cums = np.asarray([list(accumulate(d.pmf)) for d in family])
    rng = np.random.Generator(np.random.PCG64(seed))
    hits = 0
    chunk = 1 << 16
    for lo in range(0, samples, chunk):
        count = min(chunk, samples - lo)
        uniforms = rng.random((count, n))
        states = np.empty((count, n), dtype=np.int64)
        for i in range(n):
            states[:, i] = np.searchsorted(cums[i], uniforms[:, i], side="right")
        np.minimum(states, max_state, out=states)
        levels = eval_expr_batch(expr, states)
        hits += int(np.count_nonzero(levels <= level))
    estimate = hits / samples
    std_error = math.sqrt(estimate * (1.0 - estimate) / samples)
    return MonteCarloEstimate(estimate, samples, seed, std_error)
