"""Performance distributions of systems with independent components.

Component states are modeled by discrete PMFs over the shared level set.
Mutual independence of the components is an input assumption throughout;
it cannot be checked from the marginals and is simply trusted. The exact
enumerator sums the product weights of every state vector chunk by chunk,
in memory that does not grow with the space; the closed forms and bounds
are one bottom-up recursion on the component distribution functions; the
Monte-Carlo estimator is a seeded, bit-reproducible cross-check (PCG64
stream, draws consumed in trial-major order, blocks of draws sized by one
byte budget in reused buffers).
It never builds a state vector: since series, parallel and k-out-of-n
commute with thresholding, a system exceeds level j exactly when its
binary image is 1 on the events "component i exceeds j", and each such
event is one draw compared with one CDF value.
"""

from __future__ import annotations

__all__ = [
    "ComponentDistribution",
    "MonteCarloEstimate",
    "PmfDiagnostic",
    "SystemDistribution",
    "cdf_bounds",
    "closed_form_cdf",
    "closed_form_distribution",
    "component_cdf",
    "dominance_check",
    "exact_system_distribution",
    "monte_carlo_cdf",
    "validate_pmf",
]

import math
import operator
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional, Union

import numpy as np

from .core import _check_level, _check_max_state
from .enumeration import (
    ensure_enumerable,
    iter_level_slabs,
    iter_weight_chunks,
)
from .errors import (
    HypothesisViolatedError,
    InvalidPMFError,
    LengthMismatchError,
    PreconditionViolatedError,
)
from .structure import (
    Component,
    Kind,
    Parallel,
    Series,
    StructureExpr,
    _check_covers,
    _eval_grid,
    _indices,
    kind_evaluator,
)

#: Input PMFs must sum to one within this tolerance.
PMF_TOLERANCE = 1e-9

#: Exact routes that must agree (enumerator vs closed form) agree to this.
ORACLE_TOLERANCE = 1e-12

#: Bytes of draws one Monte-Carlo block holds, and the fewest trials it
#: holds, so a wide tree's per-block numpy overhead stays small.
_MC_BLOCK_BYTES = 1 << 20
_MC_BLOCK_MIN_TRIALS = 1 << 12


@dataclass(frozen=True)
class ComponentDistribution:
    """PMF of one component's random state over levels 0..max_state. Valid
    once built: an empty PMF, or one :func:`validate_pmf` refuses, raises."""

    pmf: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "pmf", tuple(float(p) for p in self.pmf))
        diagnostic = _diagnose(self.pmf)
        if diagnostic is not None:
            raise InvalidPMFError(diagnostic.message)

    @property
    def max_state(self) -> int:
        return len(self.pmf) - 1


@dataclass(frozen=True)
class PmfDiagnostic:
    # "non_finite" | "negative_mass" | "mass_above_one" | "normalization"
    kind: str
    message: str
    residual: Optional[float] = None


@dataclass(frozen=True)
class SystemDistribution:
    """System-level PMF and CDF over levels 0..max_state, valid once built:
    a nonempty PMF without negative mass summing to 1, and a CDF as long."""

    pmf: tuple[float, ...]
    cdf: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.pmf:
            raise InvalidPMFError("system pmf must have at least one entry")
        if any(p < 0.0 for p in self.pmf):
            raise InvalidPMFError("system pmf has negative mass")
        # the sum from_pmf accumulates; written so a NaN sum is refused too
        *_, total = accumulate(self.pmf)
        if not abs(total - 1.0) <= PMF_TOLERANCE:
            raise InvalidPMFError(
                f"system pmf sums to {total!r}, not 1 within {PMF_TOLERANCE}"
            )
        if len(self.cdf) != len(self.pmf):
            raise InvalidPMFError("system cdf and pmf differ in length")

    @classmethod
    def from_pmf(cls, pmf: Sequence[float]) -> "SystemDistribution":
        values = tuple(float(p) for p in pmf)
        return cls(values, tuple(accumulate(values)))

    @property
    def max_state(self) -> int:
        return len(self.pmf) - 1

    def cdf_at(self, level: int) -> float:
        """Probability that the system performs at or below ``level``."""
        return self.cdf[_check_level(level, self.max_state)]


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
    """None when the PMF is valid, otherwise the first violated clause: an
    entry not finite, then one below 0, then one above 1, else a ``fsum``
    over ``PMF_TOLERANCE`` from 1. An empty raw PMF raises; a
    :class:`ComponentDistribution` is valid once built, so it gives None."""
    if isinstance(dist, ComponentDistribution):
        return None
    return _diagnose(tuple(float(p) for p in dist))


def _diagnose(pmf: tuple[float, ...]) -> Optional[PmfDiagnostic]:
    """:func:`validate_pmf` of a raw PMF's floats: the one diagnosis."""
    if not pmf:
        raise InvalidPMFError("pmf must have at least one entry")
    for kind, fault, faulty in (
        ("non_finite", "is not finite", lambda p: not math.isfinite(p)),
        ("negative_mass", "is negative", lambda p: p < 0.0),
        ("mass_above_one", "exceeds 1", lambda p: p > 1.0),
    ):
        for i, p in enumerate(pmf):
            if faulty(p):
                return PmfDiagnostic(kind, f"entry {i} {fault} ({p!r})")
    residual = math.fsum(pmf) - 1.0
    if abs(residual) > PMF_TOLERANCE:
        return PmfDiagnostic(
            "normalization",
            f"mass sums to 1{residual:+.3g}, residual over {PMF_TOLERANCE}",
            residual,
        )
    return None


def _ensure_valid_family(
    dists: Sequence[DistributionLike],
) -> list[ComponentDistribution]:
    if not dists:
        raise LengthMismatchError("at least one component distribution needed")
    family = [as_distribution(d) for d in dists]
    widths = {d.max_state for d in family}
    if len(widths) != 1:
        raise LengthMismatchError(
            f"component distributions disagree on max_state: {sorted(widths)}"
        )
    _check_max_state(family[0].max_state, enumerated=False)
    return family


def _check_counts(count: int, what: str, seed: int) -> tuple[int, int]:
    """``count`` (of ``what``) and ``seed`` as ints, refused below 1 and 0."""
    count, seed = map(operator.index, (count, seed))
    if count < 1:
        raise PreconditionViolatedError(f"{what} must be at least 1")
    if seed < 0:
        raise PreconditionViolatedError(
            f"seed must be a non-negative integer, got {seed}"
        )
    return count, seed


def _uniform_blocks(
    seed: int, width: int, start: int, stop: int, block: int
) -> Iterator[tuple[int, np.ndarray]]:
    """``(first, draws)`` for trials ``start:stop`` of ``PCG64(seed)``,
    ``width`` doubles each, ``block`` trials at a time in one reused buffer."""
    bit_generator = np.random.PCG64(seed)
    bit_generator.advance(width * start)  # one 64-bit output per double
    rng = np.random.Generator(bit_generator)
    draws = np.empty((min(block, stop - start), width))
    for first in range(start, stop, block):
        yield first, rng.random(out=draws[: stop - first])


def _system_family(
    expr: StructureExpr, dists: Sequence[DistributionLike]
) -> list[ComponentDistribution]:
    family = _ensure_valid_family(dists)
    _check_covers(expr, len(family))
    return family


def component_cdf(dist: DistributionLike, level: int) -> float:
    """Probability that the component state is at or below ``level``: the
    PMF's ``math.fsum`` to ``level``, at most 1, and 1 at the top level."""
    d = as_distribution(dist)
    return _cdf(d, _check_level(level, d.max_state))


def _cdf(d: ComponentDistribution, level: int) -> float:
    """:func:`component_cdf` of a validated ``d`` at a checked ``level``."""
    if level == d.max_state:
        return 1.0
    return min(math.fsum(d.pmf[: level + 1]), 1.0)


def _cdfs_at(dists: Sequence[DistributionLike], level: int) -> list[float]:
    """Each component's CDF at ``level``, once the family is validated."""
    family = _ensure_valid_family(dists)
    level = _check_level(level, family[0].max_state)
    return [_cdf(d, level) for d in family]


def exact_system_distribution(
    expr: StructureExpr,
    dists: Sequence[DistributionLike],
    limit: int | None = None,
) -> SystemDistribution:
    """Exact system distribution by full enumeration of the state space.

    Every vector's probability is the product of its component PMF entries
    (independence), multiplied left to right. Weights come in chunks of
    ``2**16`` vectors (:func:`iter_weight_chunks`) and levels in slabs
    (:func:`iter_level_slabs`); each chunk's levels are copied from the
    slab or slabs it spans into one uint8 chunk buffer, owned by the call.
    Each chunk is summed per level with ``np.bincount``, in one fixed
    lexicographic order, so the accumulated sums are deterministic. No
    full-space array is allocated, and no chunk allocates a weight or level
    array of its own: memory stays at a slab of levels and the buffers of a
    chunk (about 1.6 MB at 5^10 vectors).
    """
    family = _system_family(expr, dists)
    n_components, max_state = len(family), family[0].max_state
    ensure_enumerable(n_components, max_state, limit)
    pmf_matrix = np.asarray([d.pmf for d in family])  # n x (max_state+1)
    acc = np.zeros(max_state + 1)
    slabs = iter_level_slabs(expr, n_components, max_state)
    slab_lo, slab = 0, np.empty(0, dtype=np.uint8)
    for lo, weights in iter_weight_chunks(pmf_matrix):
        if lo == 0:  # the first chunk is the largest
            levels = np.empty(weights.size, dtype=np.uint8)
        at, hi = lo, lo + weights.size
        while at < hi:  # a chunk edge may fall inside a slab, or past it
            if at == slab_lo + slab.size:
                slab_lo, slab = next(slabs)
            end = min(hi, slab_lo + slab.size)
            levels[at - lo : end - lo] = slab[at - slab_lo : end - slab_lo]
            at = end
        acc += np.bincount(
            levels[: weights.size], weights=weights, minlength=max_state + 1
        )
    return SystemDistribution.from_pmf(acc.tolist())


# A node's CDF at level j from its independent children's CDFs at j. A koon
# node is at or below j when fewer than k of its children exceed j.
def _series_cdf(values: Iterable[float]) -> float:
    return 1.0 - math.prod(1.0 - v for v in values)


def _parallel_cdf(values: Iterable[float]) -> float:
    return math.prod(values)


def _koon_cdf(k: int, values: Sequence[float]) -> float:
    # below[m]: Poisson-binomial probability that m children so far exceed j
    below = [1.0] + [0.0] * (k - 1)
    for v in values:
        below = [b * v + a * (1.0 - v) for a, b in zip([0.0, *below], below)]
    return min(math.fsum(below), 1.0)


def _tree_cdf(expr: StructureExpr, values: Sequence[float]) -> float:
    if isinstance(expr, Component):
        return values[expr.index - 1]
    children = [_tree_cdf(c, values) for c in expr.children]
    if isinstance(expr, Series):
        return _series_cdf(children)
    if isinstance(expr, Parallel):
        return _parallel_cdf(children)
    return _koon_cdf(expr.k, children)


def closed_form_distribution(
    expr: StructureExpr, dists: Sequence[DistributionLike]
) -> SystemDistribution:
    """Exact system distribution of a read-once tree, bottom up from the
    component CDFs (the universal generating function method), with CDFs in
    [0, 1] ending in 1; agrees with the enumerator to ``ORACLE_TOLERANCE``."""
    family = _system_family(expr, dists)
    indices = _indices(expr)
    if len(set(indices)) < len(indices):
        raise PreconditionViolatedError(
            "the closed form needs a read-once tree, in which no component "
            "is referenced more than once"
        )
    cdf = [
        _tree_cdf(expr, [_cdf(d, level) for d in family])
        for level in range(family[0].max_state + 1)
    ]
    # rounding may let the CDF dip by an ulp; masses are clamped at zero
    pmf = cdf[:1] + [max(hi - lo, 0.0) for lo, hi in zip(cdf, cdf[1:])]
    return SystemDistribution(tuple(pmf), tuple(cdf))


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
    values = _cdfs_at(dists, level)
    return _series_cdf(values) if kind == "series" else _parallel_cdf(values)


def cdf_bounds(
    kind: Kind, dists: Sequence[DistributionLike], level: int
) -> tuple[float, float]:
    """(lower, upper) bracket for the exact system CDF at one level.

    The lower bound is the product of the component CDFs (the parallel
    form), the upper bound one minus the product of their complements (the
    series form). The bracket holds for any coherent structure, because
    its level is sandwiched between the series and parallel envelopes, so
    it does not depend on ``kind``: ``kind`` is validated, and both values
    return the same pair. For series the upper bound is tight; for
    parallel the lower one is. Both lie in [0, 1] and are 1 at the top level.
    """
    kind_evaluator(kind)
    values = _cdfs_at(dists, level)
    return _parallel_cdf(values), _series_cdf(values)


def _dominance(
    expr: StructureExpr,
    dists_primed: Sequence[DistributionLike],
    dists: Sequence[DistributionLike],
    limit: int | None = None,
) -> tuple[bool, SystemDistribution, SystemDistribution]:
    """:func:`dominance_check` verdict with the two exact system
    distributions it compared (unprimed first)."""
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
            if _cdf(d, level) < _cdf(dp, level) - ORACLE_TOLERANCE:
                raise HypothesisViolatedError(
                    f"component {i + 1} violates CDF dominance at level "
                    f"{level}"
                )
    system = exact_system_distribution(expr, family, limit)
    system_primed = exact_system_distribution(expr, primed, limit)
    holds = all(
        pj >= ppj - ORACLE_TOLERANCE
        for pj, ppj in zip(system.cdf, system_primed.cdf)
    )
    return holds, system, system_primed


def dominance_check(
    expr: StructureExpr,
    dists_primed: Sequence[DistributionLike],
    dists: Sequence[DistributionLike],
    limit: int | None = None,
) -> bool:
    """Theorem check: componentwise CDF dominance carries to the system.

    Requires component_cdf(dists[i], j) >= component_cdf(primed[i], j) at
    every i, j (raises :class:`HypothesisViolatedError` otherwise), then
    compares the two exact system CDFs at every level. Both comparisons
    allow ``ORACLE_TOLERANCE`` of slack because at the top level both
    sides equal one exactly in real arithmetic and float summation may
    order them either way.
    """
    return _dominance(expr, dists_primed, dists, limit)[0]


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
    order, in blocks of ``_MC_BLOCK_BYTES`` of draws (never fewer than
    ``_MC_BLOCK_MIN_TRIALS`` trials), so memory does not grow with the
    sample count and hardly with the component count. Component i is above
    ``level`` exactly when its draw ``u`` is at least its ``component_cdf``
    at ``level``, the event on which the inverse transform exceeds ``level``;
    so every verdict, and the estimate, equal inverse-transform sampling's,
    whatever the block size. The tree is evaluated on these 0/1 events
    (its binary image), one byte per draw instead of a state vector.
    """
    samples, seed = _check_counts(samples, "samples", seed)
    family = _system_family(expr, dists)
    n = len(family)
    level = _check_level(level, family[0].max_state)
    # X_i > level exactly when u >= F_i(level); no draw reaches F_i(top) = 1
    above = np.asarray([_cdf(d, level) for d in family])
    budget = max(_MC_BLOCK_BYTES // (8 * n), 1)  # trials in the byte budget
    block = max(budget, _MC_BLOCK_MIN_TRIALS)
    # one 0/1 row per component, 1 where it is above the level, reused
    rows = np.empty((n, min(block, samples)), np.bool_)
    hits = 0
    for _, uniforms in _uniform_blocks(seed, n, 0, samples, block):
        count = len(uniforms)
        # compared a budget of draws at a time: read across a wider block,
        # the transposed draws fall out of the cache (3x slower at n = 1000)
        for first in range(0, count, budget):
            stop = min(first + budget, count)
            np.greater_equal(
                uniforms[first:stop].T, above[:, None], out=rows[:, first:stop]
            )
        # the tree's binary image on the events: 1 where the system exceeds
        exceeds = _eval_grid(expr, list(rows[:, :count].view(np.uint8)))
        hits += count - int(np.count_nonzero(exceeds))
    estimate = hits / samples
    std_error = math.sqrt(estimate * (1.0 - estimate) / samples)
    return MonteCarloEstimate(estimate, samples, seed, std_error)
