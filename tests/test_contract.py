"""The library's input contract for integers and levels.

Every public call that takes an integer (a count, an index, k, M) or a
level converts it where it enters: ``operator.index`` for integers,
``core._as_level`` for levels. So a foreign value either reads as its
Python-int twin, giving the same result with Python-int fields, or is
refused there with one ``MscsError`` or ``TypeError``. ``limit`` keeps its
own rule (``test_explicit_limit_must_be_non_negative_integer``).
"""

import dataclasses
import inspect
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mscs
from mscs import (
    Component,
    ComponentDistribution,
    KOutOfN,
    MscsError,
    PipelineSpec,
    Segment,
    StateSpace,
    SweepResult,
    SystemDistribution,
    as_vector,
    cdf_bounds,
    check_boundary,
    check_monotonicity,
    check_relevance,
    closed_form_cdf,
    coherence_report,
    component,
    component_cdf,
    composition_comparison,
    constant_vector,
    enumerate_ucv,
    eval_expr,
    eval_expr_batch,
    eval_k_out_of_n,
    eval_parallel,
    eval_series,
    extreme_levels,
    is_connection_vector,
    is_upper_critical,
    join,
    k_out_of_n,
    leq,
    level_lower_bound_check,
    meet,
    monte_carlo_cdf,
    pipeline_cdf,
    redundancy_comparison,
    series,
    set_state1,
    strictly_below,
    structure_bounds,
    sweep_state1,
    update_at,
)

C1, C2, C3 = map(component, (1, 2, 3))
SERIES = series(C1, C2)
DISTS = [(0.2, 0.3, 0.5), (0.1, 0.6, 0.3)]
SPEC = PipelineSpec(
    2, tuple(Segment(n, ComponentDistribution(d)) for n, d in zip("ab", DISTS))
)

# one argument of one public call as a function of the value put there; 2,
# 1 and 0 are valid in every slot, so a twin reaches a result wherever the
# call has one
SLOTS = {
    "StateSpace[max_state]": lambda v: (StateSpace(v), StateSpace(v).size(2)),
    "StateSpace.size[n]": lambda v: StateSpace(2).size(v),
    "StateSpace.contains[vector]": lambda v: StateSpace(2).contains((v, 1)),
    "as_vector": lambda v: as_vector((v, 1)),
    "constant_vector[n]": lambda v: constant_vector(v, 1),
    "constant_vector[level]": lambda v: constant_vector(3, v),
    "extreme_levels": lambda v: extreme_levels((v, 2, 1)),
    "meet": lambda v: meet((v, 1), (2, 2)),
    "join": lambda v: join((v, 1), (1, 2)),
    "leq": lambda v: leq((v, 1), (2, 2)),
    "strictly_below": lambda v: strictly_below((v, 1), (2, 2)),
    "update_at[vector]": lambda v: update_at((v, 1, 2), 1, 0),
    "update_at[index]": lambda v: update_at((0, 1, 2), v, 1),
    "update_at[level]": lambda v: update_at((0, 1, 2), 1, v),
    "check_boundary[n]": lambda v: check_boundary(SERIES, v, 2),
    "check_boundary[max_state]": lambda v: check_boundary(SERIES, 2, v),
    "check_monotonicity[n]": lambda v: check_monotonicity(SERIES, v, 2),
    "check_monotonicity[max_state]": lambda v: check_monotonicity(SERIES, 2, v),
    "check_relevance[n]": lambda v: check_relevance(SERIES, v, 2),
    "check_relevance[max_state]": lambda v: check_relevance(SERIES, 2, v),
    "coherence_report[n]": lambda v: coherence_report(SERIES, v, 2),
    "coherence_report[max_state]": lambda v: coherence_report(SERIES, 2, v),
    "enumerate_ucv[n]": lambda v: enumerate_ucv(SERIES, v, 2, 1),
    "enumerate_ucv[max_state]": lambda v: enumerate_ucv(SERIES, 2, v, 1),
    "enumerate_ucv[level]": lambda v: enumerate_ucv(SERIES, 2, 2, v),
    "is_connection_vector[vector]": lambda v: is_connection_vector(
        SERIES, (v, 2), 2
    ),
    "is_connection_vector[level]": lambda v: is_connection_vector(
        SERIES, (2, 2), v
    ),
    "is_upper_critical[vector]": lambda v: is_upper_critical(
        SERIES, (v, 2), 2, 2
    ),
    "is_upper_critical[level]": lambda v: is_upper_critical(
        SERIES, (2, 2), v, 2
    ),
    "is_upper_critical[max_state]": lambda v: is_upper_critical(
        SERIES, (1, 1), 1, v
    ),
    "level_lower_bound_check[ucv]": lambda v: level_lower_bound_check(
        SERIES, (v, 2), 2, (2, 2), 2
    ),
    "level_lower_bound_check[level]": lambda v: level_lower_bound_check(
        SERIES, (2, 2), v, (2, 2), 2
    ),
    "level_lower_bound_check[x]": lambda v: level_lower_bound_check(
        SERIES, (2, 2), 2, (v, 2), 2
    ),
    "level_lower_bound_check[max_state]": lambda v: level_lower_bound_check(
        SERIES, (1, 1), 1, (2, 2), v
    ),
    "structure_bounds": lambda v: structure_bounds(SERIES, (v, 2)),
    "redundancy_comparison": lambda v: redundancy_comparison(
        "series", (v, 1), (1, 2)
    ),
    "composition_comparison": lambda v: composition_comparison(
        "parallel", (v, 1), (1, 2)
    ),
    "PipelineSpec[max_state]": lambda v: PipelineSpec(v, SPEC.segments),
    "pipeline_cdf[level]": lambda v: pipeline_cdf(SPEC, v),
    "set_state1[segment_number]": lambda v: set_state1(SPEC, v, 0.1),
    "sweep_state1[trials]": lambda v: sweep_state1(SPEC, v, 7),
    "sweep_state1[seed]": lambda v: sweep_state1(SPEC, 10, v),
    "SweepResult[seed]": lambda v: (
        SweepResult(v, 3, 0.5), SweepResult(v, 3, 0.5).columns()
    ),
    "SweepResult[trials]": lambda v: (
        SweepResult(7, v, 0.5), SweepResult(7, v, 0.5).columns(0, 3)
    ),
    "SweepResult.columns[start]": lambda v: SweepResult(7, 3, 0.5).columns(v),
    "SweepResult.columns[stop]": lambda v: SweepResult(7, 3, 0.5).columns(0, v),
    "SystemDistribution.cdf_at[level]": lambda v: SystemDistribution.from_pmf(
        DISTS[0]
    ).cdf_at(v),
    "cdf_bounds[level]": lambda v: cdf_bounds("parallel", DISTS, v),
    "closed_form_cdf[level]": lambda v: closed_form_cdf("series", DISTS, v),
    "component_cdf[level]": lambda v: component_cdf(DISTS[0], v),
    "monte_carlo_cdf[level]": lambda v: monte_carlo_cdf(SERIES, DISTS, v, 500, 7),
    "monte_carlo_cdf[samples]": lambda v: monte_carlo_cdf(SERIES, DISTS, 1, v, 7),
    "monte_carlo_cdf[seed]": lambda v: monte_carlo_cdf(SERIES, DISTS, 1, 500, v),
    "Component[index]": lambda v: Component(v),
    "component[index]": lambda v: component(v),
    "KOutOfN[k]": lambda v: KOutOfN(v, (C1, C2, C3)),
    "k_out_of_n[k]": lambda v: k_out_of_n(v, C1, C2, C3),
    "eval_expr[vector]": lambda v: eval_expr(SERIES, (v, 2)),
    "eval_expr_batch[matrix]": lambda v: eval_expr_batch(
        SERIES, np.array([[v, 1], [2, 2]])
    ),
    "eval_k_out_of_n[k]": lambda v: eval_k_out_of_n(v, (0, 1, 2)),
    "eval_k_out_of_n[vector]": lambda v: eval_k_out_of_n(1, (v, 1, 0)),
    "eval_parallel": lambda v: eval_parallel((v, 1)),
    "eval_series": lambda v: eval_series((v, 2)),
}

#: Public callables that take no integer or level. The records the package
#: returns (reports, entries, rows, estimates) are built from
#: values it has already converted.
TAKES_NO_INTEGER = {
    "BoundaryEntry", "CoherenceReport", "ComponentDistribution",
    "MonotonicityResult", "MonteCarloEstimate", "Parallel", "PmfDiagnostic",
    "RelevanceEntry", "Segment", "Series", "StructureExpr", "SweepRow", "UCVSet", "arity", "case_study_path",
    "closed_form_distribution", "dominance_check", "exact_system_distribution",
    "export_results", "format_expr", "load_case_study", "load_pipeline_spec",
    "parallel", "parse_expr", "pipeline_state1_cdf", "series",
    "state1_performance", "validate_pmf",
}

INT64_TOP = np.int64(np.iinfo(np.int64).max)
FOREIGN = [
    2.5, math.nan, math.inf, -math.inf, "2",
    np.uint8(2), np.uint8(255), np.int8(2), np.int8(127), np.int8(-128),
    np.int64(2), INT64_TOP, np.float64(2.0), True, False,
]

# these counts size the work itself (an exponent, a vector's length, a
# sample count): at INT64_TOP the Python-int twin runs out of memory or
# never ends, so that value goes only to the other slots
SIZES_THE_WORK = {
    "StateSpace.size[n]", "constant_vector[n]", "check_boundary[n]",
    "monte_carlo_cdf[samples]",
}


def _twin(value):
    """The Python int equal to ``value``, or None when there is none."""
    if isinstance(value, (int, np.integer)):  # bool included
        return int(value)
    if isinstance(value, float) and value.is_integer():  # np.float64 too
        return int(value)
    return None


def _outcome(call, value):
    """The call's result, or the ``MscsError`` or ``TypeError`` it raised;
    any other exception, or a warning, propagates."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call(value)
        except (MscsError, TypeError) as err:
            return err


def _same(got, want) -> bool:
    """Equal, with the same type at every level of the value, so that a
    Python-int field read back as a numpy integer or a bool is a mismatch."""
    if type(got) is not type(want):
        return False
    if isinstance(got, BaseException):
        return str(got) == str(want)
    if isinstance(got, np.ndarray):
        return _same(got.tolist(), want.tolist())
    if dataclasses.is_dataclass(got):
        return all(
            _same(getattr(got, f.name), getattr(want, f.name))
            for f in dataclasses.fields(got)
        )
    if isinstance(got, (tuple, list)):
        return len(got) == len(want) and all(map(_same, got, want))
    return got == want or (got != got and want != want)  # NaN reads as NaN


@pytest.mark.parametrize("slot", list(SLOTS))
@settings(max_examples=10 * len(FOREIGN), deadline=None)
@given(value=st.sampled_from(FOREIGN))
def test_foreign_integer_reads_as_its_twin_or_is_refused(slot, value):
    assume(not (slot in SIZES_THE_WORK and value is INT64_TOP))
    call = SLOTS[slot]
    got = _outcome(call, value)
    twin = _twin(value)
    if twin is None or not isinstance(value, (int, np.integer)):
        # no twin, or an integral float, which a count may refuse
        if isinstance(got, (MscsError, TypeError)):
            return
        assert twin is not None, (slot, value, got)
    assert _same(got, _outcome(call, twin)), (slot, value, got)


def test_every_public_callable_is_in_the_table_or_takes_no_integer():
    public = set()
    for name in mscs.__all__:
        obj = getattr(mscs, name)
        if inspect.isfunction(obj) or (
            inspect.isclass(obj) and not issubclass(obj, BaseException)
        ):
            public.add(name)
    tabled = {slot.split("[")[0].split(".")[0] for slot in SLOTS}
    assert tabled == public - TAKES_NO_INTEGER
    assert not tabled & TAKES_NO_INTEGER
