import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mscs.coherence import (
    check_boundary,
    check_monotonicity,
    check_relevance,
    coherence_report,
    enumerate_ucv,
    is_connection_vector,
    is_upper_critical,
    level_lower_bound_check,
    structure_bounds,
)
from mscs.core import (
    StateSpace,
    as_vector,
    constant_vector,
    extreme_levels,
    join,
    leq,
    meet,
    strictly_below,
    update_at,
)
from mscs.errors import (
    EmptyVectorError,
    IndexOutOfRangeError,
    LengthMismatchError,
    LevelOutOfRangeError,
)
from mscs.enumeration import level_table
from mscs.probability import (
    SystemDistribution,
    cdf_bounds,
    closed_form_cdf,
    component_cdf,
    monte_carlo_cdf,
)
from mscs.structure import Component, eval_expr, series

levels = st.integers(min_value=0, max_value=6)


@st.composite
def vector_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    x = draw(st.lists(levels, min_size=n, max_size=n))
    y = draw(st.lists(levels, min_size=n, max_size=n))
    return tuple(x), tuple(y)


@st.composite
def vector_triples(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    vecs = [
        tuple(draw(st.lists(levels, min_size=n, max_size=n))) for _ in range(3)
    ]
    return vecs


def test_meet_join_examples():
    assert meet((2, 0, 3), (1, 4, 3)) == (1, 0, 3)
    assert join((2, 0, 3), (1, 4, 3)) == (2, 4, 3)


def test_meet_join_with_extremes():
    x = (2, 0, 3)
    assert meet(x, x) == x
    assert join(x, x) == x
    assert meet(x, constant_vector(3, 4)) == x  # 4 tops every entry
    assert join(x, constant_vector(3, 0)) == x


def test_order_examples():
    assert leq((0, 1), (1, 1))
    assert not leq((2, 0), (1, 3))
    assert leq((1, 2), (1, 2))
    assert strictly_below((0, 1), (1, 1))
    assert not strictly_below((1, 2), (1, 2))
    assert not strictly_below((2, 0), (1, 3))


def test_update_at():
    assert update_at((2, 2, 2), 1, 0) == (2, 0, 2)
    x = (3, 1)
    assert update_at(x, 0, x[0]) == x
    assert update_at((1,), 0, 4) == (4,)
    with pytest.raises(IndexOutOfRangeError):
        update_at((1, 2), 2, 0)


def test_constant_vector():
    assert constant_vector(3, 4) == (4, 4, 4)
    assert constant_vector(1, 0) == (0,)
    assert leq(constant_vector(2, 0), constant_vector(2, 5))
    with pytest.raises(EmptyVectorError):
        constant_vector(0, 1)


def test_extreme_levels():
    assert extreme_levels((2, 0, 3)) == (0, 3)
    assert extreme_levels((7, 7, 7)) == (7, 7)
    assert extreme_levels((5,)) == (5, 5)
    with pytest.raises(EmptyVectorError):
        extreme_levels(())


def test_length_mismatch():
    for op in (meet, join, leq, strictly_below):
        with pytest.raises(LengthMismatchError):
            op((1, 2), (1, 2, 3))


def test_empty_vectors_rejected():
    for op in (meet, join):
        with pytest.raises(EmptyVectorError):
            op((), ())


def test_state_space():
    space = StateSpace(2)
    assert space.size(3) == 27
    assert space.contains((0, 2, 1))
    assert not space.contains((0, 3))
    for max_state in (0, 256):
        with pytest.raises(LevelOutOfRangeError) as err:
            StateSpace(max_state)
        assert str(err.value) == f"max_state must be in 1..255, got {max_state}"


def test_as_vector_validation():
    assert as_vector([1, 0]) == (1, 0)
    with pytest.raises(EmptyVectorError):
        as_vector([])
    with pytest.raises(LevelOutOfRangeError):
        as_vector([-1])


@given(vector_pairs())
def test_lattice_commutative(pair):
    x, y = pair
    assert meet(x, y) == meet(y, x)
    assert join(x, y) == join(y, x)


@given(vector_triples())
def test_lattice_associative_and_absorbing(vecs):
    x, y, z = vecs
    assert meet(meet(x, y), z) == meet(x, meet(y, z))
    assert join(join(x, y), z) == join(x, join(y, z))
    assert meet(x, x) == x and join(x, x) == x
    assert meet(x, join(x, y)) == x
    assert join(x, meet(x, y)) == x


@given(vector_pairs())
def test_order_compatibility(pair):
    x, y = pair
    assert leq(x, y) == (meet(x, y) == x) == (join(x, y) == y)
    assert strictly_below(x, y) == (leq(x, y) and x != y)


@given(vector_pairs(), levels, levels)
def test_update_overwrites(pair, a, b):
    x, _ = pair
    i = len(x) - 1
    assert update_at(update_at(x, i, a), i, b) == update_at(x, i, b)


# --- the level rule: one conversion wherever a level enters ---

SERIES = series(Component(1), Component(2))
DISTS = [(0.2, 0.3, 0.5), (0.1, 0.6, 0.3)]


def _planted(value):
    """A callable over {0..2}^2 that returns ``value`` at (1, 1)."""
    return lambda x: value if tuple(x) == (1, 1) else min(x)


# each consumer as a function of the value it reads: a callable's value,
# a state-vector entry, or a level argument
LEVEL_CONSUMERS = {
    "coherence_report": lambda v: coherence_report(_planted(v), 2, 2),
    "check_monotonicity": lambda v: check_monotonicity(_planted(v), 2, 2),
    "check_relevance": lambda v: check_relevance(_planted(v), 2, 2),
    "check_boundary": lambda v: check_boundary(_planted(v), 2, 2),
    "enumerate_ucv[callable]": lambda v: enumerate_ucv(_planted(v), 2, 2, 1),
    "level_table": lambda v: level_table(_planted(v), 2, 2).tolist(),
    "eval_expr": lambda v: eval_expr(SERIES, (v, 2)),
    "structure_bounds": lambda v: structure_bounds(SERIES, (v, 2)),
    "is_connection_vector": lambda v: is_connection_vector(SERIES, (v, 2), 1),
    "is_upper_critical[vector]": lambda v: is_upper_critical(
        SERIES, (v, 1), 1, 2
    ),
    "level_lower_bound_check": lambda v: level_lower_bound_check(
        SERIES, (1, 1), 1, (v, 2), 2
    ),
    "enumerate_ucv[level]": lambda v: enumerate_ucv(SERIES, 2, 2, v),
    "is_upper_critical[level]": lambda v: is_upper_critical(
        SERIES, (2, 2), v, 2
    ),
    "monte_carlo_cdf": lambda v: monte_carlo_cdf(SERIES, DISTS, v, 1000, 7),
    "cdf_at": lambda v: SystemDistribution.from_pmf((0.2, 0.3, 0.5)).cdf_at(v),
    "component_cdf": lambda v: component_cdf(DISTS[0], v),
    "closed_form_cdf": lambda v: closed_form_cdf("series", DISTS, v),
    "cdf_bounds": lambda v: cdf_bounds("parallel", DISTS, v),
}


@pytest.mark.parametrize("value", [0.5, math.nan, math.inf, "1"], ids=repr)
@pytest.mark.parametrize("consumer", list(LEVEL_CONSUMERS))
def test_non_integer_level_refused_by_every_consumer(consumer, value):
    with pytest.raises(LevelOutOfRangeError, match="must be an integer"):
        LEVEL_CONSUMERS[consumer](value)


@pytest.mark.parametrize(
    "value, twin", [(2.0, 2), (np.int8(2), 2), (np.True_, 1)], ids=repr
)
@pytest.mark.parametrize("consumer", list(LEVEL_CONSUMERS))
def test_integral_level_read_as_its_int(consumer, value, twin):
    assert LEVEL_CONSUMERS[consumer](value) == LEVEL_CONSUMERS[consumer](twin)
