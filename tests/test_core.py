import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    assert list(space.levels) == [0, 1, 2]
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
