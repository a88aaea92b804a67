import itertools
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import nested_chain, oracle_eval, random_expr
from mscs.coherence import check_boundary
from mscs.enumeration import level_table
from mscs.errors import (
    ArityMismatchError,
    EmptyVectorError,
    InvalidKError,
    ParseError,
)
from mscs.probability import closed_form_distribution
from mscs.structure import (
    MAX_NESTING,
    Component,
    KOutOfN,
    Parallel,
    Series,
    arity,
    as_level_function,
    eval_expr,
    eval_expr_batch,
    eval_k_out_of_n,
    eval_parallel,
    eval_series,
    format_expr,
    k_out_of_n,
    parallel,
    parse_expr,
    series,
)

c1, c2, c3 = Component(1), Component(2), Component(3)


def test_eval_series():
    assert eval_series((2, 0, 3)) == 0
    assert eval_series((4, 4, 4)) == 4
    assert eval_series((1,)) == 1
    with pytest.raises(EmptyVectorError):
        eval_series(())


def test_eval_parallel():
    assert eval_parallel((2, 0, 3)) == 3
    assert eval_parallel((2, 2, 2)) == 2
    assert eval_parallel((4,)) == 4
    with pytest.raises(EmptyVectorError):
        eval_parallel(())


def test_eval_k_out_of_n():
    assert eval_k_out_of_n(2, (1, 4, 2)) == 2
    with pytest.raises(InvalidKError):
        eval_k_out_of_n(0, (1, 2))
    with pytest.raises(InvalidKError):
        eval_k_out_of_n(3, (1, 2))
    with pytest.raises(EmptyVectorError):
        eval_k_out_of_n(1, ())


@given(st.lists(st.integers(0, 5), min_size=1, max_size=7), st.data())
def test_k_out_of_n_envelope(entries, data):
    x = tuple(entries)
    k = data.draw(st.integers(1, len(x)))
    value = eval_k_out_of_n(k, x)
    assert min(x) <= value <= max(x)
    assert eval_k_out_of_n(1, x) == eval_parallel(x)
    assert eval_k_out_of_n(len(x), x) == eval_series(x)


def test_eval_expr_examples():
    e = series(c1, parallel(c2, c3))
    assert eval_expr(e, (0, 2, 1)) == 0
    assert eval_expr(parallel(c1, c2), (1, 3)) == 3
    assert eval_expr(k_out_of_n(2, c1, c2, c3), (1, 4, 2)) == 2


def test_eval_expr_arity_check():
    with pytest.raises(ArityMismatchError):
        eval_expr(series(c1, c3), (1, 2))
    # extra trailing components are allowed: the expression may live in a
    # larger declared component set
    assert eval_expr(series(c1, c2), (1, 2, 9)) == 1


def test_arity():
    assert arity(series(c1, c3)) == 3
    assert arity(c1) == 1
    assert arity(parallel(c2, c2)) == 2
    with pytest.raises(TypeError):
        arity("c1")


def test_node_invariants():
    with pytest.raises(EmptyVectorError):
        Series((c1,))
    with pytest.raises(EmptyVectorError):
        Parallel((c1,))
    with pytest.raises(EmptyVectorError):
        KOutOfN(1, ())
    with pytest.raises(InvalidKError):
        KOutOfN(4, (c1, c2, c3))
    with pytest.raises(InvalidKError):
        KOutOfN(0, (c1,))
    with pytest.raises(ArityMismatchError):
        Component(0)


def test_parse_examples():
    assert parse_expr("series(c1, parallel(c2, c3))") == series(
        c1, parallel(c2, c3)
    )
    assert parse_expr("koon(2; c1,c2,c3)") == k_out_of_n(2, c1, c2, c3)
    assert parse_expr("  c7  ") == Component(7)
    assert parse_expr("series ( c1 ,c2 )") == series(c1, c2)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "series",
        "series(",
        "series()",
        "series(c1)",
        "series(c1,)",
        "series(c1 c2)",
        "parallel(c1)",
        "parallel(c1,,c2)",
        "koon(2 c1)",
        "koon(; c1)",
        "koon(c1; c2)",
        "koon(0; c1)",
        "c",
        "c0",
        "1",
        "x1",
        "series(c1, c2))",
        "series(c1, c2) trailing",
        "series(c1, c2",
        "sérïes(c1, c2)",
    ],
)
def test_parse_errors_carry_position(text):
    with pytest.raises(ParseError) as err:
        parse_expr(text)
    assert err.value.position >= 1
    assert err.value.message
    assert f"(at byte {err.value.position})" in str(err.value)


def test_parse_invalid_k():
    with pytest.raises(InvalidKError):
        parse_expr("koon(3; c1, c2)")
    # k equal to the child count is fine
    assert parse_expr("koon(2; c1, c2)") == k_out_of_n(2, c1, c2)


def test_parse_error_positions_exact():
    with pytest.raises(ParseError) as err:
        parse_expr("series(c1)")
    assert err.value.position == 10  # the ')' where ',' was required
    with pytest.raises(ParseError) as err:
        parse_expr("parallel(c1 c2)")
    assert err.value.position == 13  # the 'c2' where ',' was required
    assert err.value.message == (
        "expected ',' (parallel needs at least two children)"
    )
    with pytest.raises(ParseError) as err:
        parse_expr("")
    assert err.value.position == 1


@pytest.mark.parametrize("op", ["series", "parallel", "koon"])
def test_parse_nesting_bound(op):
    at_bound = nested_chain(MAX_NESTING, op)
    assert format_expr(parse_expr(at_bound)) == at_bound
    past = nested_chain(MAX_NESTING + 1, op)
    with pytest.raises(ParseError) as err:
        parse_expr(past)
    # the innermost operator is the one past the bound
    assert err.value.position == past.rindex(op) + 1
    # the bound is on depth, not on the number of operators
    below = nested_chain(MAX_NESTING - 1, op)
    assert arity(parse_expr(f"series({below}, {below})")) == 2


def test_format_examples():
    assert format_expr(series(c1, c2)) == "series(c1, c2)"
    assert format_expr(k_out_of_n(2, c1, c2, c3)) == "koon(2; c1, c2, c3)"
    assert (
        format_expr(series(c1, parallel(c2, c3)))
        == "series(c1, parallel(c2, c3))"
    )
    with pytest.raises(TypeError):
        format_expr("c1")


def test_parse_format_round_trip_seeded():
    rnd = random.Random(90125)
    for _ in range(300):
        expr = random_expr(rnd, max_depth=4, max_index=9)
        assert parse_expr(format_expr(expr)) == expr


def test_evaluators_agree_with_ast_exhaustively():
    # dedicated evaluators versus the tree evaluator, all vectors, n <= 4,
    # max_state <= 4
    for n in range(1, 5):
        comps = tuple(Component(i) for i in range(1, n + 1))
        flat_series = Series(comps) if n > 1 else comps[0]
        flat_parallel = Parallel(comps) if n > 1 else comps[0]
        for max_state in range(1, 5):
            for vec in itertools.product(range(max_state + 1), repeat=n):
                assert eval_expr(flat_series, vec) == eval_series(vec)
                assert eval_expr(flat_parallel, vec) == eval_parallel(vec)


def test_expressions_monotone_on_small_spaces():
    rnd = random.Random(777)
    for _ in range(25):
        expr = random_expr(rnd, max_depth=3, max_index=3)
        n = arity(expr)
        space = list(itertools.product(range(3), repeat=n))
        values = {vec: eval_expr(expr, vec) for vec in space}
        for x in space:
            for y in space:
                if all(a <= b for a, b in zip(x, y)):
                    assert values[x] <= values[y]


def test_batch_matches_scalar():
    rnd = random.Random(4242)
    for _ in range(40):
        expr = random_expr(rnd, max_depth=4, max_index=5)
        n = arity(expr)
        states = np.array(
            [[rnd.randint(0, 4) for _ in range(n)] for _ in range(64)]
        )
        got = eval_expr_batch(expr, states)
        want = [oracle_eval(expr, tuple(row)) for row in states.tolist()]
        assert got.tolist() == want


# tables of 2^12 to 3^8 vectors, large enough that children are laid out
# contiguously over the inner axes before they are combined
@pytest.mark.parametrize("n, max_state", [(12, 1), (8, 2), (6, 3)])
def test_grid_matches_scalar(n, max_state):
    rnd = random.Random(n * 10 + max_state)
    for _ in range(6):
        expr = random_expr(rnd, max_depth=4, max_index=n)
        table = level_table(expr, n, max_state)
        space = itertools.product(range(max_state + 1), repeat=n)
        assert table.tolist() == [oracle_eval(expr, x) for x in space]


def test_arity_refusals_share_one_message():
    # a vector's length, a matrix's width, a component count and a family's
    # size are refused in the same words, with the verb agreeing
    expr = series(c1, c2)
    for call in (
        lambda: eval_expr(expr, (1,)),
        lambda: eval_expr_batch(expr, np.zeros((3, 1), dtype=np.int64)),
        lambda: level_table(expr, 1, 2),
        lambda: as_level_function(expr, 1),
        lambda: closed_form_distribution(expr, [(0.5, 0.5)]),
    ):
        with pytest.raises(ArityMismatchError) as err:
            call()
        assert str(err.value) == (
            "1 component does not cover component indices up to 2"
        )
    with pytest.raises(ArityMismatchError) as err:
        eval_expr(series(c1, c3), (1, 1))
    assert str(err.value) == "2 components do not cover component indices up to 3"


@pytest.mark.parametrize("structure", [5, "series(c1, c2)", None])
def test_value_neither_tree_nor_callable_is_not_a_structure_function(structure):
    for call in (
        lambda: as_level_function(structure, 2),
        lambda: check_boundary(structure, 2, 1),
    ):
        with pytest.raises(TypeError, match="not a structure function"):
            call()


def test_batch_validation():
    with pytest.raises(ArityMismatchError):
        eval_expr_batch(series(c1, c3), np.zeros((4, 2), dtype=np.int64))
    with pytest.raises(ArityMismatchError):
        eval_expr_batch(c1, np.zeros(4, dtype=np.int64))
