import math
import random

import pytest

from conftest import (
    oracle_eval,
    oracle_first_monotone_violation,
    oracle_is_ucv,
    oracle_least_context,
    oracle_space,
    oracle_ucv_set,
    random_expr,
)
from mscs.coherence import (
    check_boundary,
    check_monotonicity,
    check_relevance,
    coherence_report,
    composition_comparison,
    enumerate_ucv,
    is_connection_vector,
    is_upper_critical,
    level_lower_bound_check,
    redundancy_comparison,
    structure_bounds,
)
from mscs.core import constant_vector, leq, update_at
from mscs.enumeration import level_table
from mscs.errors import (
    ExplosionLimitError,
    InvalidLimitError,
    LevelOutOfRangeError,
    PreconditionViolatedError,
)
from mscs.structure import (
    Component,
    Parallel,
    Series,
    arity,
    eval_expr,
    eval_parallel,
    eval_series,
    k_out_of_n,
    parallel,
    parse_expr,
    series,
)

c1, c2, c3 = Component(1), Component(2), Component(3)

COHERENT = [
    (series(c1, c2, c3), 3),
    (parallel(c1, c2, c3), 3),
    (k_out_of_n(2, c1, c2, c3), 3),
]


@pytest.mark.parametrize("expr,n", COHERENT)
@pytest.mark.parametrize("max_state", [1, 2, 4])
def test_basic_structures_are_coherent(expr, n, max_state):
    report = coherence_report(expr, n, max_state)
    assert report.overall
    assert report.monotonicity.passed
    assert all(e.passed for e in report.relevance)
    assert all(e.passed for e in report.boundary)


def test_non_monotone_counterexample():
    decreasing = lambda x: 2 - x[0]
    result = check_monotonicity(decreasing, 2, 2)
    assert not result.passed
    assert result.counterexample == ((0, 0), (1, 0))
    x, y = result.counterexample
    assert leq(x, y) and decreasing(x) > decreasing(y)
    assert result.values == (2, 1)


def test_monotone_counterexample_is_lexicographically_least():
    # the reported pair must equal the first violation of the nested
    # lexicographic pair scan, for arbitrary functions
    rnd = random.Random(1234)
    n, max_state = 3, 2
    space = list(oracle_space(n, max_state))
    for _ in range(30):
        table = {vec: rnd.randint(0, max_state) for vec in space}
        fn = table.__getitem__
        want = oracle_first_monotone_violation(fn, n, max_state)
        got = check_monotonicity(fn, n, max_state)
        if want is None:
            assert got.passed
        else:
            assert not got.passed
            assert got.counterexample == want


def test_relevance_brute_force_agreement():
    # n = 3 puts a component on a middle axis of the flat table
    rnd = random.Random(99)
    max_state = 2
    for n in (2, 3):
        space = list(oracle_space(n, max_state))
        for _ in range(25):
            table = {vec: rnd.randint(0, max_state) for vec in space}
            fn = table.__getitem__
            for e in check_relevance(fn, n, max_state):
                assert e.witness == oracle_least_context(
                    fn, n, max_state, e.component, e.level
                )
                assert e.passed == (e.witness is not None)


def test_relevance_witnesses_satisfy_definition():
    for expr, n in COHERENT:
        max_state = 2
        entries = check_relevance(expr, n, max_state)
        assert all(e.passed for e in entries)
        for e in entries:
            i = e.component - 1
            probe = update_at(e.witness, i, e.level)
            assert eval_expr(expr, probe) == e.level
            for other in range(max_state + 1):
                if other != e.level:
                    assert (
                        eval_expr(expr, update_at(e.witness, i, other))
                        != e.level
                    )


def test_relevance_canonical_witnesses():
    # the all-top context witnesses every (component, level) of a series
    # structure; the all-bottom context does so for parallel
    max_state = 2
    for level in range(max_state + 1):
        for i in range(2):
            top = constant_vector(2, max_state)
            assert eval_series(update_at(top, i, level)) == level
            assert all(
                eval_series(update_at(top, i, other)) != level
                for other in range(max_state + 1)
                if other != level
            )
            bottom = constant_vector(2, 0)
            assert eval_parallel(update_at(bottom, i, level)) == level
            assert all(
                eval_parallel(update_at(bottom, i, other)) != level
                for other in range(max_state + 1)
                if other != level
            )


def test_irrelevant_component_detected():
    project = lambda x: x[0]
    entries = check_relevance(project, 2, 2)
    for e in entries:
        if e.component == 2:
            assert not e.passed and e.note
        else:
            assert e.passed


def test_repeated_component_fails_relevance():
    report = coherence_report(parallel(c1, c1), 2, 2)
    assert report.monotonicity.passed
    assert not report.overall
    assert any(
        not e.passed and e.component == 2 for e in report.relevance
    )


def test_boundary():
    for expr, n in COHERENT:
        assert all(e.passed for e in check_boundary(expr, n, 4))
    shifted = lambda x: min(min(x) + 1, 2)
    entries = check_boundary(shifted, 2, 2)
    by_level = {e.level: e for e in entries}
    assert not by_level[0].passed and by_level[0].value == 1
    assert by_level[2].passed


def test_explosion_guard():
    with pytest.raises(ExplosionLimitError):
        check_monotonicity(series(c1, c2), 2, 4, limit=10)
    with pytest.raises(ExplosionLimitError):
        enumerate_ucv(series(c1, c2), 2, 4, 1, limit=10)


@pytest.mark.parametrize("limit", [-1, 1.5, True, "100"])
def test_explicit_limit_must_be_non_negative_integer(limit):
    with pytest.raises(InvalidLimitError, match="limit must be"):
        check_monotonicity(series(c1, c2), 2, 4, limit=limit)
    with pytest.raises(InvalidLimitError):
        enumerate_ucv(series(c1, c2), 2, 4, 1, limit=limit)


def test_structure_bounds_examples():
    assert structure_bounds(series(c1, c2, c3), (2, 0, 3)) == (0, 0, 3)
    assert structure_bounds(parallel(c1, c2, c3), (2, 0, 3)) == (0, 3, 3)
    assert structure_bounds(k_out_of_n(2, c1, c2, c3), (1, 4, 2)) == (1, 2, 4)


def test_redundancy_comparison_examples():
    assert redundancy_comparison("series", (2, 1), (0, 3)) == (2, 1)
    assert redundancy_comparison("parallel", (2, 1), (0, 3)) == (3, 3)
    x = (2, 0, 1)
    level = eval_series(x)
    assert redundancy_comparison("series", x, x) == (level, level)


def test_composition_comparison_examples():
    assert composition_comparison("series", (2, 1), (0, 3)) == (0, 0)
    assert composition_comparison("parallel", (2, 0), (0, 3)) == (0, 2)
    x = (2, 0, 1)
    level = eval_parallel(x)
    assert composition_comparison("parallel", x, x) == (level, level)


def test_pairwise_theorems_exhaustive_small():
    for x in oracle_space(3, 2):
        low, value, high = structure_bounds(series(c1, c2, c3), x)
        assert low <= value <= high
        low, value, high = structure_bounds(parallel(c1, c2, c3), x)
        assert low <= value <= high
        for y in oracle_space(3, 2):
            comp, sys_ = redundancy_comparison("series", x, y)
            assert comp >= sys_
            comp, sys_ = redundancy_comparison("parallel", x, y)
            assert comp == sys_
            comp, sys_ = composition_comparison("series", x, y)
            assert comp == sys_
            comp, sys_ = composition_comparison("parallel", x, y)
            assert comp <= sys_


def test_connection_vectors():
    assert is_connection_vector(series(c1, c2), (2, 3), 2)
    assert not is_connection_vector(series(c1, c2), (2, 3), 3)
    assert is_connection_vector(parallel(c1, c2, c3), (1, 1, 1), 1)


def test_is_upper_critical_examples():
    assert is_upper_critical(series(c1, c2), (2, 2), 2, 3)
    assert not is_upper_critical(series(c1, c2), (2, 3), 2, 3)
    assert is_upper_critical(parallel(c1, c2), (1, 0), 1, 2)
    with pytest.raises(LevelOutOfRangeError):
        is_upper_critical(series(c1, c2), (1, 1), 5, 3)
    with pytest.raises(ExplosionLimitError):
        is_upper_critical(series(c1, c2), (3, 3), 3, 3, limit=4)


def test_enumerate_ucv_matches_brute_force():
    grid = [
        (series(c1, c2), 2),
        (parallel(c1, c2), 2),
        (series(c1, c2, c3), 3),
        (parallel(c1, c2, c3), 3),
        (k_out_of_n(2, c1, c2, c3), 3),
        (series(c1, parallel(c2, c3)), 3),
    ]
    for expr, n in grid:
        for max_state in (1, 2, 3):
            fn = lambda v: oracle_eval(expr, v)
            for level in range(max_state + 1):
                found = enumerate_ucv(expr, n, max_state, level)
                assert list(found.vectors) == oracle_ucv_set(
                    fn, n, max_state, level
                )
                # members are connection vectors; the independent
                # definitional check confirms each one
                for vec in found.vectors:
                    assert is_connection_vector(expr, vec, level)
                    assert is_upper_critical(expr, vec, level, max_state)


def test_enumerate_ucv_examples():
    assert enumerate_ucv(series(c1, c2), 2, 2, 1).vectors == ((1, 1),)
    assert enumerate_ucv(parallel(c1, c2), 2, 2, 1).vectors == (
        (0, 1),
        (1, 0),
    )
    for expr, n in COHERENT:
        assert enumerate_ucv(expr, n, 2, 0).vectors == (
            constant_vector(n, 0),
        )


def test_ucv_members_pairwise_incomparable():
    # an antichain for every table, monotone or not
    rnd = random.Random(16180)
    cases = [(expr, n, 2) for expr, n in COHERENT]
    for _ in range(30):
        n = rnd.randint(1, 4)
        max_state = rnd.randint(1, 3)
        table = {
            vec: rnd.randint(0, max_state)
            for vec in oracle_space(n, max_state)
        }
        cases.append((table.__getitem__, n, max_state))
    for structure, n, max_state in cases:
        for level in range(max_state + 1):
            found = enumerate_ucv(structure, n, max_state, level)
            for a in found.vectors:
                for b in found.vectors:
                    if a != b:
                        assert not leq(a, b)


def test_enumerate_ucv_large_output():
    # C(20, 10) members; a quadratic pass over them would take minutes
    comps = ", ".join(f"c{i}" for i in range(1, 21))
    found = enumerate_ucv(parse_expr(f"koon(10; {comps})"), 20, 1, 1)
    assert len(found.vectors) == math.comb(20, 10) == 184_756
    assert list(found.vectors) == sorted(found.vectors)
    assert all(sum(v) == 10 and set(v) <= {0, 1} for v in found.vectors)


def test_level_lower_bound_check():
    assert level_lower_bound_check(series(c1, c2), (1, 1), 1, (1, 2), 3)
    assert level_lower_bound_check(parallel(c1, c2), (0, 1), 1, (2, 1), 3)
    # vacuous when the vector is not above the critical one
    assert level_lower_bound_check(series(c1, c2), (1, 1), 1, (0, 2), 3)
    with pytest.raises(PreconditionViolatedError):
        level_lower_bound_check(series(c1, c2), (2, 3), 2, (3, 3), 3)


def test_level_lower_bound_check_exhaustive_small():
    for expr, n in COHERENT:
        max_state = 2
        for level in range(max_state + 1):
            for ucv in enumerate_ucv(expr, n, max_state, level).vectors:
                for x in oracle_space(n, max_state):
                    assert level_lower_bound_check(
                        expr, ucv, level, x, max_state
                    )


def test_report_serialization():
    report = coherence_report(series(c1, c2), 2, 2)
    doc = report.to_dict()
    assert set(doc) == {
        "n_components",
        "max_state",
        "overall",
        "monotone",
        "relevance",
        "boundary",
        "counterexamples",
    }
    assert doc["overall"] is True and doc["monotone"] is True
    assert doc["counterexamples"]["monotone"] is None
    table = report.to_table()
    assert "overall    pass" in table

    failing = coherence_report(lambda x: 2 - x[0], 2, 2)
    doc = failing.to_dict()
    assert doc["overall"] is False
    assert doc["counterexamples"]["monotone"]["x"] == [0, 0]
    assert doc["counterexamples"]["monotone"]["y"] == [1, 0]
    assert "fail" in failing.to_table()


def test_report_boundary_counterexample():
    shifted = lambda x: min(min(x) + 1, 2)
    doc = coherence_report(shifted, 2, 2).to_dict()
    failures = doc["counterexamples"]["boundary"]
    assert {"level": 0, "vector": [0, 0], "value": 1} in failures


def test_koon_exhaustive_coherence_27_vectors():
    report = coherence_report(parse_expr("koon(2; c1, c2, c3)"), 3, 2)
    assert report.overall


def test_coherence_on_larger_space():
    # 5^8 = 390625 vectors, still exhaustive
    comps = tuple(Component(i) for i in range(1, 9))
    assert coherence_report(Series(comps), 8, 4).overall
    assert coherence_report(Parallel(comps), 8, 4).overall
    assert coherence_report(k_out_of_n(3, *comps), 8, 4).overall


def test_enumerate_ucv_accepts_callables():
    found = enumerate_ucv(lambda v: min(v), 2, 2, 1)
    assert found.vectors == ((1, 1),)


def test_enumerate_ucv_definitional_on_arbitrary_functions():
    # the strict-down-set maxima are definition-exact for any function,
    # monotone or not
    rnd = random.Random(271828)
    for _ in range(60):
        n = rnd.randint(1, 3)
        max_state = rnd.randint(1, 3)
        space = list(oracle_space(n, max_state))
        table = {vec: rnd.randint(0, max_state) for vec in space}
        fn = table.__getitem__
        for level in range(max_state + 1):
            got = list(enumerate_ucv(fn, n, max_state, level).vectors)
            assert got == oracle_ucv_set(fn, n, max_state, level)


def _leaves(expr):
    if isinstance(expr, Component):
        return [expr.index]
    return [i for c in expr.children for i in _leaves(c)]


def _ucv_outcome(structure, n, max_state, level):
    return enumerate_ucv(structure, n, max_state, level)


def test_expression_path_matches_callable_path_on_random_trees():
    # the broadcast kernels used for expression trees must agree with the
    # Python-loop path taken by callables, witnesses and errors included
    rnd = random.Random(2112)
    repeated = wider = checked = 0
    for case in range(60):
        expr = random_expr(rnd, 4, 3)
        max_state = 1 + case % 3
        n = arity(expr) + case % 3
        leaves = _leaves(expr)
        repeated += len(leaves) > len(set(leaves))
        wider += n > arity(expr)
        fn = lambda x, e=expr: oracle_eval(e, x)  # noqa: E731

        table = level_table(expr, n, max_state)
        assert table.dtype.name == "uint8"
        assert table.tolist() == [
            oracle_eval(expr, x) for x in oracle_space(n, max_state)
        ]
        assert coherence_report(expr, n, max_state) == coherence_report(
            fn, n, max_state
        )
        for level in range(max_state + 1):
            assert _ucv_outcome(expr, n, max_state, level) == _ucv_outcome(
                fn, n, max_state, level
            )
        # both paths share the kernels, so check those against the
        # definitions too wherever the brute force stays cheap
        if (max_state + 1) ** n <= 81:
            checked += 1
            for e in check_relevance(expr, n, max_state):
                assert e.witness == oracle_least_context(
                    fn, n, max_state, e.component, e.level
                )
            for level in range(max_state + 1):
                assert list(enumerate_ucv(expr, n, max_state, level).vectors) == (
                    oracle_ucv_set(fn, n, max_state, level)
                )
    assert repeated >= 10 and wider >= 20 and checked >= 20


def _error_of(call):
    try:
        call()
    except Exception as err:  # noqa: BLE001 - class and message compared
        return type(err), str(err)
    return None


def _full_space_error(expr, n, max_state, limit=None, level=None):
    """What the full-space route raised for a tree: the level check of
    ``enumerate_ucv``, then the guard and arity checks of the full table."""
    if level is not None and not 0 <= level <= max_state:
        return _error_of(lambda: enumerate_ucv(expr, n, max_state, level))
    return _error_of(lambda: level_table(expr, n, max_state, limit))


def test_threshold_route_matches_enumeration_on_random_trees():
    # trees take the binary image; a callable over the same table takes the
    # full (M+1)^n enumeration, which is the oracle here
    rnd = random.Random(60613)
    repeated = wider = high = 0
    for case in range(48):
        max_state = 1 + case % 5
        extra = case % 3
        # keep (M+1)^n at or below ~50k vectors
        cap = int(math.log(50_000) / math.log(max_state + 1) + 1e-9)
        expr = random_expr(rnd, 4, rnd.randint(1, min(cap - extra, 6)))
        n = arity(expr) + extra
        leaves = _leaves(expr)
        repeated += len(leaves) > len(set(leaves))
        wider += extra > 0
        high += max_state >= 4 and n >= 4
        table = {x: oracle_eval(expr, x) for x in oracle_space(n, max_state)}
        fn = table.__getitem__

        assert coherence_report(expr, n, max_state) == coherence_report(
            fn, n, max_state
        )
        assert check_monotonicity(expr, n, max_state) == check_monotonicity(
            fn, n, max_state
        )
        assert check_relevance(expr, n, max_state) == check_relevance(
            fn, n, max_state
        )
        for level in range(max_state + 1):
            assert enumerate_ucv(expr, n, max_state, level) == enumerate_ucv(
                fn, n, max_state, level
            )
    assert repeated >= 10 and wider >= 20 and high >= 5


@pytest.mark.parametrize(
    "n_delta,max_state,limit,level",
    [
        (-1, 2, None, 1),  # n below the arity
        (None, 2, None, 1),  # n = 0
        (0, 0, None, 0),  # M = 0
        (0, 256, None, 1),  # M above the state ceiling
        (0, 2, "over", 1),  # space over the limit
        (0, 2, -1, 1),  # malformed limit
        (0, 2, None, 3),  # level above M
        (0, 2, None, -1),  # negative level
        (-1, 2, "over", 1),  # the guard precedes the arity check
        (None, 256, -1, 1),  # n precedes M precedes the limit
        (0, 256, -1, 1),
        (0, 2, -1, 7),  # the level precedes the limit (UCV only)
        (0, 2, "over", 7),
    ],
)
def test_threshold_route_raises_what_enumeration_raised(
    n_delta, max_state, limit, level
):
    expr = parse_expr("parallel(series(c1, c3), koon(2; c1, c2, c3))")
    n = 0 if n_delta is None else arity(expr) + n_delta
    if limit == "over":
        limit = (max_state + 1) ** n - 1
    fn = lambda x: oracle_eval(expr, x)  # noqa: E731
    checks = (
        lambda s: coherence_report(s, n, max_state, limit),
        lambda s: check_monotonicity(s, n, max_state, limit),
        lambda s: check_relevance(s, n, max_state, limit),
    )
    # None where only the UCV level is bad: the three checks then succeed
    expected = _full_space_error(expr, n, max_state, limit)
    for call in checks:
        assert _error_of(lambda: call(expr)) == expected
        # a callable cannot know the tree's arity, so it only shares the
        # errors raised before the table is built
        if n_delta != -1 or limit == "over":
            assert _error_of(lambda: call(fn)) == expected
    ucv = lambda s: enumerate_ucv(s, n, max_state, level, limit)  # noqa: E731
    expected = _full_space_error(expr, n, max_state, limit, level)
    assert expected is not None
    assert _error_of(lambda: ucv(expr)) == expected
    if n_delta != -1 or limit == "over" or not 0 <= level <= max_state:
        assert _error_of(lambda: ucv(fn)) == expected


def test_is_upper_critical_tree_route_matches_down_set_loop():
    # a tree checks only the covering predecessors of x; the same tree
    # behind a callable walks the whole down-set, the oracle here
    rnd = random.Random(8191)
    repeated = wider = critical = 0
    for case in range(150):
        expr = random_expr(rnd, 4, rnd.randint(1, 4))
        n = arity(expr) + case % 3
        max_state = rnd.randint(1, 3)
        leaves = _leaves(expr)
        repeated += len(leaves) > len(set(leaves))
        wider += n > arity(expr)
        fn = lambda x, e=expr: oracle_eval(e, x)  # noqa: E731
        level = rnd.randint(0, max_state)
        members = enumerate_ucv(expr, n, max_state, level).vectors
        vectors = [tuple(rnd.randint(0, max_state) for _ in range(n))]
        if members:
            member = rnd.choice(members)
            i = rnd.randrange(n)
            raised = update_at(member, i, min(member[i] + 1, max_state))
            vectors += [member, raised]
        for x in vectors:
            want = is_upper_critical(fn, x, level, max_state)
            assert is_upper_critical(expr, x, level, max_state) == want
            critical += want
        # the containment, level and down-set checks come first, in order
        x = vectors[-1]
        size = math.prod(v + 1 for v in x)
        for args in (
            (update_at(x, 0, max_state + 1), level, max_state, None),
            (x, max_state + 1 + case % 2, max_state, size - 1),
            (x, level, max_state, size - 1),
        ):
            expected = _error_of(lambda: is_upper_critical(fn, *args))
            assert expected is not None
            assert _error_of(lambda: is_upper_critical(expr, *args)) == expected
    assert repeated >= 50 and wider >= 50 and critical >= 100
