import functools
import importlib
import itertools
import pkgutil
import random

import numpy as np
import pytest

import mscs
import mscs.enumeration as enumeration
import mscs.probability as probability
import mscs.structure as structure
from conftest import oracle_eval, oracle_space, random_expr, random_pmf
from mscs.coherence import (
    check_monotonicity,
    check_relevance,
    coherence_report,
    enumerate_ucv,
)
from mscs.enumeration import (
    _CHUNK,
    iter_level_slabs,
    iter_vector_chunks,
    iter_weight_chunks,
    level_table,
)
from mscs.probability import exact_system_distribution, monte_carlo_cdf
from mscs.structure import Component, KOutOfN, Series, arity, parse_expr


def _digit_matrix(lo, hi, n_components, radix):
    """Digits of the flat indices lo..hi-1, one row per index, by repeated
    ``divmod``: the reference's own decoder, apart from the package's."""
    idx = np.arange(lo, hi, dtype=np.int64)
    digits = np.empty((hi - lo, n_components), dtype=np.int64)
    for col in range(n_components - 1, -1, -1):
        idx, digits[:, col] = np.divmod(idx, radix)
    return digits


def outer_weight_chunks(pmf_matrix):
    """The weight generator that extends every trailing axis with
    ``np.multiply.outer``, kept as the reference for the kernel."""
    n_components, radix = pmf_matrix.shape
    total = radix**n_components
    trailing = 0
    while trailing < n_components and radix ** (trailing + 2) <= _CHUNK:
        trailing += 1
    block = radix**trailing
    leading = n_components - trailing
    for lo in range(0, total, _CHUNK):
        hi = min(lo + _CHUNK, total)
        first = lo // block
        digits = _digit_matrix(first, (hi - 1) // block + 1, leading, radix)
        weights = np.ones(digits.shape[0])
        for col in range(leading):
            weights *= pmf_matrix[col, digits[:, col]]
        for pmf in pmf_matrix[leading:]:
            weights = np.multiply.outer(weights, pmf)
        offset = first * block
        yield lo, weights.reshape(-1)[lo - offset : hi - offset]


# radices on both sides of the column-wise cutoff; spaces of 3^11, 5^8 and
# 10^5 vectors are not multiples of 2^16, and for radices 3, 5 and 10 a
# chunk edge falls inside a block of whole trailing axes. In 5^3, 5^1 and
# 2^1 vectors the whole space fits in one block: the generator keeps one
# leading axis, the reference none
@pytest.mark.parametrize(
    "max_state, n",
    [
        (1, 17),
        (2, 11),
        (3, 9),
        (4, 8),
        (9, 5),
        (15, 4),
        (255, 2),
        (4, 3),
        (4, 1),
        (1, 1),
    ],
)
def test_weight_chunks_bit_identical_to_outer_products(max_state, n):
    rng = np.random.default_rng(max_state * 100 + n)
    pmf_matrix = rng.dirichlet(np.ones(max_state + 1), n)
    pmf_matrix[0, 0] = 0.0  # a zero-mass level
    # each chunk is a view that the next one overwrites: copy as yielded
    got = [(lo, w.copy()) for lo, w in iter_weight_chunks(pmf_matrix)]
    want = list(outer_weight_chunks(pmf_matrix))
    assert [lo for lo, _ in got] == [lo for lo, _ in want]
    for (_, mine), (_, theirs) in zip(got, want):
        assert mine.dtype == theirs.dtype and mine.shape == theirs.shape
        assert mine.tobytes() == theirs.tobytes()
    assert sum(w.size for _, w in got) == (max_state + 1) ** n


@pytest.mark.parametrize("max_state, n", [(1, 18), (4, 8), (15, 5)])
def test_weight_chunks_share_the_generator_buffer(max_state, n):
    # every chunk is grown in the same buffer, allocated once per call
    pmf_matrix = np.full((n, max_state + 1), 1 / (max_state + 1))
    chunks = [w for _, w in iter_weight_chunks(pmf_matrix)]
    assert len(chunks) > 2
    assert all(np.shares_memory(a, b) for a, b in zip(chunks, chunks[1:]))


def test_vector_chunks_enumerate_in_order(monkeypatch):
    # 3^7 vectors in chunks of 2^8, the last one short
    monkeypatch.setattr(enumeration, "_CHUNK", 1 << 8)
    chunks = list(iter_vector_chunks(7, 2))
    assert [lo for lo, _ in chunks] == list(range(0, 3**7, 1 << 8))
    assert all(rows.dtype == np.int64 for _, rows in chunks)
    rows = np.concatenate([rows for _, rows in chunks])
    want = itertools.product(range(3), repeat=7)
    assert rows.tolist() == [list(x) for x in want]


def table_levels(expr, n, max_state):
    """The full level table, every node folding its children in order over
    broadcast component axes: the one-table path that the streamed levels
    replace, kept as their reference."""
    axes = [
        np.arange(max_state + 1, dtype=np.uint8).reshape((-1,) + (1,) * (n - 1 - i))
        for i in range(n)
    ]

    def grid(node):
        if isinstance(node, Component):
            return axes[node.index - 1]
        values = [grid(c) for c in node.children]
        if isinstance(node, KOutOfN):
            stacked = np.stack(np.broadcast_arrays(*values), axis=-1)
            pick = len(values) - node.k
            return np.partition(stacked, pick, axis=-1)[..., pick]
        op = np.minimum if isinstance(node, Series) else np.maximum
        return functools.reduce(op, values)

    return np.broadcast_to(grid(expr), (max_state + 1,) * n).reshape(-1)


def assert_streams_table(expr, n, max_state, seed):
    """The level slabs tile the table in order, each equal to its slice,
    and the exact distribution equals the table's per-weight-chunk
    ``np.bincount`` sums under ``==``."""
    table = table_levels(expr, n, max_state)
    end = 0
    for lo, slab in iter_level_slabs(expr, n, max_state):
        assert lo == end and slab.dtype == np.uint8
        assert np.array_equal(slab, table[lo : lo + slab.size])
        end = lo + slab.size
    assert end == table.size
    rng = np.random.default_rng(seed)
    dists = [random_pmf(rng, max_state) for _ in range(n)]
    acc = np.zeros(max_state + 1)
    for lo, mass in iter_weight_chunks(np.asarray(dists)):
        acc += np.bincount(table[lo : lo + mass.size], mass, max_state + 1)
    got = exact_system_distribution(expr, dists)
    assert got.pmf == tuple(acc.tolist())


# slabs of at most 2^10 vectors: shorter than 2^12-vector chunks, so a
# chunk spans several and most chunk edges fall inside one; or longer than
# 2^8-vector chunks, so one chunk copies a slab's tail and the next head.
# At M = 1 both line up. Wider components for fewer levels keep every
# space at 2^9..6^6 vectors.
@pytest.mark.parametrize("chunk", [1 << 12, 1 << 8])
@pytest.mark.parametrize("max_state, max_index", [(1, 12), (2, 8), (3, 6), (4, 5), (5, 4)])
def test_level_slabs_match_level_table(monkeypatch, chunk, max_state, max_index):
    monkeypatch.setattr(enumeration, "_CHUNK", chunk)
    monkeypatch.setattr(enumeration, "_SLAB", 1 << 10)
    rnd = random.Random(chunk + max_state)
    for case in range(12):
        expr = random_expr(rnd, max_depth=4, max_index=max_index)
        n = arity(expr) + case % 3
        assert_streams_table(expr, n, max_state, case)


# 3^8 and 5^6 vectors in slabs of 3^6 and 5^4: the table is filled slab by
# slab; 4 random trees per space and seed
@pytest.mark.parametrize("seed", [1 << 12, 1 << 8])
@pytest.mark.parametrize("n, max_state", [(8, 2), (6, 4)])
def test_level_table_fills_across_slabs(monkeypatch, seed, n, max_state):
    monkeypatch.setattr(enumeration, "_SLAB", 1 << 10)
    rnd = random.Random(seed + n)
    for _ in range(4):
        expr = random_expr(rnd, max_depth=4, max_index=n)
        table = level_table(expr, n, max_state)
        assert table.dtype == np.uint8
        want = [oracle_eval(expr, x) for x in oracle_space(n, max_state)]
        assert table.tolist() == want


@pytest.mark.parametrize(
    "text, n, max_state",
    [
        # one component, fixed on every slab or laid along one axis of it:
        # each slab is broadcast from a smaller shape
        ("c2", 7, 3),
        ("c7", 7, 3),
        # a series that reads only the fixed components
        ("series(c1, c2)", 7, 3),
    ],
)
def test_level_slabs_broadcast_small_slabs(monkeypatch, text, n, max_state):
    monkeypatch.setattr(enumeration, "_SLAB", 1 << 10)
    assert_streams_table(parse_expr(text), n, max_state, n)


@pytest.mark.parametrize(
    "text, n, max_state",
    [
        # the whole space is one slab
        ("series(c1, parallel(c2, c3), koon(2; c4, c5, c6))", 6, 4),
        # 5^9 vectors in slabs of 5^8, each six chunks and a part
        ("series(c1, parallel(c2, c3), koon(2; c4, c5, c6), c7, c8, c9)", 9, 4),
        ("parallel(series(c9, c2, koon(2; c3, c1, c5)), series(c1, c6, c7))", 9, 4),
        # 2^21 vectors in slabs of 2^20: every chunk edge is a slab edge
        ("koon(3; c21, series(c1, c20), parallel(c2, c3, c11), c4)", 21, 1),
    ],
)
def test_level_slabs_at_full_slab_size(text, n, max_state):
    assert_streams_table(parse_expr(text), n, max_state, n)


def test_trailing_subtree_evaluated_once_per_call(monkeypatch):
    # n = 10 at M = 4 runs in 25 slabs of 5^8 vectors, whose leading digits
    # are c1 and c2. The koon node reads only trailing components, so it is
    # hoisted: evaluated once per exact distribution, not once per slab
    # (the whole call took 116 ms, and 789 ms without hoisting, best of 3)
    expr = parse_expr("series(c1, c2, koon(3; c3, c4, c5, c6, c7, c8, c9, c10))")
    koon = expr.children[2]
    eval_grid = structure._eval_grid
    calls = []

    def counting(node, axes):
        calls.append(node is koon)
        return eval_grid(node, axes)

    # enumeration holds its own reference; the recursion goes through
    # the structure module's
    monkeypatch.setattr(structure, "_eval_grid", counting)
    monkeypatch.setattr(enumeration, "_eval_grid", counting)
    rng = np.random.default_rng(18)
    dists = [random_pmf(rng, 4) for _ in range(10)]
    exact_system_distribution(expr, dists)
    assert sum(calls) == 1
    assert len(calls) > 25  # every slab did go through the counter


def test_each_slab_evaluated_once(monkeypatch):
    # at M = 200 a slab of 201^2 vectors is shorter than a 2^16-vector
    # chunk, so each chunk spans two or three; each of the 201 slabs is still
    # evaluated once, and the hoisted series(c2, c3) once before them
    expr = parse_expr("parallel(c1, series(c2, c3))")
    eval_grid = enumeration._eval_grid
    calls = []

    def counting(node, axes):
        calls.append(node)
        return eval_grid(node, axes)

    monkeypatch.setattr(enumeration, "_eval_grid", counting)
    rng = np.random.default_rng(200)
    dists = [random_pmf(rng, 200) for _ in range(3)]
    got = exact_system_distribution(expr, dists)
    assert len(calls) == 1 + 201
    monkeypatch.undo()
    table = level_table(expr, 3, 200)
    acc = np.zeros(201)
    for lo, mass in iter_weight_chunks(np.asarray(dists)):
        acc += np.bincount(table[lo : lo + mass.size], mass, 201)
    assert got.pmf == tuple(acc.tolist())


def _count_calls(monkeypatch, original):
    """Wrap ``original`` in every mscs module that binds it; the returned
    list gets one entry per call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for info in pkgutil.iter_modules(mscs.__path__, "mscs."):
        if info.name == "mscs.__main__":
            continue  # importing it runs the command line
        module = importlib.import_module(info.name)
        if getattr(module, original.__name__, None) is original:
            monkeypatch.setattr(module, original.__name__, counted)
    return calls


_PASS_EXPR = parse_expr("parallel(series(c1, c3), koon(2; c1, c2, c3))")
_PASS_DISTS = [(0.2, 0.3, 0.5)] * 3
# three Monte-Carlo blocks, each a byte budget of 8-byte draws, 3 a trial
_PASS_SAMPLES = 3 * (probability._MC_BLOCK_BYTES // 24)

# (pass, guard calls, most arity checks): each exhaustive pass guards its
# space once, at its entry, and no helper below it checks either again;
# a coherence report checks arity in the image fill and in check_boundary
_PASSES = {
    "coherence_report": (lambda: coherence_report(_PASS_EXPR, 3, 2), 1, 2),
    "check_monotonicity": (lambda: check_monotonicity(_PASS_EXPR, 3, 2), 1, 1),
    "check_relevance": (lambda: check_relevance(_PASS_EXPR, 3, 2), 1, 1),
    "enumerate_ucv": (lambda: enumerate_ucv(_PASS_EXPR, 3, 2, 1), 1, 1),
    "level_table": (lambda: level_table(_PASS_EXPR, 3, 2), 1, 1),
    "exact_system_distribution": (
        lambda: exact_system_distribution(_PASS_EXPR, _PASS_DISTS), 1, 1
    ),
    "monte_carlo_cdf": (
        lambda: monte_carlo_cdf(_PASS_EXPR, _PASS_DISTS, 1, _PASS_SAMPLES, 7),
        0,
        1,
    ),
}


@pytest.mark.parametrize("name", list(_PASSES))
def test_each_pass_guards_and_checks_arity_once(monkeypatch, name):
    run, guards, most_covers = _PASSES[name]
    guard_calls = _count_calls(monkeypatch, enumeration.ensure_enumerable)
    cover_calls = _count_calls(monkeypatch, structure._check_covers)
    run()
    assert len(guard_calls) == guards
    assert 1 <= len(cover_calls) <= most_covers
