"""Shared brute-force oracles and random generators.

The oracles here deliberately avoid the package's vectorized enumeration
and dynamic-programming paths: they evaluate expressions by their own
recursion, walk state spaces with itertools, and sum probabilities in
exact rational arithmetic, so they can confirm the fast implementations
independently.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import numpy as np

from mscs.pipeline import state1_performance
from mscs.structure import Component, KOutOfN, Parallel, Series


def oracle_eval(expr, x):
    """Definitional expression evaluation: min/max/sorted recursion."""
    if isinstance(expr, Component):
        return x[expr.index - 1]
    values = [oracle_eval(c, x) for c in expr.children]
    if isinstance(expr, Series):
        return min(values)
    if isinstance(expr, Parallel):
        return max(values)
    if isinstance(expr, KOutOfN):
        return sorted(values)[len(values) - expr.k]
    raise TypeError(expr)


def oracle_space(n, max_state):
    return itertools.product(range(max_state + 1), repeat=n)


def oracle_distribution(expr, pmfs):
    """Exact system PMF/CDF by full enumeration in rational arithmetic."""
    n = len(pmfs)
    max_state = len(pmfs[0]) - 1
    exact = [[Fraction(p) for p in pmf] for pmf in pmfs]
    masses = [Fraction(0)] * (max_state + 1)
    for vec in oracle_space(n, max_state):
        weight = Fraction(1)
        for i, v in enumerate(vec):
            weight *= exact[i][v]
        masses[oracle_eval(expr, vec)] += weight
    pmf = [float(m) for m in masses]
    running = Fraction(0)
    cdf = []
    for m in masses:
        running += m
        cdf.append(float(running))
    return pmf, cdf


def oracle_first_monotone_violation(fn, n, max_state):
    """First violating (x, y) pair in nested lexicographic order, or None."""
    space = list(oracle_space(n, max_state))
    for x in space:
        vx = fn(x)
        for y in space:
            if all(a <= b for a, b in zip(x, y)) and vx > fn(y):
                return x, y
    return None


def oracle_least_context(fn, n, max_state, comp, level):
    """Definitional relevance of one (component, level): the least context
    that makes that level appear at that substitution only (with the
    component's own entry 0), or None when no context does."""
    i = comp - 1
    for ctx in oracle_space(n, max_state):
        values = [
            fn(ctx[:i] + (sub,) + ctx[i + 1 :]) for sub in range(max_state + 1)
        ]
        if values[level] == level and all(
            v != level for s, v in enumerate(values) if s != level
        ):
            return ctx
    return None


def oracle_is_ucv(fn, x, level):
    """Definitional upper-critical test over the down-set of x."""
    if fn(x) != level:
        return False
    for y in itertools.product(*(range(v + 1) for v in x)):
        if y != tuple(x) and fn(y) >= level:
            return False
    return True


def oracle_ucv_set(fn, n, max_state, level):
    return [
        vec
        for vec in oracle_space(n, max_state)
        if oracle_is_ucv(fn, vec, level)
    ]


def random_expr(rnd: random.Random, max_depth: int, max_index: int):
    """Random expression tree; components drawn from 1..max_index."""
    if max_depth <= 1 or rnd.random() < 0.3:
        return Component(rnd.randint(1, max_index))
    node = rnd.choice(["series", "parallel", "koon"])
    if node == "koon":
        width = rnd.randint(1, 4)
        children = tuple(
            random_expr(rnd, max_depth - 1, max_index) for _ in range(width)
        )
        return KOutOfN(rnd.randint(1, width), children)
    width = rnd.randint(2, 4)
    children = tuple(
        random_expr(rnd, max_depth - 1, max_index) for _ in range(width)
    )
    return Series(children) if node == "series" else Parallel(children)


def random_read_once_expr(rnd: random.Random, indices):
    """Random tree referencing each of ``indices`` exactly once; series,
    parallel and koon nodes cut the indices into consecutive groups."""
    if len(indices) == 1:
        return Component(indices[0])
    node = rnd.choice(["series", "parallel", "koon"])
    width = rnd.randint(2, min(4, len(indices)))
    cuts = sorted(rnd.sample(range(1, len(indices)), width - 1))
    bounds = list(zip([0, *cuts], [*cuts, len(indices)]))
    children = tuple(
        random_read_once_expr(rnd, indices[lo:hi]) for lo, hi in bounds
    )
    if node == "koon":
        return KOutOfN(rnd.randint(1, width), children)
    return Series(children) if node == "series" else Parallel(children)


# a valid PMF whose math.fsum is 1 + 2**-52: its top CDF, and products of
# it, used to print above 1
ABOVE_ONE = (0.2515161023923991, 0.025890448614934964, 0.7225934489926661)


def random_pmf(rng, max_state):
    """Uniformly random PMF over 0..max_state (numpy Generator)."""
    raw = rng.random(max_state + 1)
    return tuple(float(p) for p in raw / raw.sum())


def oracle_sweep_columns(spec, trials, seed):
    """The columns of ``sweep_state1(spec, trials, seed).columns()`` drawn
    all at once: trial-major pairs of ``PCG64(seed)`` doubles, clamped to
    the smallest positive normal, and the scalar state-1 form per row."""
    held = [seg.distribution.pmf[1] for seg in spec.segments[2:]]
    draws = np.random.Generator(np.random.PCG64(seed)).random((trials, 2))
    p_1_1, p_2_1 = np.maximum(draws, np.finfo(np.float64).tiny).T.tolist()
    performance = [state1_performance(a, b, held) for a, b in zip(p_1_1, p_2_1)]
    return range(1, trials + 1), p_1_1, p_2_1, performance


def nested_chain(depth, op="series", read_once=False):
    """``depth`` operators nested down one spine: ``series(c1, series(c1,
    ... c2))``, or with components 1..depth+1 when ``read_once``."""
    heads = (
        f"{'koon(1; ' if op == 'koon' else op + '('}c{i if read_once else 1}, "
        for i in range(1, depth + 1)
    )
    return "".join(heads) + f"c{depth + 1 if read_once else 2}" + ")" * depth


#: Spec files that the JSON layer cannot turn into numbers.
UNDECODABLE_SPECS = {
    "not_utf8": b'\xff\xfe{"max_state": 1}',
    "float_overflow": b'{"max_state": 1, "segments": [{"name": "s1", "pmf": [1'
    + b"0" * 400
    + b", 0]}]}",
    "digit_limit": b'{"max_state": 1, "segments": [{"name": "s1", "pmf": [1'
    + b"0" * 5000
    + b", 0]}]}",
    "too_deep": b"[" * 100_000,
}
