"""Independent references the benchmark checks mscs outputs against.

Structures are the benchmark's own nested tuples, never mscs objects:

    ("c", i)                    component i (1-based)
    ("series", kids)            minimum of the children
    ("parallel", kids)          maximum of the children
    ("koon", k, kids)           k-th largest child

The system CDF comes from a bottom-up recursion over the tree under
independence: series is one minus the product of child survivals, parallel
the product of child CDFs, and koon "fewer than k children exceed j", a
Poisson-binomial count. Components referenced more than once are
conditioned on (pivotal decomposition), which leaves a read-once tree.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter


def c(i):
    return ("c", i)


def series(*kids):
    return ("series", kids)


def parallel(*kids):
    return ("parallel", kids)


def koon(k, *kids):
    return ("koon", k, kids)


def render(tree) -> str:
    """DSL text accepted by ``mscs.parse_expr``."""
    if tree[0] == "c":
        return f"c{tree[1]}"
    kids = ", ".join(render(k) for k in tree[-1])
    if tree[0] == "koon":
        return f"koon({tree[1]}; {kids})"
    return f"{tree[0]}({kids})"


def relabel(tree, perm):
    """Rename component i to ``perm[i - 1]``."""
    if tree[0] == "c":
        return ("c", int(perm[tree[1] - 1]))
    kids = tuple(relabel(k, perm) for k in tree[-1])
    return tree[:-1] + (kids,)


def labels(tree) -> Counter:
    if tree[0] == "c":
        return Counter([tree[1]])
    total = Counter()
    for k in tree[-1]:
        total += labels(k)
    return total


def _cdf(tree, cdfs):
    if tree[0] == "c":
        return cdfs[tree[1]]
    kids = [_cdf(k, cdfs) for k in tree[-1]]
    levels = range(len(kids[0]))
    if tree[0] == "series":
        return [1.0 - math.prod(1.0 - f[j] for f in kids) for j in levels]
    if tree[0] == "parallel":
        return [math.prod(f[j] for f in kids) for j in levels]
    k = tree[1]
    out = []
    for j in levels:
        count = [1.0]  # distribution of the number of children above j
        for f in kids:
            above = 1.0 - f[j]
            nxt = [0.0] * (len(count) + 1)
            for m, p in enumerate(count):
                nxt[m] += p * f[j]
                nxt[m + 1] += p * above
            count = nxt
        out.append(math.fsum(count[:k]))
    return out


def system_cdf(tree, pmfs) -> list[float]:
    """P(system <= j) for every level j; ``pmfs[i - 1]`` is component i's
    PMF. Components referenced more than once are conditioned on."""
    cdfs = {
        i: [math.fsum(p[: j + 1]) for j in range(len(p))]
        for i, p in enumerate(pmfs, start=1)
    }
    shared = sorted(i for i, n in labels(tree).items() if n > 1)
    top = len(pmfs[0])
    total = [0.0] * top
    for states in itertools.product(range(top), repeat=len(shared)):
        weight = math.prod(pmfs[i - 1][s] for i, s in zip(shared, states))
        fixed = dict(cdfs)
        for i, s in zip(shared, states):
            fixed[i] = [1.0 if s <= j else 0.0 for j in range(top)]
        for j, v in enumerate(_cdf(tree, fixed)):
            total[j] += weight * v
    return total


def series_cdf(pmfs, level: int) -> float:
    """Series closed form at one level, used for the pipeline specs."""
    return 1.0 - math.prod(1.0 - math.fsum(p[: level + 1]) for p in pmfs)


def max_gap(dist, expected_cdf) -> float:
    """Largest absolute gap between a system distribution (its ``pmf`` and
    ``cdf``) and a reference CDF."""
    want_pmf = [expected_cdf[0]] + [
        b - a for a, b in zip(expected_cdf, expected_cdf[1:])
    ]
    if len(dist.cdf) != len(expected_cdf):
        return math.inf
    return max(
        max(abs(a - b) for a, b in zip(dist.cdf, expected_cdf)),
        max(abs(a - b) for a, b in zip(dist.pmf, want_pmf)),
    )
