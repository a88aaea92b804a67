"""Peak-allocation regressions, measured with ``tracemalloc`` (numpy
reports its buffers to it).

Each exhaustive pass over ``{0..4}^8`` (390,625 vectors) must stay within
8 bytes per vector; a single full-space int64 or float64 intermediate
alone would exceed that. Expression trees check coherence and enumerate
upper critical vectors on their binary image of 2^8 vectors, so those two
passes must stay within 0.25 bytes per vector of the full space; the
full-space kernels took 3.0 and 5.0. The state-1 sweep must stay within 28 bytes per
trial. It returns its recipe (seed, trial count, held product) and draws
nothing, so it peaks at a few hundred bytes in all; holding its columns
took 24.3 bytes per trial, and full-size temporaries 32.

A callable is called once per vector into an int64 table (8 bytes per
vector), so its passes must stay within 20 bytes per vector:
``coherence_report`` peaks at 17.0 (the table, a copy of it for the
monotonicity pass and one boolean byte) and ``enumerate_ucv`` at 12.0
(the table and a few boolean bytes). Filling the table through digit
chunks and one Python list per chunk peaked at 61.7 for both. The
callable is the builtin ``min`` (a series system), which allocates
nothing per call: ``tracemalloc`` would otherwise record every frame a
Python callable allocates, which leaves the peak unchanged but makes
each case take ~15 s instead of ~1 s.

A tree's binary image is filled from the exact distribution's level
slabs of at most 2^20 vectors, so ``coherence_report`` on
``koon(11; c1..c22)`` (2^22 entries) must stay within 24 bytes per entry:
the image, the pass's own masks and one slab's children x slab stack,
17.5 in all. Evaluating the whole image at once held 22 copies of it
for the koon node and peaked at 44.0.

A tree is monotone by construction, so ``check_monotonicity`` on one runs
the guard and the arity check and builds no table: on a 20-component
series it must peak below 64 KiB, where the binary image alone is 1 MiB.
It peaks at about 1 KB.

``coherence_report`` on a tree takes its monotonicity from the same
rule, and searches only the image for relevance: on a 20-component
series at M = 1, and on ``parallel(series(c1, c2), series(c3..c20))``,
it must stay within 2.5 bytes per image entry. It peaks at 2.04 (the
image and the relevance pass's half-size masks). Searching the image for
a monotonicity violation as well took a copy of it and another mask,
3.01.

The exact distribution streams its levels in the chunks of its weights,
cut from slabs of at most 2^20 vectors, so its peak does not grow with
the space: at ``{0..4}^10`` (9,765,625 vectors) it must stay within 4 MB,
and it peaks at about 2.1 MB. Building the full level table first peaked
at 11.7 MB there, and at about 4.5 bytes per vector over ``{0..4}^8``.

Monte-Carlo must stay within 20 bytes per draw (one uniform per component
per trial) over one 65,536-trial chunk of the benchmark's 10-component
read-once tree: the draws take 8, and the tree is evaluated on one byte
per draw, which peaks at 10.0. Building int64 state vectors and
evaluating the multistate tree on them peaked at 21.6. Three chunks stay
within the same 20 bytes per draw of one chunk, at 11.1: every chunk is
drawn into one buffer. A fresh array per chunk kept two chunks' draws
alive at once and peaked at 17.1.

The CSV export and the ``--json`` document of a 1e5-trial sweep must
each peak at no more than 12 MB. Both render a fixed block of rows at a
time, so their peaks do not grow with the trial count: 2.2 and 2.9 MB
with 4,096-row blocks. Formatting 65,536-row blocks through a tuple of
Python objects per field peaked at 19.2 MB, and the JSON document built
as one string through a ``%r`` template at 37.6 MB. Each block's rows
are drawn from the seed into one reused buffer just before they are
rendered, so a 1e6-trial sweep, drawn and written in one call, must stay
within 4 MB in either format; holding its columns took about 24 MB.
"""

import os
import tracemalloc

import numpy as np
import pytest

from conftest import random_pmf
from mscs.coherence import check_monotonicity, coherence_report, enumerate_ucv
from mscs.pipeline import (
    _write_sweep_json,
    export_results,
    load_case_study,
    sweep_state1,
)
from mscs.probability import exact_system_distribution, monte_carlo_cdf
from mscs.structure import component, k_out_of_n, parallel, parse_expr, series

N, MAX_STATE = 8, 4
VECTORS = (MAX_STATE + 1) ** N
BYTES_PER_VECTOR = 8
TREE_BYTES_PER_VECTOR = 0.25
EXPR = parse_expr("series(c1, parallel(c2, c3), koon(2; c4, c5, c6), c7, c8)")
_RNG = np.random.default_rng(5)
DISTS = [random_pmf(_RNG, MAX_STATE) for _ in range(N)]

PASSES = {
    "coherence_report": lambda: coherence_report(EXPR, N, MAX_STATE),
    "enumerate_ucv": lambda: enumerate_ucv(EXPR, N, MAX_STATE, 2),
    "exact_system_distribution": lambda: exact_system_distribution(EXPR, DISTS),
}

TREE_PASSES = ("coherence_report", "enumerate_ucv")

CALLABLE = min
CALLABLE_PASSES = {
    "coherence_report": lambda: coherence_report(CALLABLE, N, MAX_STATE),
    "enumerate_ucv": lambda: enumerate_ucv(CALLABLE, N, MAX_STATE, 2),
}
CALLABLE_BYTES_PER_VECTOR = 20

MONOTONICITY_PEAK_BYTES = 64 * 1024

WIDE_N = 20
_WIDE = [component(i) for i in range(1, WIDE_N + 1)]
WIDE_TREES = {
    "series": series(*_WIDE),
    "parallel_of_series": parallel(series(*_WIDE[:2]), series(*_WIDE[2:])),
}
TREE_REPORT_BYTES_PER_ENTRY = 2.5

WIDE_KOON_N = 22
WIDE_KOON = k_out_of_n(11, *(component(i) for i in range(1, WIDE_KOON_N + 1)))
WIDE_KOON_BYTES_PER_ENTRY = 24

MC_TREE = parse_expr(
    "series(c1, parallel(c2, c3), koon(2; c4, c5, c6), c7, c8, c9, c10)"
)
MC_SAMPLES = 1 << 16
MC_BYTES_PER_DRAW = 20

EXACT_PEAK_BYTES = 4 * 10**6

SWEEP_TRIALS = 10**5
SWEEP_BYTES_PER_TRIAL = 28
SWEEP_EXPORT_PEAK_BYTES = 12 * 10**6
STREAMED_SWEEP_TRIALS = 10**6
STREAMED_SWEEP_PEAK_BYTES = 4 * 10**6


def peak_bytes(call):
    call()  # warm caches outside the measurement
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("name", sorted(PASSES))
def test_exhaustive_pass_peak_bytes_per_vector(name):
    peak = peak_bytes(PASSES[name])
    assert peak / VECTORS <= BYTES_PER_VECTOR, f"{peak / VECTORS:.2f} B/vector"


@pytest.mark.parametrize("name", TREE_PASSES)
def test_tree_coherence_peak_bytes_per_vector(name):
    peak = peak_bytes(PASSES[name])
    per_vector = peak / VECTORS
    assert per_vector <= TREE_BYTES_PER_VECTOR, f"{per_vector:.3f} B/vector"


@pytest.mark.parametrize("name", sorted(CALLABLE_PASSES))
def test_callable_pass_peak_bytes_per_vector(name):
    peak = peak_bytes(CALLABLE_PASSES[name])
    per_vector = peak / VECTORS
    assert per_vector <= CALLABLE_BYTES_PER_VECTOR, f"{per_vector:.1f} B/vector"


def test_tree_monotonicity_builds_no_table():
    expr = series(*(component(i) for i in range(1, 21)))
    peak = peak_bytes(lambda: check_monotonicity(expr, 20, 1))
    assert peak <= MONOTONICITY_PEAK_BYTES, f"{peak} B"


@pytest.mark.parametrize("name", WIDE_TREES)
def test_tree_coherence_report_peak_bytes_per_entry(name):
    expr = WIDE_TREES[name]
    peak = peak_bytes(lambda: coherence_report(expr, WIDE_N, 1))
    per_entry = peak / 2**WIDE_N
    assert per_entry <= TREE_REPORT_BYTES_PER_ENTRY, f"{per_entry:.2f} B/entry"


def test_wide_koon_coherence_peak_bytes_per_entry():
    peak = peak_bytes(lambda: coherence_report(WIDE_KOON, WIDE_KOON_N, 1))
    per_entry = peak / 2**WIDE_KOON_N
    assert per_entry <= WIDE_KOON_BYTES_PER_ENTRY, f"{per_entry:.1f} B/entry"


def test_monte_carlo_peak_bytes_per_draw():
    dists = load_case_study("default").distributions
    peak = peak_bytes(lambda: monte_carlo_cdf(MC_TREE, dists, 2, MC_SAMPLES, 7))
    per_draw = peak / (MC_SAMPLES * len(dists))
    assert per_draw <= MC_BYTES_PER_DRAW, f"{per_draw:.1f} B/draw"


def test_monte_carlo_peak_flat_in_chunks():
    # three chunks, bounded per draw of one chunk: the draws go into one
    # buffer, so no chunk's draws are alive next to the previous ones
    dists = load_case_study("default").distributions
    samples = 3 * MC_SAMPLES
    peak = peak_bytes(lambda: monte_carlo_cdf(MC_TREE, dists, 2, samples, 7))
    per_draw = peak / (MC_SAMPLES * len(dists))
    assert per_draw <= MC_BYTES_PER_DRAW, f"{per_draw:.1f} B/draw"


def test_exact_peak_flat_in_space_size():
    n, max_state = 10, 4
    rng = np.random.default_rng(10)
    dists = [random_pmf(rng, max_state) for _ in range(n)]
    peak = peak_bytes(lambda: exact_system_distribution(MC_TREE, dists))
    assert peak <= EXACT_PEAK_BYTES, f"{peak / 1e6:.1f} MB"


def test_sweep_peak_bytes_per_trial():
    spec = load_case_study("above_average")
    peak = peak_bytes(lambda: sweep_state1(spec, SWEEP_TRIALS, 7))
    per_trial = peak / SWEEP_TRIALS
    assert per_trial <= SWEEP_BYTES_PER_TRIAL, f"{per_trial:.1f} B/trial"


def test_sweep_export_peak_bytes(tmp_path):
    result = sweep_state1(load_case_study("above_average"), SWEEP_TRIALS, 7)
    peak = peak_bytes(lambda: export_results(result, tmp_path / "sweep.csv"))
    assert peak <= SWEEP_EXPORT_PEAK_BYTES, f"{peak / 1e6:.1f} MB"


def test_sweep_json_peak_bytes():
    result = sweep_state1(load_case_study("above_average"), SWEEP_TRIALS, 7)

    def write():
        with open(os.devnull, "w") as sink:
            _write_sweep_json(result, sink)

    peak = peak_bytes(write)
    assert peak <= SWEEP_EXPORT_PEAK_BYTES, f"{peak / 1e6:.1f} MB"


def _export_csv(spec, trials, path):
    export_results(sweep_state1(spec, trials, 7), path)


def _write_json(spec, trials, path):
    with open(os.devnull, "w") as sink:
        _write_sweep_json(sweep_state1(spec, trials, 7), sink)


@pytest.mark.parametrize("write", [_export_csv, _write_json], ids=["csv", "json"])
def test_streamed_sweep_peak_flat_in_trials(write, tmp_path):
    spec = load_case_study("above_average")
    path = tmp_path / "sweep.csv"
    peak = peak_bytes(lambda: write(spec, STREAMED_SWEEP_TRIALS, path))
    assert peak <= STREAMED_SWEEP_PEAK_BYTES, f"{peak / 1e6:.1f} MB"
