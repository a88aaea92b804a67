import numpy as np
import pytest

from mscs.enumeration import _CHUNK, _digit_matrix, iter_weight_chunks


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
# chunk edge falls inside a block of whole trailing axes
@pytest.mark.parametrize(
    "max_state, n",
    [(1, 17), (2, 11), (3, 9), (4, 8), (9, 5), (15, 4), (255, 2)],
)
def test_weight_chunks_bit_identical_to_outer_products(max_state, n):
    rng = np.random.default_rng(max_state * 100 + n)
    pmf_matrix = rng.dirichlet(np.ones(max_state + 1), n)
    pmf_matrix[0, 0] = 0.0  # a zero-mass level
    got = list(iter_weight_chunks(pmf_matrix))
    want = list(outer_weight_chunks(pmf_matrix))
    assert [lo for lo, _ in got] == [lo for lo, _ in want]
    for (_, mine), (_, theirs) in zip(got, want):
        assert mine.dtype == theirs.dtype and mine.shape == theirs.shape
        assert mine.tobytes() == theirs.tobytes()
    assert sum(w.size for _, w in got) == (max_state + 1) ** n
