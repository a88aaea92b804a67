import itertools
import math
import random
import re
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ABOVE_ONE,
    oracle_distribution,
    random_expr,
    random_pmf,
    random_read_once_expr,
)
from mscs.coherence import composition_comparison, redundancy_comparison
from mscs.errors import (
    ArityMismatchError,
    HypothesisViolatedError,
    InvalidPMFError,
    LengthMismatchError,
    LevelOutOfRangeError,
    PreconditionViolatedError,
)
from mscs.probability import (
    _MC_BLOCK_BYTES,
    _MC_BLOCK_MIN_TRIALS,
    ORACLE_TOLERANCE,
    ComponentDistribution,
    SystemDistribution,
    cdf_bounds,
    closed_form_cdf,
    closed_form_distribution,
    component_cdf,
    dominance_check,
    exact_system_distribution,
    monte_carlo_cdf,
    validate_pmf,
)
from mscs.structure import (
    Component,
    KOutOfN,
    arity,
    component,
    eval_expr_batch,
    format_expr,
    k_out_of_n,
    parallel,
    parse_expr,
    series,
)

c1, c2 = Component(1), Component(2)
FAIR = ComponentDistribution((0.5, 0.5))


def test_component_cdf():
    d = ComponentDistribution((0.2, 0.3, 0.5))
    assert component_cdf(d, 1) == pytest.approx(0.5, abs=1e-15)
    assert component_cdf(d, 2) == 1.0
    assert component_cdf((1.0, 0.0, 0.0), 0) == 1.0
    with pytest.raises(LevelOutOfRangeError):
        component_cdf(d, 3)


def test_cdfs_never_exceed_one():
    assert math.fsum(ABOVE_ONE) > 1.0 and validate_pmf(ABOVE_ONE) is None
    assert component_cdf(ABOVE_ONE, 2) == 1.0
    # below the top level the sum is capped: here the top level has no mass
    assert component_cdf((*ABOVE_ONE, 0.0), 2) == 1.0
    assert cdf_bounds("series", [ABOVE_ONE] * 2, 2) == (1.0, 1.0)
    assert closed_form_cdf("parallel", [ABOVE_ONE] * 2, 2) == 1.0
    pair = closed_form_distribution(parallel(c1, c2), [ABOVE_ONE] * 2)
    assert pair.cdf[-1] == 1.0
    # the Poisson-binomial sum of this koon node rounds to 1 + 2**-52
    values = (0.9990965292656508, 0.9898507183437331, 0.9996281037910695,
              0.9992000486480251, 0.9998685478002595, 0.9994147874663805)
    koon = k_out_of_n(6, *(component(i) for i in range(1, 7)))
    got = closed_form_distribution(koon, [(v, 1.0 - v) for v in values])
    assert got.cdf == (1.0, 1.0)
    # no draw reaches the top level's CDF, so nothing exceeds that level
    est = monte_carlo_cdf(parallel(c1, c2), [ABOVE_ONE] * 2, 2, 100, 0)
    assert est.estimate == 1.0


@pytest.mark.parametrize(
    "pmf, level",
    [((0.7, 0.7), 1), ((2.0, -1.0), 0), ((0.5, math.nan), 0)],
    ids=["mass_1.4", "negative_mass", "nan"],
)
def test_component_cdf_refuses_an_invalid_pmf(pmf, level):
    with pytest.raises(InvalidPMFError):
        component_cdf(pmf, level)


def test_validate_pmf():
    assert validate_pmf((0.2, 0.3, 0.5)) is None
    diag = validate_pmf((0.5, 0.6))
    assert diag.kind == "normalization"
    assert diag.residual == pytest.approx(0.1, abs=1e-12)
    assert validate_pmf((-0.1, 1.1)).kind == "negative_mass"
    assert validate_pmf((0.0, 1.1)).kind == "mass_above_one"
    for pmf in ((math.nan, 1.0), (1.0, math.nan), (math.inf, 0.0), (-math.inf, 1.0)):
        assert validate_pmf(pmf).kind == "non_finite"
    with pytest.raises(InvalidPMFError):
        ComponentDistribution(())


def test_distributions_are_valid_once_built():
    for pmf in ((0.7, 0.7), (math.nan, 1.0)):
        message = re.escape(validate_pmf(pmf).message)
        with pytest.raises(InvalidPMFError, match=message):
            ComponentDistribution(pmf)
    with pytest.raises(InvalidPMFError, match="sums to 1.1"):
        SystemDistribution((0.5, 0.6), (0.5, 1.1))
    with pytest.raises(InvalidPMFError, match="length"):
        SystemDistribution((0.5, 0.5), (0.5,))
    assert validate_pmf(ComponentDistribution((0.5, 0.5))) is None


def oracle_diagnosis(pmf):
    """``(kind, residual)`` of the first clause ``pmf`` violates, or None."""
    for kind, faulty in (
        ("non_finite", lambda p: p != p or abs(p) == math.inf),
        ("negative_mass", lambda p: p < 0.0),
        ("mass_above_one", lambda p: p > 1.0),
    ):
        if any(map(faulty, pmf)):
            return kind, None
    residual = math.fsum(pmf) - 1.0
    return ("normalization", residual) if abs(residual) > 1e-9 else None


@st.composite
def near_normalized(draw):
    """A nonnegative pmf whose math.fsum is 1, 1 + 1e-9 or 1 - 1e-9, moved
    a few ulps either way by its last entry."""
    weights = draw(st.lists(st.integers(1, 1000), min_size=1, max_size=5))
    target = draw(st.sampled_from([1.0, 1.0 + 1e-9, 1.0 - 1e-9]))
    pmf = [target * w / sum(weights) for w in weights]
    steps = draw(st.integers(-4, 4))
    for _ in range(abs(steps)):
        pmf[-1] = math.nextafter(pmf[-1], 2.0 if steps > 0 else 0.0)
    return tuple(pmf)


RAW_PMFS = st.one_of(
    st.lists(
        st.one_of(
            st.floats(-0.5, 1.5),
            st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1.0]),
            st.floats(allow_nan=True, allow_infinity=True),
        ),
        min_size=1,
        max_size=5,
    ).map(tuple),
    near_normalized(),
    st.just(ABOVE_ONE),
)


@settings(max_examples=300)
@given(RAW_PMFS)
def test_component_distribution_refuses_what_validate_pmf_diagnoses(pmf):
    diagnostic = validate_pmf(pmf)
    expected = oracle_diagnosis(pmf)
    assert (diagnostic and diagnostic.kind) == (expected and expected[0])
    if expected and expected[1] is not None:
        assert diagnostic.residual == expected[1]
    if diagnostic is None:
        assert ComponentDistribution(pmf).pmf == pmf
    else:
        with pytest.raises(InvalidPMFError) as refused:
            ComponentDistribution(pmf)
        assert str(refused.value) == diagnostic.message


def refused(build):
    try:
        build()
    except InvalidPMFError:
        return True
    return False


@settings(max_examples=300)
@given(st.one_of(RAW_PMFS, st.just(())))
def test_system_distribution_refuses_what_from_pmf_refuses(pmf):
    cdf = tuple(accumulate(pmf))
    # the rule: nonempty, no negative mass, the running sum 1 within 1e-9
    negative = any(p < 0.0 for p in pmf)
    invalid = not pmf or negative or not abs(cdf[-1] - 1.0) <= 1e-9
    assert refused(lambda: SystemDistribution.from_pmf(pmf)) == invalid
    assert refused(lambda: SystemDistribution(pmf, cdf)) == invalid
    if pmf:
        assert refused(lambda: SystemDistribution(pmf, cdf[:-1]))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 7), st.integers(1, 4), st.randoms(), st.booleans())
def test_closed_form_builds_on_random_read_once_trees(n, max_state, rnd, above_one):
    expr = random_read_once_expr(rnd, list(range(1, n + 1)))
    rng = np.random.default_rng(rnd.getrandbits(32))
    dists = [random_pmf(rng, max_state) for _ in range(n)]
    if above_one and max_state == 2:  # math.fsum 1 + 2**-52 everywhere
        dists = [ABOVE_ONE] * n
    got = closed_form_distribution(expr, dists)
    assert len(got.pmf) == len(got.cdf) == max_state + 1


@given(st.lists(st.floats(0.01, 1.0, allow_nan=False), min_size=1, max_size=6))
def test_normalized_pmf_validates_and_cdf_monotone(raw):
    total = math.fsum(raw)
    d = ComponentDistribution(tuple(p / total for p in raw))
    assert validate_pmf(d) is None
    values = [component_cdf(d, j) for j in range(d.max_state + 1)]
    assert values == sorted(values)
    assert values[-1] == pytest.approx(1.0, abs=1e-9)


def test_system_distribution_accumulates():
    sd = SystemDistribution.from_pmf((0.25, 0.5, 0.25))
    assert sd.cdf == (0.25, 0.75, 1.0)
    assert sd.max_state == 2
    with pytest.raises(InvalidPMFError):
        SystemDistribution.from_pmf((0.5, 0.4))
    with pytest.raises(InvalidPMFError):
        SystemDistribution.from_pmf((-0.1, 1.1))
    with pytest.raises(InvalidPMFError):
        SystemDistribution.from_pmf([])
    for pmf in ([math.nan], [math.nan, 1.0]):
        with pytest.raises(InvalidPMFError):
            SystemDistribution.from_pmf(pmf)
    assert sd.cdf_at(1) == 0.75
    for level in (-1, 3):
        with pytest.raises(LevelOutOfRangeError):
            sd.cdf_at(level)


def test_exact_examples():
    sd = exact_system_distribution(series(c1, c2), [FAIR, FAIR])
    assert sd.pmf == pytest.approx((0.75, 0.25), abs=1e-15)
    pd = exact_system_distribution(parallel(c1, c2), [FAIR, FAIR])
    assert pd.pmf == pytest.approx((0.25, 0.75), abs=1e-15)
    d = ComponentDistribution((0.2, 0.3, 0.5))
    ident = exact_system_distribution(c1, [d])
    assert ident.pmf == pytest.approx(d.pmf, abs=1e-15)


def test_exact_validation():
    with pytest.raises(ArityMismatchError):
        exact_system_distribution(series(c1, c2), [FAIR])
    with pytest.raises(LengthMismatchError):
        exact_system_distribution(
            series(c1, c2), [FAIR, ComponentDistribution((0.2, 0.3, 0.5))]
        )
    with pytest.raises(InvalidPMFError):
        exact_system_distribution(c1, [ComponentDistribution((0.5, 0.6))])
    with pytest.raises(TypeError):
        exact_system_distribution("c1", [FAIR])


def test_one_level_family_refused_by_every_analysis():
    # M >= 1 for every analysis; only the enumerator stops at 255
    one = [ComponentDistribution((1.0,))]
    for call in (
        lambda: exact_system_distribution(c1, one),
        lambda: closed_form_distribution(c1, one),
        lambda: monte_carlo_cdf(c1, one, 0, 10, 0),
        lambda: closed_form_cdf("series", one, 0),
        lambda: cdf_bounds("parallel", one, 0),
        lambda: dominance_check(c1, one, one),
    ):
        with pytest.raises(LevelOutOfRangeError) as err:
            call()
        assert str(err.value) == "max_state must be in 1..255, got 0"
    wide = [ComponentDistribution((0.0,) * 300 + (1.0,))]
    assert closed_form_distribution(c1, wide).cdf[299:] == (0.0, 1.0)
    assert cdf_bounds("series", wide, 300) == (1.0, 1.0)
    with pytest.raises(LevelOutOfRangeError):
        exact_system_distribution(c1, wide)


def test_exact_handles_zero_mass_levels():
    from conftest import oracle_distribution
    from mscs.structure import KOutOfN

    expr = series(
        c1, KOutOfN(2, (Component(2), Component(3), Component(1)))
    )
    pmfs = [(0.0, 1.0, 0.0), (0.5, 0.0, 0.5), (0.25, 0.25, 0.5)]
    want_pmf, _ = oracle_distribution(expr, pmfs)
    got = exact_system_distribution(expr, pmfs)
    assert got.pmf == pytest.approx(want_pmf, abs=1e-15)


def test_exact_matches_rational_oracle():
    rnd = random.Random(555)
    rng = np.random.default_rng(555)
    for _ in range(25):
        expr = random_expr(rnd, max_depth=3, max_index=3)
        n = arity(expr)
        max_state = rnd.randint(1, 3)
        pmfs = [random_pmf(rng, max_state) for _ in range(n)]
        want_pmf, want_cdf = oracle_distribution(expr, pmfs)
        got = exact_system_distribution(expr, pmfs)
        assert got.pmf == pytest.approx(want_pmf, abs=1e-13)
        assert got.cdf == pytest.approx(want_cdf, abs=1e-13)


def test_closed_form_examples():
    ten = [ComponentDistribution((0.0, 0.1, 0.2, 0.3, 0.4))] * 10
    assert closed_form_cdf("series", ten, 1) == pytest.approx(
        1 - 0.9**10, abs=1e-12
    )
    assert closed_form_cdf("parallel", [FAIR, FAIR], 1 - 1) == pytest.approx(
        0.25, abs=1e-15
    )
    single = ComponentDistribution((0.2, 0.3, 0.5))
    for level in range(3):
        assert closed_form_cdf("series", [single], level) == pytest.approx(
            component_cdf(single, level), abs=1e-15
        )


def test_closed_form_agrees_with_enumerator():
    # six-component variant of the identical-0.1 instance, then random ones
    six = [ComponentDistribution((0.0, 0.1, 0.2, 0.3, 0.4))] * 6
    comps = tuple(Component(i) for i in range(1, 7))
    exact = exact_system_distribution(series(*comps), six)
    assert exact.cdf[1] == pytest.approx(1 - 0.9**6, abs=1e-12)
    assert closed_form_cdf("series", six, 1) == pytest.approx(
        exact.cdf[1], abs=1e-12
    )

    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        max_state = int(rng.integers(1, 5))
        dists = [random_pmf(rng, max_state) for _ in range(n)]
        comps = tuple(Component(i) for i in range(1, n + 1))
        for kind, expr in (
            ("series", series(*comps)),
            ("parallel", parallel(*comps)),
        ):
            exact = exact_system_distribution(expr, dists)
            for level in range(max_state + 1):
                assert abs(
                    closed_form_cdf(kind, dists, level) - exact.cdf[level]
                ) <= 1e-12


def _has_koon(expr):
    if isinstance(expr, Component):
        return False
    return isinstance(expr, KOutOfN) or any(_has_koon(c) for c in expr.children)


@pytest.mark.parametrize("max_state,n", [(1, 7), (2, 5), (3, 4), (4, 4)])
def test_closed_form_distribution_matches_oracle_on_read_once_trees(max_state, n):
    rnd = random.Random(max_state)
    rng = np.random.default_rng(max_state)
    koon_trees = 0
    for _ in range(15):
        # a shuffled subset: unused components must sum out too
        indices = rnd.sample(range(1, n + 1), rnd.randint(1, n))
        expr = random_read_once_expr(rnd, indices)
        koon_trees += _has_koon(expr)
        dists = [random_pmf(rng, max_state) for _ in range(n)]
        got = closed_form_distribution(expr, dists)
        pmf, cdf = oracle_distribution(expr, dists)
        for a, b in zip(got.pmf + got.cdf, pmf + cdf):
            assert abs(a - b) <= ORACLE_TOLERANCE
    assert koon_trees > 0


def test_closed_form_distribution_examples_and_validation():
    got = closed_form_distribution(series(c1, c2), [FAIR, FAIR])
    assert got.pmf == (0.75, 0.25) and got.cdf == (0.75, 1.0)
    two_of_three = KOutOfN(2, (c1, c2, Component(3)))
    # at or below level 0 when fewer than two components exceed it
    assert closed_form_distribution(two_of_three, [FAIR] * 3).cdf[0] == 0.5
    # the koon count rounds this CDF down by an ulp at an interior level
    # (the top level is exactly 1); the differenced masses must still be
    # non-negative
    skewed = [
        (0.00023461062402154844, 0.11574588165316181, 1.6469166646157685e-13,
         0.8840195077226519),
        (0.8118801657685251, 0.18811594317156607, 2.6838882816440744e-37,
         3.891059908919128e-06),
    ]
    dipping = closed_form_distribution(KOutOfN(2, (c1, c2)), skewed)
    assert dipping.cdf[2] < dipping.cdf[1] and dipping.cdf[3] == 1.0
    assert min(dipping.pmf) == 0.0
    with pytest.raises(PreconditionViolatedError, match="read-once"):
        closed_form_distribution(series(c1, parallel(c1, c2)), [FAIR, FAIR])
    with pytest.raises(ArityMismatchError):
        closed_form_distribution(series(c1, c2), [FAIR])


def test_cdf_bounds_examples():
    assert cdf_bounds("series", [FAIR, FAIR], 0) == pytest.approx(
        (0.25, 0.75), abs=1e-15
    )
    assert cdf_bounds("parallel", [FAIR, FAIR], 0) == pytest.approx(
        (0.25, 0.75), abs=1e-15
    )
    exact_series = exact_system_distribution(series(c1, c2), [FAIR, FAIR])
    assert exact_series.cdf[0] == pytest.approx(0.75, abs=1e-15)
    exact_parallel = exact_system_distribution(parallel(c1, c2), [FAIR, FAIR])
    assert exact_parallel.cdf[0] == pytest.approx(0.25, abs=1e-15)
    d = ComponentDistribution((0.2, 0.3, 0.5))
    for level in range(3):
        lo, hi = cdf_bounds("series", [d], level)
        assert lo == pytest.approx(component_cdf(d, level), abs=1e-15)
        assert hi == pytest.approx(component_cdf(d, level), abs=1e-15)


def test_bounds_bracket_exact_for_koon_too():
    # the product bounds hold for any coherent structure; koon is checked
    # empirically here since no closed form is claimed for it
    rnd = random.Random(31337)
    rng = np.random.default_rng(31337)
    for _ in range(60):
        expr = random_expr(rnd, max_depth=3, max_index=4)
        n = arity(expr)
        max_state = rnd.randint(1, 3)
        dists = [random_pmf(rng, max_state) for _ in range(n)]
        exact = exact_system_distribution(expr, dists)
        for level in range(max_state + 1):
            lo, hi = cdf_bounds("series", dists, level)
            assert lo - 1e-12 <= exact.cdf[level] <= hi + 1e-12


def test_dominance_examples():
    primed = [ComponentDistribution((0.1, 0.9))] * 2
    dists = [FAIR, FAIR]
    assert dominance_check(series(c1, c2), primed, dists)
    assert dominance_check(parallel(c1, c2), primed, dists)
    assert dominance_check(series(c1, c2), dists, dists)  # equality case


def test_dominance_hypothesis_violated():
    better = [ComponentDistribution((0.1, 0.9))] * 2
    worse = [FAIR, FAIR]
    with pytest.raises(HypothesisViolatedError):
        dominance_check(series(c1, c2), worse, better)
    with pytest.raises(LengthMismatchError):
        dominance_check(series(c1, c2), better + [FAIR], worse)


def test_closed_forms_refuse_empty_family():
    for call in (closed_form_cdf, cdf_bounds):
        with pytest.raises(LengthMismatchError):
            call("series", [], 0)


@pytest.mark.parametrize(
    "call",
    [
        lambda kind: closed_form_cdf(kind, [FAIR], 0),
        lambda kind: cdf_bounds(kind, [FAIR], 0),
        lambda kind: redundancy_comparison(kind, (0, 1), (1, 0)),
        lambda kind: composition_comparison(kind, (0, 1), (1, 0)),
    ],
    ids=["closed_form_cdf", "cdf_bounds", "redundancy", "composition"],
)
def test_bad_kind_refused_as_domain_error(call):
    with pytest.raises(PreconditionViolatedError, match="'serial'"):
        call("serial")


def test_monte_carlo_accuracy_and_determinism():
    est = monte_carlo_cdf(series(c1, c2), [FAIR, FAIR], 0, 100_000, 42)
    assert abs(est.estimate - 0.75) <= 0.01
    assert est.std_error == pytest.approx(
        math.sqrt(est.estimate * (1 - est.estimate) / est.samples), abs=0
    )
    again = monte_carlo_cdf(series(c1, c2), [FAIR, FAIR], 0, 100_000, 42)
    assert again.estimate == est.estimate  # bitwise
    other_seed = monte_carlo_cdf(series(c1, c2), [FAIR, FAIR], 0, 100_000, 43)
    assert other_seed.estimate != est.estimate


def test_monte_carlo_validation():
    with pytest.raises(PreconditionViolatedError, match="seed"):
        monte_carlo_cdf(series(c1, c2), [FAIR, FAIR], 0, 10, -1)
    with pytest.raises(PreconditionViolatedError):
        monte_carlo_cdf(series(c1, c2), [FAIR, FAIR], 0, 0, 1)


def test_monte_carlo_counts_converted_at_the_call():
    for samples, seed in ((10.5, 1), (10, 1.0)):
        with pytest.raises(TypeError):
            monte_carlo_cdf(series(c1, c2), [FAIR, FAIR], 0, samples, seed)
    expr, dists = series(c1, c2), [FAIR, FAIR]
    est = monte_carlo_cdf(expr, dists, 0, np.int64(10), np.int64(1))
    assert est == monte_carlo_cdf(expr, dists, 0, 10, 1)
    assert type(est.samples) is int and type(est.seed) is int
    with pytest.raises(LevelOutOfRangeError):
        monte_carlo_cdf(series(c1, c2), [FAIR, FAIR], 2, 10, 1)


def test_monte_carlo_single_sample():
    est = monte_carlo_cdf(series(c1, c2), [FAIR, FAIR], 0, 1, 5)
    assert est.estimate in (0.0, 1.0)


def test_monte_carlo_chunking_invariant():
    # the stream is consumed in trial-major order, so chunk boundaries do
    # not influence the estimate; 2**16 straddles the internal chunk size
    big = monte_carlo_cdf(series(c1, c2), [FAIR, FAIR], 0, (1 << 16) + 17, 9)
    assert 0.7 < big.estimate < 0.8


def test_monte_carlo_never_samples_zero_mass():
    d = ComponentDistribution((0.0, 1.0))
    est = monte_carlo_cdf(c1, [d], 0, 1000, 11)
    assert est.estimate == 0.0


def test_monte_carlo_coverage_over_100_seeded_runs():
    # 6 standard errors is a ~2e-9 two-sided miss probability per run, so
    # 99 of 100 runs inside the band is a loose requirement
    rnd = random.Random(100)
    rng = np.random.default_rng(100)
    inside = 0
    for seed in range(100):
        expr = random_expr(rnd, max_depth=2, max_index=3)
        n = arity(expr)
        max_state = rnd.randint(1, 3)
        dists = [random_pmf(rng, max_state) for _ in range(n)]
        exact = exact_system_distribution(expr, dists)
        level = min(
            range(max_state + 1), key=lambda j: abs(exact.cdf[j] - 0.5)
        )
        est = monte_carlo_cdf(expr, dists, level, 10_000, seed)
        if abs(est.estimate - exact.cdf[level]) <= 6 * est.std_error:
            inside += 1
    assert inside >= 99


def inverse_transform_cdf(expr, dists, level, samples, seed):
    """The inverse-transform estimator ``monte_carlo_cdf`` replaced: every
    state is ``searchsorted`` off its component CDF and clamped to the top
    level, and the multistate tree is evaluated on the state vectors. Its
    running sums may differ from ``component_cdf`` in the last bits; a
    draw falls between the two with a chance of order 2**-53 per draw."""
    cums = np.asarray([list(itertools.accumulate(d)) for d in dists])
    max_state = cums.shape[1] - 1
    uniforms = np.random.Generator(np.random.PCG64(seed)).random(
        (samples, len(dists))
    )
    states = np.empty(uniforms.shape, dtype=np.int64)
    for i, row in enumerate(cums):
        states[:, i] = np.searchsorted(row, uniforms[:, i], side="right")
    np.minimum(states, max_state, out=states)
    hits = int(np.count_nonzero(eval_expr_batch(expr, states) <= level))
    return hits / samples


READ_ONCE = "series(c1, parallel(c2, c3), koon(2; c4, c5, c6), c7, c8, c9, c10)"
SHARED = (
    "parallel(series(c1, c2, koon(2; c3, c4, c5)), series(c1, c6, c7), "
    "series(c2, c8, c9, c10))"
)
ZERO_MASS = (0.25, 0.0, 0.375, 0.0, 0.375)

# Monte-Carlo estimates recorded from the inverse-transform estimator, to be
# reproduced with ==: the benchmark's read-once and shared trees, a nested
# koon with a shared component, more PMFs than the tree references, PMFs
# with zero-mass levels, the top level (several of those CDFs end an ulp
# below 1), and sample counts on both sides of 2**16, several blocks of
# draws each.
MC_PINS = [
    (READ_ONCE, 10, 4, False, 0, 65_537, 101, 0.7750888810900712),
    (READ_ONCE, 10, 4, False, 2, 65_535, 102, 0.9996337834744793),
    (READ_ONCE, 10, 4, False, 0, 1, 100, 0.0),
    (READ_ONCE, 10, 4, False, 0, 1, 102, 1.0),
    (READ_ONCE, 10, 4, False, 4, 65_537, 103, 1.0),
    (SHARED, 10, 3, False, 1, 65_535, 104, 0.6235141527428092),
    (SHARED, 10, 3, False, 0, 65_537, 105, 0.24299250804888842),
    ("koon(2; series(c1, koon(2; c2, c3, c4)), parallel(c5, koon(1; c6, c7)), c1)",
     7, 3, False, 1, 65_537, 106, 0.5477974274074187),
    ("parallel(c1, c3)", 5, 2, False, 0, 65_535, 107, 0.2204470893415732),
    ("series(c1, koon(2; c2, c3, c4))", 4, 4, True, 1, 65_537, 108, 0.43312937729832),
    ("series(c1, koon(2; c2, c3, c4))", 4, 4, True, 3, 65_535, 109, 0.9548943312733654),
]


@pytest.mark.parametrize(
    "text,n,max_state,zero_mass,level,samples,seed,estimate", MC_PINS
)
def test_monte_carlo_estimate_bit_identical(
    text, n, max_state, zero_mass, level, samples, seed, estimate
):
    rng = np.random.default_rng(n * 10 + max_state)
    dists = [random_pmf(rng, max_state) for _ in range(n)]
    if zero_mass:  # every other component takes ZERO_MASS
        dists[::2] = [ZERO_MASS] * len(dists[::2])
    got = monte_carlo_cdf(parse_expr(text), dists, level, samples, seed)
    assert got.estimate == estimate


def test_monte_carlo_matches_inverse_transform_on_random_trees():
    # shared components, spare PMFs, zero-mass levels and every level, the
    # top one included; samples fill part of one block of draws or span
    # several
    rnd = random.Random(7)
    rng = np.random.default_rng(7)
    for case in range(200):
        expr = random_expr(rnd, max_depth=3, max_index=5)
        n = arity(expr) + rnd.randint(0, 2)
        max_state = 1 + case % 5
        dists = []
        for _ in range(n):
            pmf = np.asarray(random_pmf(rng, max_state))
            if rnd.random() < 0.3:
                pmf[rnd.randint(0, max_state)] = 0.0
                pmf /= pmf.sum()
            dists.append(tuple(pmf.tolist()))
        samples = rnd.choice((1, 17, 4_099, 65_537))
        seed = rnd.randrange(2**32)
        for level in range(max_state + 1):
            want = inverse_transform_cdf(expr, dists, level, samples, seed)
            got = monte_carlo_cdf(expr, dists, level, samples, seed).estimate
            assert got == want, (format_expr(expr), max_state, level, seed)


@pytest.mark.parametrize(
    "n, block",
    # 1 MiB of draws is 13,107 trials of 10 components; at 40 components
    # it is 3,276, below the 4,096-trial floor
    [(10, 13_107), (40, 4_096)],
)
def test_monte_carlo_matches_inverse_transform_at_block_edges(n, block):
    assert max(_MC_BLOCK_BYTES // (8 * n), _MC_BLOCK_MIN_TRIALS) == block
    rng = np.random.default_rng(n)
    dists = [random_pmf(rng, 3) for _ in range(n)]
    expr = parallel(
        series(*(component(i) for i in range(1, n // 2 + 1))),
        k_out_of_n(n // 4, *(component(i) for i in range(n // 2 + 1, n + 1))),
    )
    for samples in (block - 1, block, block + 1, 2 * block + 1):
        for level in range(4):
            want = inverse_transform_cdf(expr, dists, level, samples, 3)
            got = monte_carlo_cdf(expr, dists, level, samples, 3).estimate
            assert got == want, (samples, level)


# Exact PMF/CDF floats pinned bit for bit: every vector weight is a
# left-to-right product and sums accumulate per 2**16-vector chunk in
# lexicographic order, so any change of evaluation order shows up here.
# The first space (5**8 vectors) is not a multiple of the chunk, the
# second (4**10) is exactly 16 chunks.
EXACT_PINS = [
    (
        "series(c1, parallel(c2, c3), koon(2; c4, c5, c6), c7, c8)",
        8,
        4,
        11,
        (0.4972820749082758, 0.3830399848486076, 0.11126739349112794,
         0.008389230230263478, 2.1316521724745184e-05),
        (0.4972820749082758, 0.8803220597568834, 0.9915894532480113,
         0.9999786834782748, 0.9999999999999996),
    ),
    (
        "parallel(series(c1, c2, koon(2; c3, c4, c5)), series(c1, c6, c7), "
        "series(c2, c8, c9, c10))",
        10,
        3,
        12,
        (0.1613068888401048, 0.6622407416573701, 0.16137609110492762,
         0.015076278397599629),
        (0.1613068888401048, 0.8235476304974749, 0.9849237216024025,
         1.0000000000000022),
    ),
]


@pytest.mark.parametrize("text,n,max_state,seed,pmf,cdf", EXACT_PINS)
def test_exact_distribution_bit_identical(text, n, max_state, seed, pmf, cdf):
    rng = np.random.default_rng(seed)
    dists = [random_pmf(rng, max_state) for _ in range(n)]
    got = exact_system_distribution(parse_expr(text), dists)
    assert got.pmf == pmf
    assert got.cdf == cdf
