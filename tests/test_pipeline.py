import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import UNDECODABLE_SPECS, oracle_sweep_columns
from mscs.cli import run_cli
from mscs.errors import (
    InvalidPMFError,
    LevelOutOfRangeError,
    PreconditionViolatedError,
    SpecFormatError,
)
from mscs.pipeline import (
    _ROW_BLOCK,
    _SWEEP_ROW,
    PipelineSpec,
    Segment,
    SweepResult,
    SweepRow,
    case_study_path,
    export_results,
    load_case_study,
    load_pipeline_spec,
    pipeline_cdf,
    pipeline_state1_cdf,
    set_state1,
    state1_performance,
    sweep_state1,
    _render_rows,
)
from mscs.probability import (
    ComponentDistribution,
    cdf_bounds,
    closed_form_cdf,
    exact_system_distribution,
)
from mscs.structure import Component, series


def write_spec(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_shipped_case_studies_load():
    spec = load_case_study()
    assert spec.max_state == 4
    assert spec.n_segments == 10
    assert all(seg.distribution.pmf[0] == 0.0 for seg in spec.segments)
    assert all(seg.distribution.pmf[1] == 0.1 for seg in spec.segments)
    above = load_case_study("above_average")
    assert all(s.distribution.pmf[1] == 0.7 for s in above.segments)
    below = load_case_study("below_average")
    assert all(s.distribution.pmf[1] == 0.3 for s in below.segments)
    assert case_study_path().exists()
    with pytest.raises(SpecFormatError):
        load_case_study("nonexistent")


def test_load_format_errors(tmp_path):
    broken = tmp_path / "bad.json"
    broken.write_text("{")
    with pytest.raises(SpecFormatError, match="line"):
        load_pipeline_spec(broken)
    base = {"max_state": 4, "segments": [{"name": "s1", "pmf": [0, 0.1, 0.2, 0.3, 0.4]}]}
    for mutate, needle in [
        (lambda d: d.pop("max_state"), "max_state"),
        (lambda d: d.update(max_state="4"), "max_state"),
        (lambda d: d.update(segments=[]), "at least one segment"),
        (lambda d: d.update(segments="x"), "segments"),
        (lambda d: d["segments"][0].pop("name"), "name"),
        (lambda d: d["segments"][0].update(pmf=[0, 0.1, 0.2, 0.7]), "entries"),
        (lambda d: d["segments"][0].update(pmf=[]), "s1.*entry"),
        (lambda d: d["segments"][0].update(pmf="x"), "pmf"),
    ]:
        doc = json.loads(json.dumps(base))
        mutate(doc)
        with pytest.raises(SpecFormatError, match=needle):
            load_pipeline_spec(write_spec(tmp_path, doc))


def test_empty_segments_refused_with_one_message(tmp_path):
    # PipelineSpec owns the check; the loader checks only that it is a list
    doc = {"max_state": 1, "segments": []}
    with pytest.raises(SpecFormatError) as loaded:
        load_pipeline_spec(write_spec(tmp_path, doc))
    with pytest.raises(SpecFormatError) as built:
        PipelineSpec(1, ())
    assert str(loaded.value) == str(built.value)
    assert str(built.value) == "a pipeline needs at least one segment"


@pytest.mark.parametrize(
    "content", UNDECODABLE_SPECS.values(), ids=list(UNDECODABLE_SPECS)
)
def test_load_undecodable_spec_raises_spec_format_error(tmp_path, content):
    path = tmp_path / "spec.json"
    path.write_bytes(content)
    with pytest.raises(SpecFormatError):
        load_pipeline_spec(path)


def test_load_invalid_pmf_names_segment(tmp_path):
    doc = {
        "max_state": 1,
        "segments": [
            {"name": "ok", "pmf": [0.5, 0.5]},
            {"name": "broken", "pmf": [0.9, 0.9]},
        ],
    }
    with pytest.raises(InvalidPMFError, match="broken"):
        load_pipeline_spec(write_spec(tmp_path, doc))


def test_load_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_pipeline_spec(tmp_path / "nope.json")


def test_pipeline_cdf_values():
    spec = load_case_study()
    assert pipeline_cdf(spec, 1) == pytest.approx(1 - 0.9**10, abs=1e-10)
    assert pipeline_cdf(spec, spec.max_state) == pytest.approx(1.0, abs=1e-12)
    values = [pipeline_cdf(spec, j) for j in range(spec.max_state + 1)]
    assert values == sorted(values)
    with pytest.raises(LevelOutOfRangeError):
        pipeline_cdf(spec, 9)


def test_pipeline_cdf_single_segment():
    pmf = (0.0, 0.1, 0.2, 0.3, 0.4)
    spec = PipelineSpec(4, (Segment("only", ComponentDistribution(pmf)),))
    for j in range(5):
        assert pipeline_cdf(spec, j) == pytest.approx(
            math.fsum(pmf[: j + 1]), abs=1e-15
        )


def test_pipeline_cdf_matches_enumerator_on_truncation():
    spec = load_case_study()
    truncated = PipelineSpec(4, spec.segments[:6])
    comps = tuple(Component(i) for i in range(1, 7))
    exact = exact_system_distribution(series(*comps), truncated.distributions)
    for j in range(5):
        assert abs(pipeline_cdf(truncated, j) - exact.cdf[j]) <= 1e-12


def test_state1_closed_form():
    spec = load_case_study()
    assert pipeline_state1_cdf(spec) == pytest.approx(1 - 0.9**10, abs=1e-10)
    assert pipeline_state1_cdf(spec) == pytest.approx(
        pipeline_cdf(spec, 1), abs=1e-12
    )


def test_state1_precondition():
    bad = PipelineSpec(
        1,
        (
            Segment("a", ComponentDistribution((0.0, 1.0))),
            Segment("b", ComponentDistribution((0.2, 0.8))),
        ),
    )
    with pytest.raises(PreconditionViolatedError, match="'b'"):
        pipeline_state1_cdf(bad)


def test_state1_annihilator():
    spec = PipelineSpec(
        2,
        (
            Segment("a", ComponentDistribution((0.0, 1.0, 0.0))),
            Segment("b", ComponentDistribution((0.0, 0.3, 0.7))),
        ),
    )
    assert pipeline_state1_cdf(spec) == 1.0


def test_figure_coordinates_value():
    above = load_case_study("above_average")
    spec = set_state1(set_state1(above, 1, 0.9226), 2, 0.1015)
    expected = 1 - (1 - 0.9226) * (1 - 0.1015) * (1 - 0.7) ** 8
    assert pipeline_state1_cdf(spec) == pytest.approx(expected, abs=1e-9)
    assert pipeline_state1_cdf(spec) == pytest.approx(0.9999954, abs=1e-6)


def test_set_state1_places_residual_on_top_state():
    above = load_case_study("above_average")
    spec = set_state1(above, 1, 0.9226)
    pmf = spec.segments[0].distribution.pmf
    assert pmf[1] == 0.9226
    assert pmf[-1] == pytest.approx(1 - 0.9226, abs=1e-12)
    assert math.fsum(pmf) == pytest.approx(1.0, abs=1e-12)
    # the other segments are untouched
    assert spec.segments[2:] == above.segments[2:]


def test_set_state1_rejects_infeasible_override():
    spec = load_case_study()  # segments carry mass on states 2 and 3
    with pytest.raises(InvalidPMFError):
        set_state1(spec, 1, 0.9)
    with pytest.raises(PreconditionViolatedError):
        set_state1(spec, 11, 0.5)
    binary = PipelineSpec(
        1,
        (
            Segment("a", ComponentDistribution((0.0, 1.0))),
            Segment("b", ComponentDistribution((0.0, 1.0))),
        ),
    )
    with pytest.raises(PreconditionViolatedError):
        set_state1(binary, 1, 0.3)  # no state above 1 to absorb residual


def test_state1_monotone_in_each_probability():
    above = load_case_study("above_average")
    lower = pipeline_state1_cdf(set_state1(above, 1, 0.2))
    higher = pipeline_state1_cdf(set_state1(above, 1, 0.8))
    assert lower <= higher


def test_sweep_shape_and_determinism():
    above = load_case_study("above_average")
    result = sweep_state1(above, 50, 7)
    assert result.trials == 50
    assert result.columns() == oracle_sweep_columns(above, 50, 7)
    again = sweep_state1(above, 50, 7)
    assert again == result  # identical rows, bitwise
    different = sweep_state1(above, 50, 8)
    assert different != result


def test_sweep_rows_recompute_bitwise():
    above = load_case_study("above_average")
    columns = sweep_state1(above, 128, 3).columns()
    assert columns == oracle_sweep_columns(above, 128, 3)
    for _, p_1_1, p_2_1, performance in zip(*columns):
        assert 0.0 < p_1_1 < 1.0 and 0.0 < p_2_1 < 1.0
        assert 0.0 <= performance <= 1.0


def test_sweep_block_formula_equals_scalar_form():
    # the blocks apply the state-1 formula to arrays of draws, and
    # state1_performance to floats
    above = load_case_study("above_average")
    held = [seg.distribution.pmf[1] for seg in above.segments[2:]]
    result = sweep_state1(above, 3 * _ROW_BLOCK + 5, 3)
    _, p_1_1, p_2_1, performance = result.columns()
    assert performance == [
        state1_performance(a, b, held) for a, b in zip(p_1_1, p_2_1)
    ]


def test_sweep_below_corner_supremum():
    below = load_case_study("below_average")
    result = sweep_state1(below, 200, 21)
    assert result.corner_supremum == 1.0
    best = result.argmax_row()
    assert best.performance == max(oracle_sweep_columns(below, 200, 21)[3])
    assert best.performance < result.corner_supremum


def test_sweep_single_trial():
    above = load_case_study("above_average")
    result = sweep_state1(above, 1, 0)
    assert result.columns() == oracle_sweep_columns(above, 1, 0)


def test_sweep_preconditions():
    above = load_case_study("above_average")
    with pytest.raises(PreconditionViolatedError):
        sweep_state1(above, 0, 1)
    with pytest.raises(PreconditionViolatedError, match="seed"):
        sweep_state1(above, 5, -1)
    single = PipelineSpec(1, (Segment("a", ComponentDistribution((0.0, 1.0))),))
    with pytest.raises(PreconditionViolatedError):
        sweep_state1(single, 5, 1)
    failing_mass = PipelineSpec(
        1,
        (
            Segment("a", ComponentDistribution((0.0, 1.0))),
            Segment("b", ComponentDistribution((0.0, 1.0))),
            Segment("c", ComponentDistribution((0.5, 0.5))),
        ),
    )
    with pytest.raises(PreconditionViolatedError, match="'c'"):
        sweep_state1(failing_mass, 5, 1)


# Closed-form values on the shipped specs, recorded before the product
# forms were folded into one recursion and compared with ``==``: per spec,
# pipeline_cdf at levels 0..4 (the series closed form), the parallel
# closed form at levels 0..4, and pipeline_state1_cdf.
CLOSED_FORM_PINS = {
    "default": (
        (0.0, 0.6513215598999998, 0.9717524751000001, 0.9998951424, 1.0),
        (0.0, 1.0000000000000006e-10, 5.9049000000000085e-06,
         0.006046617599999999, 1.0),
        0.6513215598999998,
    ),
    "above_average": (
        (0.0, 0.9999940951, 0.9999940951, 0.9999940951, 1.0),
        (0.0, 0.028247524899999984, 0.028247524899999984,
         0.028247524899999984, 1.0),
        0.9999940951,
    ),
    "below_average": (
        (0.0, 0.9717524751000001, 0.9717524751000001, 0.9717524751000001,
         1.0),
        (0.0, 5.904899999999999e-06, 5.904899999999999e-06,
         5.904899999999999e-06, 1.0),
        0.9717524751000001,
    ),
}


@pytest.mark.parametrize("scenario", sorted(CLOSED_FORM_PINS))
def test_closed_forms_bit_identical_on_shipped_specs(scenario):
    series_cdf, parallel_cdf, state1 = CLOSED_FORM_PINS[scenario]
    spec = load_case_study(scenario)
    dists = spec.distributions
    levels = range(spec.max_state + 1)
    assert tuple(pipeline_cdf(spec, j) for j in levels) == series_cdf
    assert tuple(closed_form_cdf("series", dists, j) for j in levels) == series_cdf
    assert tuple(closed_form_cdf("parallel", dists, j) for j in levels) == parallel_cdf
    for kind in ("series", "parallel"):
        assert tuple(cdf_bounds(kind, dists, j) for j in levels) == tuple(
            zip(parallel_cdf, series_cdf)
        )
    assert pipeline_state1_cdf(spec) == state1


def test_export_sweep_csv(tmp_path):
    above = load_case_study("above_average")
    path = tmp_path / "sweep.csv"
    export_results(sweep_state1(above, 3, 7), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "trial,p_1_1,p_2_1,P_pipeline_1"
    assert len(lines) == 4
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    for row, want in zip(rows, zip(*oracle_sweep_columns(above, 3, 7))):
        # 17 significant digits reload bit-faithfully
        assert (
            int(row["trial"]),
            float(row["p_1_1"]),
            float(row["p_2_1"]),
            float(row["P_pipeline_1"]),
        ) == want


def test_export_distribution_csv(tmp_path):
    spec = load_case_study()
    dist = exact_system_distribution(
        series(*(Component(i) for i in range(1, 5))),
        spec.distributions[:4],
    )
    path = tmp_path / "dist.csv"
    export_results(dist, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "level,pmf,cdf"
    assert len(lines) == 6
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    for row, (p, c) in zip(rows, zip(dist.pmf, dist.cdf)):
        assert float(row["pmf"]) == p
        assert float(row["cdf"]) == c


def test_export_errors(tmp_path):
    result = sweep_state1(load_case_study("above_average"), 1, 7)
    with pytest.raises(TypeError):
        export_results(42, tmp_path / "x.csv")
    with pytest.raises(OSError):
        export_results(result, tmp_path / "missing" / "x.csv")


def oracle_sweep_csv(spec, trials, seed):
    """The per-row ``csv.writer`` export that the batched writer replaced,
    of the rows drawn all at once."""
    handle = io.StringIO(newline="")
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(["trial", "p_1_1", "p_2_1", "P_pipeline_1"])
    for trial, *values in zip(*oracle_sweep_columns(spec, trials, seed)):
        writer.writerow([trial, *(f"{v:.17g}" for v in values)])
    return handle.getvalue()


# Seed 11026 draws 4.97e-06 in its first trial, so every trial count
# renders at least one float in exponent notation.
@pytest.mark.parametrize("seed", [7, 11026])
@pytest.mark.parametrize("trials", [1, 3, 65535, 65536, 65537, 200000])
def test_sweep_csv_and_stdout_match_per_row_oracle(
    tmp_path, capsys, trials, seed
):
    above = load_case_study("above_average")
    result = sweep_state1(above, trials, seed)
    want = oracle_sweep_csv(above, trials, seed)
    if seed == 11026:
        assert "e-06," in want.splitlines()[1]
    path = tmp_path / "sweep.csv"
    export_results(result, path)
    assert path.read_bytes() == want.encode()
    code = run_cli(
        ["pipeline", "sweep", "--spec", str(case_study_path("above_average")),
         "--trials", str(trials), "--seed", str(seed)]
    )
    assert code == 0
    assert capsys.readouterr().out == want


def test_sweep_columns_rows_and_equality():
    above = load_case_study("above_average")
    trials = 3 * _ROW_BLOCK + 5
    result = sweep_state1(above, trials, 5)
    want = oracle_sweep_columns(above, trials, 5)
    assert result.columns() == want
    # a range is drawn from its own start row, across block edges too
    for start, stop in [
        (0, 3), (_ROW_BLOCK - 1, _ROW_BLOCK + 2), (_ROW_BLOCK, _ROW_BLOCK + 3),
        (9999, 10002), (trials - 2, trials + 1), (5, 3 * _ROW_BLOCK),
    ]:
        assert result.columns(start, stop) == tuple(
            column[start:stop] for column in want
        )
    best = want[3].index(max(want[3]))
    assert result.argmax_row() == SweepRow(*(column[best] for column in want))
    # equal recipes are equal sweeps; any field that differs gives other rows
    assert result == sweep_state1(above, trials, 5)
    assert result == SweepResult(5, trials, result.held_product)
    assert result != sweep_state1(above, trials, 6)
    assert result != sweep_state1(above, trials - 1, 5)
    assert result != sweep_state1(load_case_study("below_average"), trials, 5)
    assert result != (5, trials, result.held_product)


def test_sweep_argmax_returns_first_of_tied_maxima():
    # a held segment whose state-1 mass is 1 makes the held product 0, so
    # every trial performs exactly 1.0: the first trial must win over the
    # equal maxima of every later block
    above = load_case_study("above_average")
    certain = Segment(
        "certain", ComponentDistribution((0.0, 1.0, 0.0, 0.0, 0.0))
    )
    spec = PipelineSpec(4, (*above.segments[:2], certain))
    result = sweep_state1(spec, 3 * _ROW_BLOCK + 5, 7)
    assert result.held_product == 0.0
    want = oracle_sweep_columns(spec, 3 * _ROW_BLOCK + 5, 7)
    assert set(want[3]) == {1.0}
    assert result.columns() == want
    assert result.argmax_row().trial == 1


def format_rows(first_trial, values, template=_SWEEP_ROW):
    return "".join(
        template % (first_trial + i, *row)
        for i, row in enumerate(values.tolist())
    )


DECADE_EDGES = [
    float(np.nextafter(10.0**-k, side)) for k in range(1, 6) for side in (0, 1)
]
SPECIAL_FIELDS = [0.0, 1.0, float(np.finfo(float).tiny), *DECADE_EDGES]
# Trial numbers that end one digit width or start the next.
WIDTH_EDGES = [1, 9, 10, 9_999, 10_000, 99_999_999, 10**8, 10**12 - 1]

fields = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from(SPECIAL_FIELDS),
    # the draws of the sweep
    st.integers(0, 2**53 - 1).map(lambda k: k * 2.0**-53),
    # where the performance column lives
    st.floats(1.0 - 1e-12, 1.0),
    # k * 2**-m with m = 17 - e and k odd, where 10**e <= x < 10**(e + 1),
    # is a rounding tie: x * 10**(16 - e) is half an odd integer
    st.builds(
        lambda k, m: k * 2.0**-m, st.integers(1, 2**18), st.integers(18, 21)
    ),
)


@settings(max_examples=300, deadline=None)
@given(
    first_trial=st.builds(
        lambda edge, back: max(1, edge - back),
        st.sampled_from(WIDTH_EDGES),
        st.integers(0, 5),
    ),
    rows=st.lists(st.tuples(fields, fields, fields), min_size=1, max_size=12),
)
@example(first_trial=99_999_999, rows=[(0.5, 0.25, 0.125)] * 3)
def test_sweep_csv_rows_match_format_string(first_trial, rows):
    values = np.array(rows, dtype=np.float64)
    assert _render_rows(_SWEEP_ROW, first_trial, values) == format_rows(
        first_trial, values
    )


@pytest.mark.parametrize("first_trial", WIDTH_EDGES)
def test_sweep_csv_rows_on_decade_edges_ties_and_fallbacks(first_trial):
    rng = np.random.default_rng(first_trial)
    ties = [
        k * 2.0 ** (e - 17)
        for e, k in [(-1, 26_215), (-1, 262_143), (-2, 5_243), (-2, 52_427),
                     (-3, 1_049), (-3, 10_485), (-4, 211), (-4, 2_097)]
    ]
    near_one = (1.0 - rng.random(30) * 1e-12).tolist()
    values = np.array(
        SPECIAL_FIELDS + ties + near_one + rng.random(3 * 45).tolist()
    )
    rng.shuffle(values)
    values = values.reshape(-1, 3)
    assert _render_rows(_SWEEP_ROW, first_trial, values) == format_rows(
        first_trial, values
    )


SHORTEST_ROW = "%d,%r\n"
#: Powers of two (their gap below is half the gap above), the tie family
#: 0.5 + k * 2**-17 for odd k (0.50000762939453125: two 16-digit decimals
#: are equally close and both read back; the even one is printed), and the
#: edges of the fixed-notation range.
SHORTEST_SPECIALS = [
    *(2.0**-j for j in range(1, 20)),
    *(0.5 + k * 2.0**-17 for k in (1, 3, 5, 7)),
    float(np.nextafter(1e-4, 0)),
    float(np.nextafter(1e-4, 1)),
    float(np.nextafter(1.0, 0)),
]


def k_digit_decimal(k, leading, e, side):
    """The double nearest a k-digit decimal in decade -e, or a neighbour."""
    digits = leading % (9 * 10 ** (k - 1)) + 10 ** (k - 1)
    x = float(f"{digits}e{1 - k - e}")
    return float(np.nextafter(x, side)) if side is not None else x


shortest_fields = st.one_of(
    st.integers(1, 2**53 - 1).map(lambda k: k * 2.0**-53),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.floats(-5.0, 0.0, exclude_max=True).map(lambda t: 10.0**t),
    st.builds(
        k_digit_decimal,
        st.integers(1, 17),
        st.integers(0, 10**17),
        st.integers(1, 5),
        st.sampled_from([None, 0.0, 1.0]),
    ),
    st.sampled_from(SHORTEST_SPECIALS),
    # dyadic rationals with few bits: rounding ties at 15, 16 or 17 digits
    st.builds(
        lambda k, m: k * 2.0**-m, st.integers(1, 2**18), st.integers(14, 24)
    ).filter(lambda x: x < 1.0),
)


@settings(max_examples=500, deadline=None)
@given(st.lists(shortest_fields, min_size=1, max_size=12))
@example([0.5 + 2.0**-17])
def test_render_rows_shortest_digits_match_repr(fields):
    values = np.array(fields).reshape(-1, 1)
    assert _render_rows(SHORTEST_ROW, 1, values) == format_rows(
        1, values, SHORTEST_ROW
    )


def test_render_rows_shortest_digits_on_families():
    rng = np.random.default_rng(5)
    decimals = [
        k_digit_decimal(k, int(lead), e, side)
        for k in range(1, 18)
        for lead in rng.integers(0, 10**17, 40)
        for e in range(1, 5)
        for side in (None, 0.0, 1.0)
    ]
    ties = [0.5 + k * 2.0**-17 for k in range(1, 2**13, 2)]
    values = np.array(
        SHORTEST_SPECIALS
        + ties
        + decimals
        + rng.random(5_000).tolist()
        + (10.0 ** rng.uniform(-5, 0, 5_000)).tolist()
    ).reshape(-1, 1)
    got = _render_rows(SHORTEST_ROW, 1, values).splitlines()
    want = format_rows(1, values, SHORTEST_ROW).splitlines()
    # compared row by row: a diff of the whole text would take minutes
    assert len(got) == len(want)
    assert [(g, w) for g, w in zip(got, want) if g != w] == []
