import contextlib
import functools
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
from itertools import zip_longest
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    ABOVE_ONE,
    UNDECODABLE_SPECS,
    nested_chain,
    random_read_once_expr,
)
from mscs.cli import run_cli
from mscs.pipeline import case_study_path, load_pipeline_spec, sweep_state1
from mscs.structure import MAX_NESTING, format_expr

SCHEMAS = Path(__file__).resolve().parent.parent / "docs" / "schemas"
CASE_STUDY = str(case_study_path())
ABOVE = str(case_study_path("above_average"))
# the benchmark's read-once tree
READ_ONCE = "series(c1, parallel(c2, c3), koon(2; c4, c5, c6), c7, c8, c9, c10)"


def invoke(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def check_schema(name, payload):
    schema = json.loads((SCHEMAS / name).read_text())
    jsonschema.validate(payload, schema)
    return payload


def test_coherence_pass(capsys):
    code, out, _ = invoke(
        capsys,
        "coherence",
        "--structure",
        "series(c1, c2, c3)",
        "--max-state",
        "4",
    )
    assert code == 0
    assert "overall    pass" in out


def test_coherence_json_schema(capsys):
    code, out, _ = invoke(
        capsys,
        "coherence",
        "--structure",
        "koon(2; c1, c2, c3)",
        "--max-state",
        "2",
        "--json",
    )
    assert code == 0
    doc = check_schema("coherence.schema.json", json.loads(out))
    assert doc["overall"] is True
    # a tree is checked through its binary image
    code, out, _ = invoke(
        capsys, "coherence", "--structure", READ_ONCE, "--max-state", "4",
        "--json",
    )
    assert code == 0 and json.loads(out)["overall"] is True


def test_coherence_failure_exit_code(capsys):
    # an unused declared component is irrelevant, a meaningful failure
    code, out, _ = invoke(
        capsys,
        "coherence",
        "--structure",
        "parallel(c1, c1)",
        "--components",
        "2",
        "--max-state",
        "2",
        "--json",
    )
    assert code == 1
    doc = check_schema("coherence.schema.json", json.loads(out))
    assert doc["overall"] is False
    assert any(e["component"] == 2 for e in doc["counterexamples"]["relevance"])


def test_eval(capsys):
    code, out, _ = invoke(
        capsys, "eval", "--structure", "series(c1, parallel(c2, c3))",
        "--state", "0,2,1",
    )
    assert code == 0
    assert out.strip() == "0"


def test_eval_json(capsys):
    code, out, _ = invoke(
        capsys, "eval", "--structure", "c2", "--state", "1,3", "--json"
    )
    assert code == 0
    doc = check_schema("eval.schema.json", json.loads(out))
    assert doc["level"] == 3


def test_eval_parse_error_exits_2(capsys):
    code, _, err = invoke(
        capsys, "eval", "--structure", "series(c1)", "--state", "2"
    )
    assert code == 2
    assert "error:" in err and "byte" in err


def test_eval_arity_error_exits_2(capsys):
    code, _, err = invoke(
        capsys, "eval", "--structure", "series(c1, c3)", "--state", "1,2"
    )
    assert code == 2
    assert "error:" in err


def test_eval_rejects_negative_levels(capsys):
    code, _, err = invoke(
        capsys, "eval", "--structure", "c1", "--state", "2,-1"
    )
    assert code == 2 and "error:" in err


@pytest.mark.parametrize(
    "argv, flag, value, message",
    [
        (["dist", "--structure", "c1"], "--pmf", "-0.5,1.5",
         "entry 0 is negative (-0.5)"),
        (["dominance", "--structure", "c1", "--pmf", "0.5,0.5"],
         "--pmf-prime", "-0.5,1.5", "entry 0 is negative (-0.5)"),
        (["eval", "--structure", "series(c1, c2)"], "--state", "-1,2",
         "levels must be non-negative, got (-1, 2)"),
    ],
    ids=["pmf", "pmf-prime", "state"],
)
def test_number_list_starting_with_minus_gets_its_diagnosis(
    capsys, argv, flag, value, message
):
    # a separate value that starts with a minus sign is not taken for an
    # option: it gets the same line as the attached form
    for given in ([flag, value], [f"{flag}={value}"]):
        code, out, err = invoke(capsys, *argv, *given)
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_ucv(capsys):
    code, out, _ = invoke(
        capsys, "ucv", "--structure", "parallel(c1, c2)",
        "--max-state", "2", "--level", "1",
    )
    assert code == 0
    assert out.splitlines() == ["0,1", "1,0"]


def test_ucv_json(capsys):
    code, out, _ = invoke(
        capsys, "ucv", "--structure", "series(c1, c2)",
        "--max-state", "2", "--level", "1", "--json",
    )
    assert code == 0
    doc = check_schema("ucv.schema.json", json.loads(out))
    assert doc["vectors"] == [[1, 1]] and doc["count"] == 1
    code, out, _ = invoke(
        capsys, "ucv", "--structure", READ_ONCE, "--max-state", "4",
        "--level", "2", "--json",
    )
    assert code == 0 and json.loads(out)["count"] == 6


def test_dist_exact_table(capsys):
    code, out, _ = invoke(
        capsys, "dist", "--structure", "series(c1, c2)",
        "--pmf", "0.5,0.5",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "level pmf cdf"
    assert lines[1].startswith("0 0.7500000000")
    assert lines[2].startswith("1 0.2500000000")


def test_dist_exact_json_and_csv(capsys, tmp_path):
    out_path = tmp_path / "dist.csv"
    code, out, _ = invoke(
        capsys, "dist", "--structure", "parallel(c1, c2)",
        "--pmf", "0.5,0.5", "--json", "--out", str(out_path),
    )
    assert code == 0
    doc = check_schema("dist.schema.json", json.loads(out))
    assert doc["pmf"] == [0.25, 0.75]
    assert out_path.read_text().splitlines()[0] == "level,pmf,cdf"


def test_dist_closed_matches_exact(capsys):
    args = ["--structure", "series(c1, c2, c3)", "--pmf", "0.2,0.3,0.5"]
    code, exact_out, _ = invoke(capsys, "dist", "--method", "exact", *args, "--json")
    assert code == 0
    code, closed_out, _ = invoke(capsys, "dist", "--method", "closed", *args, "--json")
    assert code == 0
    exact_doc = json.loads(exact_out)
    closed_doc = json.loads(closed_out)
    for a, b in zip(exact_doc["cdf"], closed_doc["cdf"]):
        assert abs(a - b) <= 1e-12


NESTED_PMFS = (
    "0.1,0.2,0.3,0.4", "0.25,0.25,0.25,0.25", "0.4,0.3,0.2,0.1",
    "0.05,0.15,0.3,0.5", "0.3,0.3,0.2,0.2", "0.6,0.1,0.1,0.2",
    "0.2,0.5,0.2,0.1",
)


@pytest.mark.parametrize(
    "structure,n",
    [
        ("series(c1, parallel(c2, c3))", 3),
        ("parallel(series(c1, koon(2; c2, c3, c4)), koon(1; c5, parallel(c6, c7)))", 7),
        ("koon(2; series(c1, c2), parallel(c3, koon(2; c4, c5, c6)), c7)", 7),
    ],
)
def test_dist_closed_matches_exact_on_nested_trees(capsys, structure, n):
    args = ["--structure", structure]
    for pmf in NESTED_PMFS[:n]:
        args += ["--pmf", pmf]
    code, exact_out, _ = invoke(capsys, "dist", "--method", "exact", *args, "--json")
    assert code == 0
    code, closed_out, _ = invoke(capsys, "dist", "--method", "closed", *args, "--json")
    assert code == 0
    exact_doc = json.loads(exact_out)
    closed_doc = check_schema("dist.schema.json", json.loads(closed_out))
    for key in ("pmf", "cdf"):
        for a, b in zip(exact_doc[key], closed_doc[key]):
            assert abs(a - b) <= 1e-12


def test_dist_closed_rejects_non_flat(capsys):
    # only trees that reference a component twice lack a closed form
    code, out, err = invoke(
        capsys, "dist", "--method", "closed",
        "--structure", "series(c1, parallel(c1, c2))",
        "--pmf", "0.5,0.5",
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "closed form" in err and "read-once" in err


@pytest.mark.parametrize(
    "extra",
    [
        ["--level", "5"],
        ["--level", "-1"],
        ["--level", "2", "--json"],
        ["--level", "-1", "--method", "closed"],
        ["--level", "5", "--method", "mc"],
        ["--method", "mc", "--level", "0", "--seed", "-1"],
        ["--pmf", "nan,1"],
        ["--pmf", "0.5,nan", "--method", "closed"],
        ["--pmf", "inf,0", "--method", "mc", "--level", "0"],
    ],
)
def test_dist_rejects_bad_levels_pmfs_and_seeds(capsys, extra):
    pmf = [] if "--pmf" in extra else ["--pmf", "0.5,0.5"]
    code, out, err = invoke(
        capsys, "dist", "--structure", "series(c1, c2)", *pmf, *extra
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("method", ["exact", "closed"])
def test_dist_checks_level_before_any_method_runs(capsys, method):
    # --limit 1 refuses the enumeration, so only a level check that comes
    # first can name the level
    code, out, err = invoke(
        capsys, "dist", "--method", method,
        "--structure", "series(c1, c2, c3)",
        "--pmf", "0.5,0.5", "--pmf", "0.5,0.5", "--pmf", "0.5,0.5",
        "--level", "9", "--limit", "1",
    )
    assert code == 2 and out == ""
    assert err == "error: level 9 outside 0..1\n"


def test_pipeline_sweep_rejects_negative_seed(capsys):
    code, out, err = invoke(
        capsys, "pipeline", "sweep", "--spec", ABOVE, "--trials", "10",
        "--seed", "-1",
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "seed" in err


def test_dist_mc_deterministic(capsys):
    args = [
        "dist", "--structure", "series(c1, c2)", "--method", "mc",
        "--pmf", "0.5,0.5", "--level", "0", "--samples", "20000",
        "--seed", "42",
    ]
    code1, out1, _ = invoke(capsys, *args)
    code2, out2, _ = invoke(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical for fixed seed
    assert out1.startswith("estimate")


def test_dist_mc_json(capsys):
    code, out, _ = invoke(
        capsys, "dist", "--structure", "series(c1, c2)", "--method", "mc",
        "--pmf", "0.5,0.5", "--level", "0", "--samples", "1000",
        "--seed", "1", "--json",
    )
    assert code == 0
    doc = check_schema("dist.schema.json", json.loads(out))
    assert doc["method"] == "mc" and doc["samples"] == 1000


def test_dist_mc_requires_level(capsys):
    code, _, err = invoke(
        capsys, "dist", "--structure", "c1", "--method", "mc",
        "--pmf", "0.5,0.5",
    )
    assert code == 2 and "--level" in err


def test_dist_requires_pmfs(capsys):
    code, _, err = invoke(capsys, "dist", "--structure", "c1")
    assert code == 2 and "--pmf" in err


def test_dist_ingests_spec_file(capsys):
    structure = "series(" + ", ".join(f"c{i}" for i in range(1, 11)) + ")"
    code, out, _ = invoke(
        capsys, "dist", "--structure", structure, "--method", "closed",
        "--spec", CASE_STUDY, "--level", "1",
    )
    assert code == 0
    assert out.strip() == "0.6513215599"


def test_coherence_component_count_too_small(capsys):
    code, _, err = invoke(
        capsys, "coherence", "--structure", "series(c1, c2)",
        "--components", "1", "--max-state", "2",
    )
    assert code == 2 and "error:" in err


def test_dist_pmf_count_mismatch(capsys):
    code, _, err = invoke(
        capsys, "dist", "--structure", "series(c1, c2, c3)",
        "--pmf", "0.5,0.5", "--pmf", "0.5,0.5",
    )
    assert code == 2 and "3 components" in err


def test_invalid_pmf_refused_while_parsed(capsys):
    # reported before the count check, and before one pmf is copied to
    # every component of a space over the limit
    for extra in (["--pmf", "0.5,0.5"], ["--limit", "1"]):
        code, out, err = invoke(
            capsys, "dist", "--structure", "series(c1, c2, c3)",
            "--pmf", "0.7,0.7", *extra,
        )
        assert_one_line_error(code, out, err)
        assert err == "error: mass sums to 1+0.4, residual over 1e-09\n"


def test_bounds(capsys):
    code, out, _ = invoke(
        capsys, "bounds", "--kind", "series", "--pmf", "0.5,0.5",
        "--pmf", "0.5,0.5", "--level", "0",
    )
    assert code == 0
    assert out.splitlines() == ["lower 0.2500000000", "upper 0.7500000000"]


def test_bounds_json(capsys):
    code, out, _ = invoke(
        capsys, "bounds", "--kind", "parallel", "--pmf", "0.5,0.5",
        "--pmf", "0.5,0.5", "--level", "0", "--json",
    )
    assert code == 0
    doc = check_schema("bounds.schema.json", json.loads(out))
    assert doc["lower"] == 0.25 and doc["upper"] == 0.75


def test_dominance(capsys):
    code, out, _ = invoke(
        capsys, "dominance", "--structure", "series(c1, c2)",
        "--pmf", "0.5,0.5", "--pmf-prime", "0.1,0.9", "--json",
    )
    assert code == 0
    doc = check_schema("dominance.schema.json", json.loads(out))
    assert doc["holds"] is True


def test_dominance_json_enumerates_each_side_once(capsys, monkeypatch):
    import mscs.cli
    import mscs.probability

    calls = []
    exact = mscs.probability.exact_system_distribution

    def counting(*args, **kwargs):
        calls.append(args[0])
        return exact(*args, **kwargs)

    monkeypatch.setattr(mscs.probability, "exact_system_distribution", counting)
    monkeypatch.setattr(mscs.cli, "exact_system_distribution", counting)
    code, out, _ = invoke(
        capsys, "dominance", "--structure", "series(c1, c2)",
        "--pmf", "0.5,0.5", "--pmf-prime", "0.1,0.9", "--json",
    )
    assert code == 0
    assert json.loads(out)["cdf"] == [0.75, 1.0]
    assert len(calls) == 2


def test_dominance_hypothesis_violation_exits_2(capsys):
    code, _, err = invoke(
        capsys, "dominance", "--structure", "series(c1, c2)",
        "--pmf", "0.1,0.9", "--pmf-prime", "0.5,0.5",
    )
    assert code == 2 and "dominance" in err


def test_pipeline_analyze_prints_case_study_value(capsys):
    code, out, _ = invoke(
        capsys, "pipeline", "analyze", "--spec", CASE_STUDY, "--level", "1"
    )
    assert code == 0
    assert out.strip() == "0.6513215599"


def test_pipeline_analyze_json(capsys):
    code, out, _ = invoke(
        capsys, "pipeline", "analyze", "--spec", CASE_STUDY,
        "--level", "1", "--json",
    )
    assert code == 0
    doc = check_schema("pipeline_analyze.schema.json", json.loads(out))
    assert abs(doc["cdf"] - (1 - 0.9**10)) <= 1e-10


def test_pipeline_analyze_missing_spec(capsys, tmp_path):
    code, _, err = invoke(
        capsys, "pipeline", "analyze", "--spec", str(tmp_path / "no.json"),
        "--level", "1",
    )
    assert code == 2 and "error:" in err


def test_pipeline_sweep_stdout_csv_deterministic(capsys):
    args = ["pipeline", "sweep", "--spec", ABOVE, "--trials", "5", "--seed", "7"]
    code1, out1, _ = invoke(capsys, *args)
    code2, out2, _ = invoke(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    lines = out1.splitlines()
    assert lines[0] == "trial,p_1_1,p_2_1,P_pipeline_1"
    assert len(lines) == 6


def test_pipeline_sweep_out_and_summary(capsys, tmp_path):
    path = tmp_path / "sweep.csv"
    code, out, _ = invoke(
        capsys, "pipeline", "sweep", "--spec", ABOVE, "--trials", "10",
        "--seed", "3", "--out", str(path),
    )
    assert code == 0
    assert path.read_text().splitlines()[0] == "trial,p_1_1,p_2_1,P_pipeline_1"
    assert "argmax_trial" in out and "corner_supremum 1.0000000000" in out


def test_pipeline_sweep_json(capsys):
    code, out, _ = invoke(
        capsys, "pipeline", "sweep", "--spec", ABOVE, "--trials", "4",
        "--seed", "11", "--json",
    )
    assert code == 0
    doc = check_schema("pipeline_sweep.schema.json", json.loads(out))
    assert len(doc["rows"]) == 4
    assert doc["corner_supremum"] == 1.0


def sweep_doc(result):
    """The sweep document as a dict, the form ``--json`` must serialize."""
    best = result.argmax_row()
    return {
        "seed": result.seed,
        "trials": result.trials,
        "corner_supremum": result.corner_supremum,
        "argmax": {
            "trial": best.trial,
            "p_1_1": best.p_1_1,
            "p_2_1": best.p_2_1,
            "P_pipeline_1": best.performance,
        },
        "rows": [
            {"trial": t, "p_1_1": a, "p_2_1": b, "P_pipeline_1": p}
            for t, a, b, p in zip(*result.columns())
        ],
    }


@pytest.mark.parametrize("scenario", ["default", "above_average", "below_average"])
def test_pipeline_sweep_json_bytes_match_json_dumps(capsys, scenario):
    path = str(case_study_path(scenario))
    spec = load_pipeline_spec(path)
    for trials in (1, 2, 10_000):
        # 7, 11, 23 and 42 are the benchmark's pinned sweep seeds
        # 11026 draws 4.97e-06 in its first trial, a row the %r template
        # renders
        for seed in (0, 7, 11, 23, 42, 11026, 2**32 + 5):
            code, out, err = invoke(
                capsys, "pipeline", "sweep", "--spec", path,
                "--trials", str(trials), "--seed", str(seed), "--json",
            )
            assert code == 0 and err == ""
            doc = sweep_doc(sweep_state1(spec, trials, seed))
            want = json.dumps(doc, sort_keys=True) + "\n"
            # rows first: a failure names the first differing row, where a
            # diff of the whole ~0.9 MB text would run for minutes
            rows, want_rows = out.split("}, {"), want.split("}, {")
            pairs = enumerate(zip_longest(rows, want_rows))
            first = next((i for i, (got, row) in pairs if got != row), None)
            assert first is None, (
                f"row {first}: {rows[first:first + 1]} != "
                f"{want_rows[first:first + 1]}"
            )
            assert out == want
            if seed == 11026:
                assert "e-06, " in out
            if seed == 7:
                check_schema("pipeline_sweep.schema.json", json.loads(out))


def test_shipped_specs_match_published_schema():
    schema = json.loads((SCHEMAS / "pipeline_spec.schema.json").read_text())
    for scenario in ("default", "above_average", "below_average"):
        doc = json.loads(case_study_path(scenario).read_text())
        jsonschema.validate(doc, schema)


def test_limit_flag_and_env(capsys, monkeypatch):
    code, _, err = invoke(
        capsys, "coherence", "--structure", "series(c1, c2, c3)",
        "--max-state", "4", "--limit", "10",
    )
    assert code == 2 and "limit" in err
    monkeypatch.setenv("MSCS_LIMIT", "10")
    code, _, err = invoke(
        capsys, "coherence", "--structure", "series(c1, c2, c3)",
        "--max-state", "4",
    )
    assert code == 2 and "limit" in err
    # explicit flag overrides the environment
    code, out, _ = invoke(
        capsys, "coherence", "--structure", "series(c1, c2, c3)",
        "--max-state", "4", "--limit", "1000",
    )
    assert code == 0


@pytest.mark.parametrize("value", ["abc", "-5", "1.5", "1e8", ""])
def test_limit_env_rejects_malformed_values(capsys, monkeypatch, value):
    monkeypatch.setenv("MSCS_LIMIT", value)
    code, out, err = invoke(
        capsys, "coherence", "--structure", "series(c1, c2, c3)",
        "--max-state", "4",
    )
    assert code == 2 and out == ""
    assert err.startswith("error: MSCS_LIMIT") and err.count("\n") == 1
    # an explicit flag does not consult the environment at all
    code, _, _ = invoke(
        capsys, "coherence", "--structure", "series(c1, c2, c3)",
        "--max-state", "4", "--limit", "1000",
    )
    assert code == 0


@pytest.mark.parametrize(
    "command",
    [
        ["coherence", "--structure", "series(c1,c2)", "--max-state", "2"],
        ["ucv", "--structure", "series(c1,c2)", "--max-state", "2",
         "--level", "1"],
        ["dist", "--method", "exact", "--structure", "series(c1,c2)",
         "--pmf", "0.5,0.5"],
        ["dominance", "--structure", "series(c1,c2)", "--pmf", "0.5,0.5",
         "--pmf-prime", "0.1,0.9"],
    ],
    ids=["coherence", "ucv", "dist_exact", "dominance"],
)
def test_limit_flag_rejects_negative_value(capsys, command):
    # the flag shares the environment variable's check, so -5 is malformed
    # rather than a limit the state space is "over"
    code, out, err = invoke(capsys, *command, "--limit", "-5")
    assert code == 2 and out == ""
    assert err == "error: limit must be a non-negative integer, got -5\n"
    code, _, err = invoke(capsys, *command, "--limit", "0")
    assert code == 2 and "over the limit 0" in err


@pytest.mark.parametrize("method", ["closed", "mc"])
def test_limit_flag_checked_by_commands_that_do_not_enumerate(capsys, method):
    command = ["dist", "--method", method, "--structure", "series(c1,c2)",
               "--pmf", "0.5,0.5", "--level", "0"]
    code, out, err = invoke(capsys, *command, "--limit", "-5")
    assert code == 2 and out == ""
    assert err == "error: limit must be a non-negative integer, got -5\n"
    # a well-formed limit is accepted and bounds nothing here
    code, out, err = invoke(capsys, *command, "--limit", "0")
    assert code == 0 and out and err == ""


def test_limit_env_rejects_malformed_value_in_a_fresh_process():
    proc = subprocess.run(
        [sys.executable, "-m", "mscs", "coherence", "--structure",
         "series(c1, c2)", "--max-state", "2"],
        capture_output=True,
        text=True,
        env={**os.environ, "MSCS_LIMIT": "abc"},
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip() == (
        "error: MSCS_LIMIT must be a non-negative integer, got 'abc'"
    )


USAGE_ERRORS = {
    "unknown_command": ["frobnicate"],
    "no_command": [],
    "missing_flags": ["coherence"],
    "missing_one_flag": ["coherence", "--structure", "c1"],
    "missing_subcommand": ["pipeline"],
    "missing_sub_flags": ["pipeline", "sweep", "--spec", CASE_STUDY],
    "not_an_int": ["dist", "--structure", "c1", "--pmf", "0.5,0.5", "--limit", "abc"],
    "bad_choice": ["dist", "--structure", "c1", "--pmf", "0.5,0.5", "--method", "x"],
    "unknown_flag": ["eval", "--structure", "c1", "--state", "1", "--frob"],
}


def test_usage_errors_exit_2(capsys):
    # argparse's own refusals end like every other input error: one line
    # naming the problem, not a usage block
    for name, argv in USAGE_ERRORS.items():
        code, out, err = invoke(capsys, *argv)
        assert_one_line_error(code, out, err)
        assert "usage:" not in err, name


def test_reused_parser_matches_a_fresh_one(capsys, monkeypatch):
    import mscs.cli

    coherence = ["coherence", "--structure", "series(c1, c2, c3)",
                 "--max-state", "4"]
    dominance = ["dominance", "--structure", "series(c1, c2)", "--json"]
    steps = [  # (MSCS_LIMIT, argv), run in this order in one process
        (None, ["coherence", "--max-state", "4"]),  # usage error
        (None, ["eval", "--structure", "series(c1, c2)", "--state", "1,2"]),
        (None, [*coherence, "--limit", "10"]),
        (None, coherence),
        ("10", coherence),
        (None, [*dominance, "--pmf", "0.5,0.5", "--pmf", "0.2,0.8",
                "--pmf-prime", "0.1,0.9", "--pmf-prime", "0.1,0.9"]),
        # a leaked --pmf list would hold three pmfs for two components
        (None, [*dominance, "--pmf", "0.6,0.4", "--pmf-prime", "0.3,0.7"]),
        (None, ["--version"]),
    ]

    def run_steps():
        results = []
        for limit, argv in steps:
            if limit is None:
                monkeypatch.delenv("MSCS_LIMIT", raising=False)
            else:
                monkeypatch.setenv("MSCS_LIMIT", limit)
            results.append(invoke(capsys, *argv))
        return results

    assert mscs.cli._build_parser() is mscs.cli._build_parser()
    reused = run_steps()
    monkeypatch.setattr(
        mscs.cli, "_build_parser", mscs.cli._build_parser.__wrapped__
    )
    fresh = run_steps()
    assert [code for code, _, _ in reused] == [2, 0, 2, 0, 2, 0, 0, 0]
    assert reused == fresh


def test_help_exits_0(capsys):
    assert invoke(capsys, "--help")[0] == 0
    assert invoke(capsys, "dist", "--help")[0] == 0


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "mscs", "eval", "--structure", "c1",
         "--state", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "3"


@functools.cache
def _import_vm_peak():
    """VmPeak, in bytes, of a fresh interpreter once it has imported
    ``mscs.cli``: the address space every capped child starts from."""
    proc = subprocess.run(
        [sys.executable, "-c", "import mscs.cli\n"
         "print(next(line.split()[1] for line in open('/proc/self/status')"
         " if line.startswith('VmPeak:')))"],
        capture_output=True,
        text=True,
        check=True,
    )
    return int(proc.stdout) << 10


def _cap_address_space(budget=None):
    """A ``preexec_fn`` that caps the child's address space at 1 GiB, or at
    the import's VmPeak plus ``budget`` bytes: a regression fails the test
    rather than taking the test runner down with it."""
    cap = 1 << 30 if budget is None else _import_vm_peak() + budget

    def preexec():
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    return preexec


def _run_capped(budget, *argv):
    """The JSON document ``python -m mscs`` prints for ``argv`` within the
    import's address space plus ``budget`` bytes."""
    proc = subprocess.run(
        [sys.executable, "-m", "mscs", *argv, "--json"],
        capture_output=True,
        text=True,
        env={k: v for k, v in os.environ.items() if k != "MSCS_LIMIT"},
        preexec_fn=_cap_address_space(budget),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-500:]
    assert proc.stderr == ""
    return json.loads(proc.stdout)


def test_exact_distribution_streams_within_capped_address_space():
    # 5^12 vectors, whose level table alone would take 233 MiB: the levels
    # stream slab by slab within the import plus 256 MiB
    rest = ", ".join(f"c{i}" for i in range(7, 13))
    doc = _run_capped(
        256 << 20, "dist", "--structure",
        f"series(c1, parallel(c2, c3), koon(2; c4, c5, c6), {rest})",
        "--pmf", "0.1,0.2,0.3,0.25,0.15", "--limit", "300000000",
    )
    assert abs(doc["cdf"][-1] - 1) <= 1e-9


def test_wide_koon_coherence_within_capped_address_space():
    # a tree's binary image (2^24 entries) is filled from the exact path's
    # slabs within the import plus 256 MiB, where evaluating the koon node
    # over the whole image at once would hold 24 copies of it
    comps = ", ".join(f"c{i}" for i in range(1, 25))
    doc = _run_capped(
        256 << 20, "coherence", "--structure", f"koon(12; {comps})",
        "--max-state", "1",
    )
    assert doc["overall"] is True


def test_monte_carlo_wide_series_within_capped_address_space():
    # draws come 1 MiB a block, never fewer than 4,096 trials, so 1000
    # components run within the import plus 128 MiB, where a 65,536-trial
    # block of their draws alone would take 524 MB
    comps = ", ".join(f"c{i}" for i in range(1, 1001))
    doc = _run_capped(
        128 << 20, "dist", "--method", "mc", "--structure", f"series({comps})",
        "--pmf", "0.001,0.999", "--level", "0", "--samples", "100000",
    )
    exact = 1 - 0.999**1000
    sigma = (exact * (1 - exact) / doc["samples"]) ** 0.5
    assert abs(doc["estimate"] - exact) <= 5 * sigma


@pytest.mark.parametrize(
    "command",
    [
        ["coherence", "--max-state", "1"],
        ["ucv", "--level", "1", "--max-state", "1"],
        ["dist", "--pmf", "0.5,0.5"],
        ["dominance", "--pmf", "0.5,0.5", "--pmf-prime", "0.5,0.5"],
    ],
    ids=["coherence", "ucv", "dist", "dominance"],
)
def test_huge_component_index_exits_2_before_allocating(command):
    # (M+1)^n for n = 10^14 must not be built just to compare it with the
    # limit, nor a single --pmf broadcast to 10^14 components; the child's
    # address space is capped so that a regression fails this test rather
    # than taking the test runner down with it
    proc = subprocess.run(
        [sys.executable, "-m", "mscs", *command, "--structure",
         "series(c1, c99999999999999)"],
        capture_output=True,
        text=True,
        env={k: v for k, v in os.environ.items() if k != "MSCS_LIMIT"},
        preexec_fn=_cap_address_space(),
        timeout=60,
    )
    assert proc.returncode == 2, proc.stderr[-500:]
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: state space holds 2^99999999999999 vectors, over the limit "
        "100000000; raise the limit explicitly to proceed\n"
    )


@pytest.mark.parametrize(
    "command",
    [
        ["dist", "--method", "closed", "--structure",
         "series(c1, c99999999999999)", "--pmf", "0.5,0.5"],
        ["dist", "--method", "mc", "--level", "0", "--structure",
         "series(c1, c99999999999999)", "--pmf", "0.5,0.5"],
        ["dist", "--method", "closed", "--structure",
         "series(c1, c99999999999999999999)", "--pmf", "0.5,0.5"],
        ["dist", "--method", "mc", "--level", "0", "--structure",
         "series(c1, c99999999999999999999)", "--pmf", "0.5,0.5"],
    ],
    ids=["dist_closed", "dist_mc", "dist_closed_overflow", "dist_mc_overflow"],
)
def test_out_of_memory_exits_2_with_one_line(command):
    # none of these enumerate, so no guard refuses them first: the
    # allocation fails within the capped address space, or a count past
    # the largest index cannot even be asked for (OverflowError)
    proc = subprocess.run(
        [sys.executable, "-m", "mscs", *command],
        capture_output=True,
        text=True,
        preexec_fn=_cap_address_space(),
        timeout=60,
    )
    assert_one_line_error(proc.returncode, proc.stdout, proc.stderr)
    assert proc.stderr.startswith("error: out of memory: ")


def test_sweep_streams_huge_trial_count_within_capped_address_space(capsys):
    # 10^11 trials as columns would take 2.4 TB; the rows are drawn from
    # the seed a block at a time, so they stream within the import plus
    # 64 MiB. The reader closes the pipe after the header and 10,000 rows,
    # as `head` does (capture_output would buffer the whole stream), and
    # the command then ends with 0 and nothing on stderr
    _, want, _ = invoke(
        capsys, "pipeline", "sweep", "--spec", ABOVE, "--trials", "10000",
        "--seed", "1",
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "mscs", "pipeline", "sweep", "--spec", ABOVE,
         "--trials", "100000000000", "--seed", "1"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        preexec_fn=_cap_address_space(64 << 20),
    )
    watchdog = threading.Timer(60, proc.kill)
    watchdog.start()
    try:
        got = [proc.stdout.readline() for _ in range(10_001)]
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
    assert "".join(got) == want
    assert proc.returncode == 0
    assert err == ""


# stdout buffered, as it is for a pipe unless PYTHONUNBUFFERED is set
BUFFERED_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


@pytest.mark.parametrize("extra", [[], ["--json"]], ids=["csv", "json"])
def test_closed_stdout_exits_0_with_no_message(extra):
    # a reader that stops early, as `mscs pipeline sweep ... | head` does,
    # is not an input error: the command ends with 0 and an empty stderr,
    # and the interpreter's last flush of stdout raises nothing either
    proc = subprocess.Popen(
        [sys.executable, "-m", "mscs", "pipeline", "sweep", "--spec", ABOVE,
         "--trials", "100000000", "--seed", "1", *extra],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=BUFFERED_ENV,
        preexec_fn=_cap_address_space(64 << 20),
    )
    try:
        head = proc.stdout.read(1000)  # the header and a few rows
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert head.startswith(b'{"argmax": ' if extra else b"trial,p_1_1,")
    assert proc.returncode == 0
    assert err == b""


def _close_stdout():
    os.close(1)


@pytest.mark.parametrize("closed_fd", [False, True], ids=["unread", "closed_fd"])
def test_stdout_closed_before_any_write_exits_0_with_no_message(
    capsys, tmp_path, closed_fd
):
    # the output fits the stdout buffer, so it is first written by the
    # interpreter's last flush, after the reader is gone: that flush must
    # not raise. With descriptor 1 closed from the start, sys.stdout is None:
    # the sweep's CSV and --json writers are skipped, and its --out file
    # still holds the bytes of a run with stdout open
    sweep = ["pipeline", "sweep", "--spec", ABOVE, "--trials", "3", "--seed", "1"]
    commands = [["eval", "--structure", "c1", "--state", "3"]]
    if closed_fd:
        closed_out = tmp_path / "closed.csv"
        commands += [sweep, [*sweep, "--json"], [*sweep, "--out", str(closed_out)]]
    for command in commands:
        proc = subprocess.Popen(
            [sys.executable, "-m", "mscs", *command],
            stdout=None if closed_fd else subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=BUFFERED_ENV,
            preexec_fn=_close_stdout if closed_fd else None,
        )
        if not closed_fd:
            proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, command
        assert err == b"", command
    if closed_fd:
        open_out = tmp_path / "open.csv"
        assert invoke(capsys, *sweep, "--out", str(open_out))[0] == 0
        assert closed_out.read_bytes() == open_out.read_bytes()


#: One invocation of each command that prints through the CLI's one writer,
#: and its exit code.
WRITER_COMMANDS = {
    "coherence": (
        ["coherence", "--structure", "series(c1, c2)", "--max-state", "2"],
        0,
    ),
    "coherence_fails": (
        ["coherence", "--structure", "parallel(c1, c1)", "--components", "2",
         "--max-state", "2"],
        1,
    ),
    "eval": (["eval", "--structure", "c1", "--state", "3"], 0),
    "ucv": (
        ["ucv", "--structure", "parallel(c1, c2)", "--max-state", "2",
         "--level", "1"],
        0,
    ),
    "dist_exact": (
        ["dist", "--structure", "series(c1, c2)", "--pmf", "0.5,0.5"],
        0,
    ),
    "dist_closed_level": (
        ["dist", "--structure", "series(c1, c2)", "--pmf", "0.5,0.5",
         "--method", "closed", "--level", "0"],
        0,
    ),
    "dist_mc": (
        ["dist", "--structure", "series(c1, c2)", "--pmf", "0.5,0.5",
         "--method", "mc", "--level", "0", "--samples", "100"],
        0,
    ),
    "bounds": (
        ["bounds", "--kind", "series", "--pmf", "0.5,0.5", "--level", "0"],
        0,
    ),
    "dominance": (
        ["dominance", "--structure", "series(c1, c2)", "--pmf", "0.5,0.5",
         "--pmf-prime", "0.1,0.9"],
        0,
    ),
    "pipeline_analyze": (
        ["pipeline", "analyze", "--spec", CASE_STUDY, "--level", "1"],
        0,
    ),
}


@pytest.mark.parametrize("extra", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize(
    "argv, want", WRITER_COMMANDS.values(), ids=list(WRITER_COMMANDS)
)
def test_writer_commands_with_stdout_none_exit_as_usual(
    capsys, monkeypatch, argv, want, extra
):
    # sys.stdout is None when the process starts with descriptor 1 closed:
    # print writes nothing, and the command ends with its usual code
    assert run_cli([*argv, *extra]) == want
    assert capsys.readouterr().out
    monkeypatch.setattr(sys, "stdout", None)
    assert run_cli([*argv, *extra]) == want
    monkeypatch.undo()
    assert capsys.readouterr() == ("", "")


def assert_one_line_error(code, out, err):
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err[-500:]


SPEC_COMMANDS = {
    "pipeline_analyze": ["pipeline", "analyze", "--level", "1", "--spec"],
    "pipeline_sweep": ["pipeline", "sweep", "--trials", "2", "--seed", "1", "--spec"],
    "dist": ["dist", "--structure", "series(c1, c2)", "--spec"],
    "bounds": ["bounds", "--kind", "series", "--level", "1", "--spec"],
    "dominance": [
        "dominance", "--structure", "series(c1, c2)", "--pmf", "0.5,0.5",
        "--spec-prime",
    ],
}


@pytest.mark.parametrize("command", SPEC_COMMANDS.values(), ids=list(SPEC_COMMANDS))
@pytest.mark.parametrize(
    "content", UNDECODABLE_SPECS.values(), ids=list(UNDECODABLE_SPECS)
)
def test_undecodable_spec_exits_2_with_one_line(capsys, tmp_path, command, content):
    path = tmp_path / "spec.json"
    path.write_bytes(content)
    assert_one_line_error(*invoke(capsys, *command, str(path)))


ONE_LEVEL_COMMANDS = {
    "dist_exact": ["dist", "--structure", "c1"],
    "dist_exact_broadcast": ["dist", "--structure", "series(c1, c2)"],
    "dist_closed": ["dist", "--method", "closed", "--structure", "c1"],
    "dist_mc": ["dist", "--method", "mc", "--level", "0", "--structure", "c1"],
    "bounds": ["bounds", "--kind", "series", "--level", "0"],
    "dominance": ["dominance", "--structure", "c1", "--pmf-prime", "1"],
}


@pytest.mark.parametrize(
    "command", ONE_LEVEL_COMMANDS.values(), ids=list(ONE_LEVEL_COMMANDS)
)
def test_one_entry_pmf_exits_2_with_the_same_line(capsys, command):
    # M >= 1 for every command: the family check refuses M = 0, and so does
    # the guard that runs before a single --pmf is broadcast
    code, out, err = invoke(capsys, *command, "--pmf", "1")
    assert_one_line_error(code, out, err)
    assert err == "error: max_state must be in 1..255, got 0\n"


def test_one_level_spec_exits_2_with_the_same_line(capsys, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(
        json.dumps({"max_state": 0, "segments": [{"name": "a", "pmf": [1]}]})
    )
    for command in SPEC_COMMANDS.values():
        code, out, err = invoke(capsys, *command, str(path))
        assert_one_line_error(code, out, err)
        assert err == "error: max_state must be in 1..255, got 0\n"


def test_max_state_ceiling_binds_only_the_enumerator(capsys):
    # 301 levels, all mass on the top one
    pmf = ",".join(["0"] * 300 + ["1"])
    zero = "0.0000000000"
    dist = ["dist", "--structure", "c1", "--level", "299", "--method"]
    for command, want in (
        ([*dist, "closed"], f"{zero}\n"),
        ([*dist, "mc", "--samples", "10"], f"estimate  {zero}\nstd_error {zero}\n"),
        (["bounds", "--kind", "series", "--level", "299"], f"lower {zero}\nupper {zero}\n"),
    ):
        assert invoke(capsys, *command, "--pmf", pmf) == (0, want, "")
    for command in (
        [*dist, "exact"],
        ["dominance", "--structure", "c1", "--pmf-prime", pmf],
    ):
        code, out, err = invoke(capsys, *command, "--pmf", pmf)
        assert_one_line_error(code, out, err)
        assert err == "error: max_state must be in 1..255, got 300\n"


def test_dist_mc_refuses_out(capsys, tmp_path):
    # Monte-Carlo gives one estimate, not a distribution to write
    path = tmp_path / "x.csv"
    code, out, err = invoke(
        capsys, "dist", "--structure", "series(c1, c2)", "--pmf", "0.5,0.5",
        "--method", "mc", "--level", "0", "--out", str(path),
    )
    assert_one_line_error(code, out, err)
    assert "--out" in err
    assert not path.exists()


# each refusal's argv, and the spec text written to a file after it
REFUSALS = {
    "bad_state": (["eval", "--structure", "c1", "--state", "a"], None),
    "bad_pmf": (["dist", "--structure", "c1", "--pmf", "x,y"], None),
    "pmf_and_spec": (["dist", "--structure", "c1", "--pmf", "0.5,0.5", "--spec"], "{}"),
    "spec_top_level_array": (["dist", "--structure", "c1", "--spec"], "[1, 2]"),
    "spec_segment_not_object": (
        ["pipeline", "analyze", "--level", "1", "--spec"],
        '{"max_state": 1, "segments": [3]}',
    ),
    # fields the schema does not list, misspelt or extra, at both levels
    "spec_unknown_fields": (
        ["pipeline", "analyze", "--level", "0", "--spec"],
        '{"max_state": 1, "note": "x", "segments": [{"name": "a", "pmf": '
        '[0.5, 0.5], "wieght": 2}, {"name": "b", "pmf": [0.25, 0.75]}]}',
    ),
    # the koon node refuses k, the parser a series of one child
    "koon_k_past_children": (
        ["eval", "--structure", "koon(3; c1, c2)", "--state", "1,1"], None
    ),
    "series_of_one_child": (["eval", "--structure", "series(c1)", "--state", "1"], None),
    "dominance_max_state_mismatch": (
        [
            "dominance", "--structure", "series(c1, c2)", "--pmf", "0.5,0.5",
            "--pmf-prime", "0.2,0.3,0.5",
        ],
        None,
    ),
}


@pytest.mark.parametrize("argv, spec", REFUSALS.values(), ids=list(REFUSALS))
def test_refusals_exit_2_with_one_line(capsys, tmp_path, argv, spec):
    if spec is not None:
        path = tmp_path / "spec.json"
        path.write_text(spec)
        argv = [*argv, str(path)]
    assert_one_line_error(*invoke(capsys, *argv))


PMF = ["--pmf", "0.2,0.3,0.5"]
NESTING_COMMANDS = {
    "eval": ["eval", "--state", "1,2"],
    "coherence": ["coherence", "--max-state", "2"],
    "ucv": ["ucv", "--max-state", "2", "--level", "1"],
    "dist_exact": ["dist", *PMF],
    "dist_closed": ["dist", "--method", "closed", *PMF],
    "dist_mc": ["dist", "--method", "mc", "--level", "1", "--samples", "100", *PMF],
    "dominance": ["dominance", "--pmf", "0.3,0.3,0.4", "--pmf-prime", "0.2,0.3,0.5"],
}


@pytest.mark.parametrize(
    "command", NESTING_COMMANDS.values(), ids=list(NESTING_COMMANDS)
)
def test_dsl_nesting_bound(capsys, command):
    # shared components keep the space at 3^2 vectors; the closed form
    # needs a read-once tree and never enumerates
    read_once = "closed" in command
    at_bound = nested_chain(MAX_NESTING, read_once=read_once)
    code, out, err = invoke(capsys, *command, "--structure", at_bound)
    assert code == 0 and out and err == ""
    past = nested_chain(MAX_NESTING + 1, read_once=read_once)
    code, out, err = invoke(capsys, *command, "--structure", past)
    assert_one_line_error(code, out, err)
    # the offset of the innermost operator, the one past the bound
    assert f"nest deeper than {MAX_NESTING} levels" in err
    assert f"(at byte {past.rindex('series') + 1})" in err


def test_undecodable_inputs_exit_2_in_a_fresh_process(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_bytes(UNDECODABLE_SPECS["not_utf8"])
    for argv in (
        ["pipeline", "analyze", "--spec", str(spec), "--level", "1"],
        ["eval", "--structure", nested_chain(MAX_NESTING + 1), "--state", "1,1"],
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "mscs", *argv], capture_output=True, text=True
        )
        assert_one_line_error(proc.returncode, proc.stdout, proc.stderr)
        assert "Traceback" not in proc.stderr


# The exit-code contract under random invocations: small structures, pmfs,
# levels, counts and spec files, valid or not. Every invocation ends with 0,
# 1 or 2; no exception escapes run_cli (which in a process is a traceback);
# exit 2 prints exactly one stderr line; exit 1 is a failed coherence or
# dominance verdict and nothing else.
FUZZ_N, FUZZ_M, FUZZ_COUNT = 6, 3, 1000
RARELY = st.sampled_from([False] * 9 + [True])


@st.composite
def fuzz_structure(draw, depth=2):
    """DSL text over c1..c6, now and then broken."""
    if depth == 0 or draw(st.booleans()):
        return f"c{draw(st.integers(0 if draw(RARELY) else 1, FUZZ_N))}"
    children = draw(st.lists(
        fuzz_structure(depth - 1), min_size=1 if draw(RARELY) else 2, max_size=3
    ))
    op = draw(st.sampled_from(["series", "parallel", "koon"]))
    if op == "koon":
        k = draw(st.integers(0, 4) if draw(RARELY) else st.integers(1, len(children)))
        return f"koon({k}; {', '.join(children)})"
    return f"{op}({', '.join(children)})"


@st.composite
def fuzz_pmf(draw, max_state):
    """A pmf over 0..max_state as ``--pmf`` text, now and then broken."""
    if draw(RARELY):
        masses = st.sampled_from(["0", "0.5", "1", "-0.5", "nan", "x", ""])
        return ",".join(draw(st.lists(masses, min_size=1, max_size=4)))
    weights = draw(st.lists(
        st.integers(0, 4), min_size=max_state + 1, max_size=max_state + 1
    ).filter(any))
    return ",".join(repr(w / sum(weights)) for w in weights)


@st.composite
def fuzz_spec(draw, max_state):
    """The text of a pipeline spec file, now and then broken."""
    if draw(RARELY):
        return draw(st.sampled_from([
            "", "[1, 2]", "{", '{"max_state": true}',
            '{"max_state": 1, "segments": []}',
        ]))
    segments = []
    for i in range(draw(st.integers(1, FUZZ_N))):
        pmf = draw(fuzz_pmf(max_state)).split(",")
        try:
            pmf = [float(p) for p in pmf]
        except ValueError:
            pass  # the loader refuses it as an array of non-numbers
        segments.append({"name": f"s{i}", "pmf": pmf})
    return json.dumps({"max_state": max_state, "segments": segments})


def _optional(draw, flag, values):
    value = draw(st.one_of(st.none(), values))
    return [] if value is None else [flag, str(value)]


@st.composite
def fuzz_invocation(draw):
    """``(command, argv, spec texts)``: ``{spec}`` and ``{spec_prime}`` in
    argv name files holding those texts, ``{out}`` a file to write."""
    command = draw(st.sampled_from([
        "coherence", "eval", "ucv", "dist", "bounds", "dominance",
        "pipeline analyze", "pipeline sweep",
    ]))
    # one level range for the whole invocation, now and then another
    max_state = draw(st.integers(1, FUZZ_M))
    states = st.integers(0, FUZZ_M) if draw(RARELY) else st.just(max_state)
    structure = ["--structure", draw(fuzz_structure())]
    level = st.integers(-1, FUZZ_M + 1)
    count = st.integers(-1, FUZZ_COUNT) if draw(RARELY) else st.integers(1, FUZZ_COUNT)
    limits = st.sampled_from(["0", "5", "4096", "-1", "abc"])
    limit = _optional(draw, "--limit", limits)
    json_flag = ["--json"] if draw(st.booleans()) else []

    def dists(flag="--pmf", spec_flag="--spec", key="{spec}"):
        if draw(st.integers(0, 3)) == 0:
            return [spec_flag, key]
        # one pmf broadcasts to every component; a count may mismatch
        pmfs = [draw(fuzz_pmf(draw(states)))
                for _ in range(draw(st.integers(0, 3)) if draw(RARELY) else 1)]
        return [arg for pmf in pmfs for arg in (flag, pmf)]

    if command in ("coherence", "ucv"):
        argv = [*structure, "--max-state", str(draw(states))]
        if draw(RARELY):
            argv += ["--components", str(draw(st.integers(0, FUZZ_N + 1)))]
        if command == "ucv":
            argv += ["--level", str(draw(level))]
        argv += limit
    elif command == "eval":
        size = draw(st.integers(1, FUZZ_N)) if draw(RARELY) else FUZZ_N
        state = draw(st.lists(states, min_size=size, max_size=size))
        argv = [*structure, "--state", ",".join(map(str, state))]
    elif command == "dist":
        method = draw(st.sampled_from(["exact", "closed", "mc"]))
        argv = [*structure, "--method", method, *dists(), *limit]
        argv += _optional(draw, "--level", level)
        argv += _optional(draw, "--samples", count)
        argv += _optional(draw, "--seed", st.integers(-1, 5))
        if draw(RARELY):
            argv += ["--out", "{out}"]
    elif command == "bounds":
        kind = draw(st.sampled_from(["series", "parallel", "neither"]))
        argv = ["--kind", kind, *dists(), "--level", str(draw(level))]
    elif command == "dominance":
        primed = dists("--pmf-prime", "--spec-prime", "{spec_prime}")
        argv = [*structure, *dists(), *primed, *limit]
    elif command == "pipeline analyze":
        argv = ["--spec", "{spec}", "--level", str(draw(level))]
    else:
        argv = ["--spec", "{spec}", "--trials", str(draw(count)),
                "--seed", str(draw(st.integers(-1, 5)))]
        if draw(RARELY):
            argv += ["--out", "{out}"]
    specs = {key: draw(fuzz_spec(draw(states))) for key in ("spec", "spec_prime")}
    return command, [*command.split(), *argv, *json_flag], specs


@settings(max_examples=200, deadline=None)
@given(fuzz_invocation())
def test_cli_exit_code_contract(invocation):
    command, argv, specs = invocation
    with tempfile.TemporaryDirectory() as scratch:
        paths = {"out": os.path.join(scratch, "out.csv")}
        for key, text in specs.items():
            paths[key] = os.path.join(scratch, f"{key}.json")
            Path(paths[key]).write_text(text)
        argv = [arg.format(**paths) if arg.startswith("{") else arg for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli(argv)
    err = err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, argv
    if code == 2:
        assert len(err.splitlines()) == 1 and err.startswith("error: "), (argv, err)
    if code == 1:
        assert command in ("coherence", "dominance"), (argv, err)


@st.composite
def valid_pmf(draw, max_state):
    """A valid pmf over 0..max_state; now and then its largest entry is
    raised an ulp at a time until its math.fsum is 1 + 2**-52."""
    weights = draw(st.lists(
        st.integers(0, 1000), min_size=max_state + 1, max_size=max_state + 1
    ).filter(any))
    pmf = [w / sum(weights) for w in weights]
    if draw(st.booleans()):
        top = pmf.index(max(pmf))
        while math.fsum(pmf) <= 1.0 and pmf[top] < 1.0:
            pmf[top] = math.nextafter(pmf[top], 2.0)
    return tuple(pmf)


@st.composite
def schema_case(draw):
    """``(tree, pmfs, kind, state, level)``: a read-once tree over c1..cn,
    one valid pmf per component, a bounds kind, a state vector and a
    level."""
    n = draw(st.integers(1, FUZZ_N))
    max_state = draw(st.integers(1, FUZZ_M))
    indices = draw(st.permutations(range(1, n + 1)))
    tree = format_expr(random_read_once_expr(draw(st.randoms()), indices))
    pmfs = [draw(valid_pmf(max_state)) for _ in range(n)]
    kind = draw(st.sampled_from(["series", "parallel"]))
    state = draw(st.lists(st.integers(0, max_state), min_size=n, max_size=n))
    return tree, pmfs, kind, state, draw(st.integers(0, max_state))


# Exact `dist` and `dominance` are left out: the enumerator's accumulated
# top CDF can round above 1, and perfbench/pins.json pins those commands'
# stdout bytes by sha256 (dist_exact, dominance, dominance_json).
@settings(max_examples=60, deadline=None)
@given(schema_case())
@example(("parallel(c1, c2)", [ABOVE_ONE, ABOVE_ONE], "series", [0, 0], 2))
def test_json_documents_inside_their_schemas(case):
    tree, pmfs, kind, state, level = case
    max_state = len(pmfs[0]) - 1
    pmf_args = [arg for pmf in pmfs for arg in ("--pmf", ",".join(map(repr, pmf)))]
    structure = ["--structure", tree]
    with tempfile.TemporaryDirectory() as scratch:
        spec = os.path.join(scratch, "spec.json")
        segments = [{"name": f"s{i}", "pmf": pmf} for i, pmf in enumerate(pmfs)]
        Path(spec).write_text(
            json.dumps({"max_state": max_state, "segments": segments})
        )
        runs = [
            ("dist", ["dist", *structure, "--method", "closed", *pmf_args]),
            ("dist", ["dist", *structure, "--method", "mc", *pmf_args,
                      "--level", str(level), "--samples", "64"]),
            ("coherence", ["coherence", *structure, "--max-state", str(max_state)]),
            ("ucv", ["ucv", *structure, "--max-state", str(max_state),
                     "--level", str(level)]),
            ("eval", ["eval", *structure, "--state", ",".join(map(str, state))]),
        ]
        for at in map(str, range(max_state + 1)):
            runs += [
                ("bounds", ["bounds", "--kind", kind, *pmf_args, "--level", at]),
                ("pipeline_analyze", ["pipeline", "analyze", "--spec", spec,
                                      "--level", at]),
            ]
        for name, argv in runs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run_cli([*argv, "--json"])
            # a coherence failure exits 1 with its document
            assert code == 0 or (name, code) == ("coherence", 1), argv
            check_schema(f"{name}.schema.json", json.loads(out.getvalue()))
