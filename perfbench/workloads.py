"""The benchmark's workloads: inputs drawn from the seed, the timed pass,
the output checks, and the per-layer probes of the traced run.

Every workload is a closed loop: one caller makes each call only after the
previous one returned. The three workloads stress different layers:

* ``exhaustive`` - full-space passes over n=10 components, M=4, on a
  read-once tree and on a tree with shared components. Each pass relabels
  the components and draws fresh PMFs from (seed, pass), so no pass can
  reuse a result cached by an earlier one.
* ``sampling`` - seeded Monte-Carlo, the state-1 sweep with its CSV
  export, and the pipeline closed form; it never enumerates.
* ``cli`` - ``mscs.cli.run_cli`` in process over the README commands plus
  a JSON sweep and a JSON dominance check, where fixed per-call cost
  dominates.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from mscs import (
    ComponentDistribution,
    case_study_path,
    cdf_bounds,
    check_boundary,
    check_monotonicity,
    check_relevance,
    closed_form_cdf,
    coherence_report,
    dominance_check,
    enumerate_ucv,
    eval_expr_batch,
    exact_system_distribution,
    export_results,
    load_pipeline_spec,
    monte_carlo_cdf,
    parse_expr,
    pipeline_cdf,
    sweep_state1,
)
from mscs.cli import run_cli
from mscs.enumeration import iter_vector_chunks, level_table

import reference as ref
from reference import c, koon, parallel, series
from tracing import OFF

N = 10
MAX_STATE = 4
READ_ONCE = series(
    c(1), parallel(c(2), c(3)), koon(2, c(4), c(5), c(6)), c(7), c(8), c(9), c(10)
)
SHARED = parallel(
    series(c(1), c(2), koon(2, c(3), c(4), c(5))),
    series(c(1), c(6), c(7)),
    series(c(2), c(8), c(9), c(10)),
)
MIXED8 = series(c(1), parallel(c(2), c(3)), koon(2, c(4), c(5), c(6)), c(7), c(8))
UCV_LEVEL = 2
EXACT_TOLERANCE = 1e-12
MC_SAMPLES = 10**6
MC_SIGMAS = 5
SWEEP_TRIALS = 10**6
SCENARIOS = ("default", "above_average", "below_average")

# Inputs whose outputs are pinned by digest in pins.json; the seed picks
# among them.
SWEEP_SEEDS = (7, 2021, 4242, 31337)
CLI_SWEEP_SEEDS = (7, 11, 23, 42)
DOMINANCE_PMFS = (  # (--pmf, --pmf-prime): the first CDF dominates
    ("0.4,0.3,0.1,0.1,0.1", "0.1,0.1,0.1,0.3,0.4"),
    ("0.2,0.2,0.2,0.2,0.2", "0.1,0.1,0.2,0.3,0.3"),
    ("0.3,0.3,0.2,0.1,0.1", "0.2,0.2,0.2,0.2,0.2"),
    ("0.5,0.2,0.1,0.1,0.1", "0.3,0.2,0.2,0.2,0.1"),
)
VARIANT_COMMANDS = ("pipeline_sweep_json", "dominance_json")

PINS = json.loads((Path(__file__).parent / "pins.json").read_text())


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def draw_pmfs(rng, n: int, max_state: int) -> list[tuple[float, ...]]:
    return [tuple(map(float, p)) for p in rng.dirichlet(np.ones(max_state + 1), n)]


def cli_commands(variant: int, out_dir: Path) -> tuple[tuple[str, list[str]], ...]:
    """The README commands, then a JSON sweep and a JSON dominance check on
    the 8-component mixed tree, whose inputs depend on ``variant``."""
    default = str(case_study_path())
    above = str(case_study_path("above_average"))
    pmf, prime = DOMINANCE_PMFS[variant]
    return (
        ("coherence", ["coherence", "--structure", "series(c1, c2, c3)", "--max-state", "4"]),
        ("eval", ["eval", "--structure", "series(c1, parallel(c2, c3))", "--state", "0,2,1"]),
        ("ucv", ["ucv", "--structure", "parallel(c1, c2)", "--max-state", "2", "--level", "1"]),
        ("dist_exact", ["dist", "--structure", "series(c1, c2)", "--pmf", "0.5,0.5"]),
        ("dist_mc", ["dist", "--structure", "series(c1, c2)", "--pmf", "0.5,0.5", "--method", "mc",
                     "--level", "0", "--samples", "100000", "--seed", "42"]),
        ("bounds", ["bounds", "--kind", "series", "--pmf", "0.5,0.5", "--pmf", "0.5,0.5", "--level", "0"]),
        ("dominance", ["dominance", "--structure", "series(c1, c2)", "--pmf", "0.5,0.5",
                       "--pmf-prime", "0.1,0.9"]),
        ("pipeline_analyze", ["pipeline", "analyze", "--spec", default, "--level", "1"]),
        ("pipeline_sweep_out", ["pipeline", "sweep", "--spec", above, "--trials", "10000",
                                "--seed", "7", "--out", str(out_dir / "cli-sweep.csv")]),
        ("pipeline_sweep_json", ["pipeline", "sweep", "--spec", above, "--trials", "10000",
                                 "--seed", str(CLI_SWEEP_SEEDS[variant]), "--json"]),
        ("dominance_json", ["dominance", "--structure", ref.render(MIXED8), "--pmf", pmf,
                            "--pmf-prime", prime, "--json"]),
    )


CLI_NAMES = tuple(name for name, _ in cli_commands(0, Path(".")))


def call_cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one in-process CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run_cli(argv)
    return code, out.getvalue()


def cli_pin_matches(name: str, variant: int, result: tuple[int, str]) -> bool:
    pin = PINS["cli"][name]
    if name in VARIANT_COMMANDS:
        pin = pin[variant]
    code, stdout = result
    return [code, hashlib.sha256(stdout.encode()).hexdigest()] == pin


class Pass:
    """Times and checks the operations of one pass. An operation that
    raises, or whose output fails its check, counts as failed."""

    def __init__(self, rec=OFF) -> None:
        self.rec = rec
        self.times: dict[str, float] = {}
        self.ok: list[bool] = []
        self.counts: dict[str, int] = {}

    def run(self, name, call, check):
        with self.rec.span(name):
            start = time.perf_counter()
            try:
                out, raised = call(), False
            except Exception:  # one failed operation must not end the run
                traceback.print_exc(file=sys.stderr)
                out, raised = None, True
            elapsed = time.perf_counter() - start
        self.times[name] = self.times.get(name, 0.0) + elapsed
        passed = False
        if not raised:
            try:
                passed = bool(check(out))
            except Exception:
                traceback.print_exc(file=sys.stderr)
        if not passed:
            print(f"check failed: {name}", file=sys.stderr)
        self.ok.append(passed)
        return out

    @property
    def total(self) -> float:
        return sum(self.times.values())


# --------------------------------------------------------------------------
# Per-layer probes. Each times direct calls into one module's public
# functions. A workload's traced run runs every probe whose span its own
# pass does not already record, on a Fixture built from that workload's
# inputs; inputs a workload does not have come from small_fixture.


@dataclass(frozen=True)
class Fixture:
    seed: int
    texts: tuple  # DSL texts to parse
    enum: tuple  # (expr, n, max_state, ucv level)
    exact: tuple  # (expr, dists)
    exact_shared: tuple  # (expr, dists)
    mc: tuple  # (expr, dists, level, samples, seed)
    dominance: tuple  # (expr, primed, dists)
    sweep: tuple  # (spec path, trials, seed)
    cli_variant: int
    out_dir: Path


def small_fixture(seed: int, out_dir: Path) -> Fixture:
    """The same trees at M=1 and small sample counts."""
    rng = np.random.default_rng([seed, 1 << 20])
    dists = [ComponentDistribution(p) for p in draw_pmfs(rng, N, 1)]
    read_once = parse_expr(ref.render(READ_ONCE))
    return Fixture(
        seed=seed,
        texts=(ref.render(READ_ONCE), ref.render(SHARED)),
        enum=(read_once, N, 1, 1),
        exact=(read_once, dists),
        exact_shared=(parse_expr(ref.render(SHARED)), dists),
        mc=(read_once, dists, 0, 10**4, seed),
        dominance=(
            read_once,
            [ComponentDistribution((0.3, 0.7))] * N,
            [ComponentDistribution((0.6, 0.4))] * N,
        ),
        sweep=(case_study_path("above_average"), 10**4, SWEEP_SEEDS[0]),
        cli_variant=seed % len(DOMINANCE_PMFS),
        out_dir=out_dir,
    )


def _probe_parse(fx, rec, counts):
    with rec.span("structure.parse"):
        for text in fx.texts:
            parse_expr(text)


def _probe_eval_batch(fx, rec, counts):
    expr = parse_expr(ref.render(READ_ONCE))
    rng = np.random.default_rng([fx.seed, 1 << 21])
    states = rng.integers(0, MAX_STATE + 1, size=(1 << 20, N), dtype=np.int64)
    with rec.span("structure.eval_batch"):
        eval_expr_batch(expr, states)


def _probe_enumeration(fx, rec, counts):
    expr, n, top, _ = fx.enum
    with rec.span("enumeration.level_table"):
        table = level_table(expr, n, top)
    counts["enumeration.vectors"] = int(table.size)
    counts["enumeration.table_bytes"] = int(table.nbytes)
    with rec.span("enumeration.digits"):
        for _ in iter_vector_chunks(n, top):
            pass


def _probe_coherence(fx, rec, counts):
    expr, n, top, _ = fx.enum
    with rec.span("coherence.monotonicity"):
        check_monotonicity(expr, n, top)
    with rec.span("coherence.relevance"):
        check_relevance(expr, n, top)
    with rec.span("coherence.boundary"):
        check_boundary(expr, n, top)


def _probe_ucv(fx, rec, counts):
    expr, n, top, level = fx.enum
    with rec.span("coherence.ucv"):
        found = enumerate_ucv(expr, n, top, level)
    counts["coherence.ucv_count"] = len(found.vectors)


def _probe_exact(fx, rec, counts):
    with rec.span("probability.exact"):
        exact_system_distribution(*fx.exact)


def _probe_exact_shared(fx, rec, counts):
    with rec.span("probability.exact_shared"):
        exact_system_distribution(*fx.exact_shared)


def _probe_mc(fx, rec, counts):
    with rec.span("probability.mc"):
        monte_carlo_cdf(*fx.mc)
    counts["probability.mc_samples"] = fx.mc[3]


def _probe_closed_form(fx, rec, counts):
    families = [load_pipeline_spec(case_study_path(s)).distributions for s in SCENARIOS]
    with rec.span("probability.closed_form"):
        for dists in families:
            for level in range(MAX_STATE + 1):
                closed_form_cdf("series", dists, level)
                closed_form_cdf("parallel", dists, level)
                cdf_bounds("series", dists, level)


def _probe_dominance(fx, rec, counts):
    with rec.span("probability.dominance"):
        dominance_check(*fx.dominance)


def _probe_load_spec(fx, rec, counts):
    with rec.span("pipeline.load_spec"):
        for scenario in SCENARIOS:
            load_pipeline_spec(case_study_path(scenario))


def _probe_sweep(fx, rec, counts):
    path, trials, seed = fx.sweep
    spec = load_pipeline_spec(path)
    out = fx.out_dir / "probe-sweep.csv"
    with rec.span("pipeline.sweep"):
        result = sweep_state1(spec, trials, seed)
    with rec.span("pipeline.export_csv"):
        export_results(result, out)
    counts["pipeline.export_bytes"] = out.stat().st_size
    out.unlink()


def _probe_analyze(fx, rec, counts):
    specs = [load_pipeline_spec(case_study_path(s)) for s in SCENARIOS]
    with rec.span("pipeline.analyze"):
        for spec in specs:
            for level in range(spec.max_state + 1):
                pipeline_cdf(spec, level)


def _probe_cli(fx, rec, counts):
    stdout_bytes = 0
    for name, argv in cli_commands(fx.cli_variant, fx.out_dir):
        with rec.span(f"cli.{name}"):
            _, stdout = call_cli(argv)
        stdout_bytes += len(stdout.encode())
    counts["cli.stdout_bytes"] = stdout_bytes


# (span names a probe records, probe)
PROBES = (
    (("structure.parse",), _probe_parse),
    (("structure.eval_batch",), _probe_eval_batch),
    (("enumeration.level_table", "enumeration.digits"), _probe_enumeration),
    (("coherence.monotonicity", "coherence.relevance", "coherence.boundary"), _probe_coherence),
    (("coherence.ucv",), _probe_ucv),
    (("probability.exact",), _probe_exact),
    (("probability.exact_shared",), _probe_exact_shared),
    (("probability.mc",), _probe_mc),
    (("probability.closed_form",), _probe_closed_form),
    (("probability.dominance",), _probe_dominance),
    (("pipeline.load_spec",), _probe_load_spec),
    (("pipeline.sweep", "pipeline.export_csv"), _probe_sweep),
    (("pipeline.analyze",), _probe_analyze),
    (tuple(f"cli.{name}" for name in CLI_NAMES), _probe_cli),
)


def run_probes(fx: Fixture, rec, covered, counts: dict) -> None:
    """Run every probe whose spans the workload's own pass did not record."""
    for names, probe in PROBES:
        if not set(names) <= set(covered):
            probe(fx, rec, counts)


# --------------------------------------------------------------------------
# Workloads


class Exhaustive:
    name = "exhaustive"

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.small = small_fixture(seed, out_dir)

    def inputs(self, index: int, top: int):
        """Relabelled trees and fresh PMFs for one pass."""
        rng = np.random.default_rng([self.seed, index])
        perm = rng.permutation(N) + 1
        trees = (ref.relabel(READ_ONCE, perm), ref.relabel(SHARED, perm))
        return trees, draw_pmfs(rng, N, top)

    def run_pass(self, index: int, rec=OFF, warm_up: bool = False) -> Pass:
        top, level = (1, 1) if warm_up else (MAX_STATE, UCV_LEVEL)
        (read_once, shared), pmfs = self.inputs(index, top)
        ro_expr = parse_expr(ref.render(read_once))
        sh_expr = parse_expr(ref.render(shared))
        dists = [ComponentDistribution(p) for p in pmfs]
        ro_cdf = ref.system_cdf(read_once, pmfs)
        sh_cdf = ref.system_cdf(shared, pmfs)
        p = Pass(rec)
        p.run("coherence.report", lambda: coherence_report(ro_expr, N, top), lambda r: r.overall)
        found = p.run(
            "coherence.ucv",
            lambda: enumerate_ucv(ro_expr, N, top, level),
            lambda u: len(u.vectors) == PINS["ucv_count"],
        )
        if found is not None:
            p.counts["coherence.ucv_count"] = len(found.vectors)
        p.run(
            "probability.exact",
            lambda: exact_system_distribution(ro_expr, dists),
            lambda d: ref.max_gap(d, ro_cdf) <= EXACT_TOLERANCE,
        )
        p.run(
            "probability.exact_shared",
            lambda: exact_system_distribution(sh_expr, dists),
            lambda d: ref.max_gap(d, sh_cdf) <= EXACT_TOLERANCE,
        )
        return p

    def fixture(self, index: int) -> Fixture:
        (read_once, shared), _ = self.inputs(index, MAX_STATE)
        expr = parse_expr(ref.render(read_once))
        return replace(
            self.small,
            texts=(ref.render(read_once), ref.render(shared)),
            enum=(expr, N, MAX_STATE, UCV_LEVEL),
        )

    @staticmethod
    def detail(passes: list[Pass]) -> dict:
        names = {
            "coherence_s": "coherence.report",
            "ucv_s": "coherence.ucv",
            "exact_dist_s": "probability.exact",
            "exact_dist_shared_s": "probability.exact_shared",
        }
        return {
            key: (statistics.median(p.times[span] for p in passes), "s")
            for key, span in names.items()
        }


class Sampling:
    name = "sampling"

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.out_dir = out_dir
        self.small = small_fixture(seed, out_dir)
        self.specs = [load_pipeline_spec(case_study_path(s)) for s in SCENARIOS]
        self.above = self.specs[1]
        self.read_once = parse_expr(ref.render(READ_ONCE))
        self.mc_dists = self.specs[0].distributions
        self.mc_cdf = ref.system_cdf(READ_ONCE, [d.pmf for d in self.mc_dists])
        self.pipeline_cdfs = [
            [ref.series_cdf([d.pmf for d in s.distributions], j) for j in range(s.max_state + 1)]
            for s in self.specs
        ]

    def run_pass(self, index: int, rec=OFF, warm_up: bool = False) -> Pass:
        samples, trials = (10**4, 10**4) if warm_up else (MC_SAMPLES, SWEEP_TRIALS)
        rng = np.random.default_rng([self.seed, index])
        level = int(rng.integers(1, MAX_STATE))
        mc_seed = int(rng.integers(0, 2**32))
        sweep_seed = SWEEP_SEEDS[int(rng.integers(len(SWEEP_SEEDS)))]
        exact = self.mc_cdf[level]
        sigma = math.sqrt(exact * (1.0 - exact) / samples)
        csv_path = self.out_dir / "sweep.csv"
        p = Pass(rec)
        p.run(
            "probability.mc",
            lambda: monte_carlo_cdf(self.read_once, self.mc_dists, level, samples, mc_seed),
            lambda est: abs(est.estimate - exact) <= MC_SIGMAS * sigma,
        )
        sweep = p.run(
            "pipeline.sweep",
            lambda: sweep_state1(self.above, trials, sweep_seed),
            lambda r: r.trials == trials,
        )
        p.run(
            "pipeline.export_csv",
            lambda: export_results(sweep, csv_path),
            lambda _: warm_up or sha256_file(csv_path) == PINS["sweep_csv"][str(sweep_seed)],
        )
        if csv_path.exists():
            p.counts["pipeline.export_bytes"] = csv_path.stat().st_size
            csv_path.unlink()
        p.run(
            "pipeline.analyze",
            lambda: [[pipeline_cdf(s, j) for j in range(s.max_state + 1)] for s in self.specs],
            lambda got: all(
                abs(a - b) <= EXACT_TOLERANCE
                for row, want in zip(got, self.pipeline_cdfs)
                for a, b in zip(row, want)
            ),
        )
        p.counts["probability.mc_samples"] = samples
        return p

    def fixture(self, index: int) -> Fixture:
        return self.small

    @staticmethod
    def detail(passes: list[Pass]) -> dict:
        mc = statistics.median(p.times["probability.mc"] for p in passes)
        sweep = statistics.median(
            p.times["pipeline.sweep"] + p.times["pipeline.export_csv"] for p in passes
        )
        return {
            "mc_samples_per_s": (MC_SAMPLES / mc, "samples/s"),
            "sweep_trials_per_s": (SWEEP_TRIALS / sweep, "trials/s"),
        }


class Cli:
    name = "cli"

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.out_dir = out_dir
        self.small = small_fixture(seed, out_dir)
        self.commands = [cli_commands(v, out_dir) for v in range(len(DOMINANCE_PMFS))]

    def run_pass(self, index: int, rec=OFF, warm_up: bool = False) -> Pass:
        """Every command once, in an order and with variant inputs drawn
        from (seed, pass)."""
        rng = np.random.default_rng([self.seed, index])
        variant = int(rng.integers(len(self.commands)))
        commands = self.commands[variant]
        p = Pass(rec)
        stdout_bytes = 0
        for k in rng.permutation(len(commands)):
            name, argv = commands[k]
            result = p.run(
                f"cli.{name}",
                lambda: call_cli(argv),
                lambda r: cli_pin_matches(name, variant, r),
            )
            if result is not None:
                stdout_bytes += len(result[1].encode())
        p.counts["cli.stdout_bytes"] = stdout_bytes
        return p

    def fixture(self, index: int) -> Fixture:
        """The inputs of the CLI commands: the README ones for the exact
        distribution and Monte-Carlo, the mixed tree for the rest."""
        mixed = parse_expr(ref.render(MIXED8))
        pair = parse_expr("series(c1, c2)")
        fair = [ComponentDistribution((0.5, 0.5))] * 2
        variant = self.small.cli_variant
        pmf, prime = (
            [ComponentDistribution(tuple(map(float, text.split(","))))] * 8
            for text in DOMINANCE_PMFS[variant]
        )
        return replace(
            self.small,
            texts=tuple(argv[argv.index("--structure") + 1]
                        for _, argv in self.commands[variant] if "--structure" in argv),
            enum=(mixed, 8, MAX_STATE, UCV_LEVEL),
            exact=(pair, fair),
            mc=(pair, fair, 0, 100_000, 42),
            dominance=(mixed, prime, pmf),
        )

    @staticmethod
    def detail(passes: list[Pass]) -> dict:
        totals = [p.total for p in passes]
        return {
            "cli_pass_s": (statistics.median(totals), "s"),
            "cli_pass_tail_s": (tail(totals)[0], "s"),
        }


WORKLOADS = {w.name: w for w in (Exhaustive, Sampling, Cli)}


def tail(values) -> tuple[float, float]:
    """(value, percentile): the highest percentile with at least ten
    samples beyond it, or the maximum when there are ten or fewer."""
    ordered = sorted(values)
    pos = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[pos], 100.0 * (pos + 1) / len(ordered)
