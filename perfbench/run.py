"""Benchmark of the mscs toolkit.

    python3 perfbench/run.py --workload exhaustive|sampling|cli|all \
        --seed N --seconds S --trace 0|1

Run from a source checkout: the benchmark imports ``mscs`` from ``src/``
next to this directory and exits 2 without a result when it is missing.
Each workload runs in its own fresh child interpreter, one at a time, and
the set-up time is measured inside further children that only set up. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details (seed, machine, per-operation timings, sample counts).
With ``--trace 1`` the metrics are the per-layer numbers of a traced run.
See README.md in this directory for the metric definitions.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("exhaustive", "sampling", "cli")
SETUP_CHILDREN_EACH_SIDE = 10
SETUP_TIMEOUT_S = 10
CHILD_BUDGET_S = 140


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="mscs benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--role", choices=("parent", "setup", "child"), default="parent",
        help=argparse.SUPPRESS,
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


# --------------------------------------------------------------------------
# Child side: runs in a fresh interpreter started by the parent.


def _set_up(args):
    """Import mscs from the checkout and build the workload's inputs."""
    sys.path[:0] = [str(SRC), str(HERE)]
    started = time.perf_counter()
    import mscs

    import_s = time.perf_counter() - started
    if Path(mscs.__file__).resolve().parent != SRC / "mscs":
        raise SystemExit(f"imported mscs from {mscs.__file__}, not from {SRC}")
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, OUT_DIR)
    return workload, import_s, time.perf_counter() - START


def _child(args) -> dict:
    workload, import_s, setup_s = _set_up(args)
    import resource

    import numpy as np

    import workloads
    from tracing import OFF, Recorder

    workload.run_pass(0, warm_up=True)
    passes, traced, untraced_s, traced_s = [], Recorder(), [], []
    counts: dict = {}
    index = 1
    deadline = time.perf_counter() + args.seconds
    while not passes or time.perf_counter() < deadline:
        if args.trace:
            untraced_s.append(workload.run_pass(index, OFF).total)
            index += 1
            traced.iteration = len(passes)
            with traced.span("pass"):
                p = workload.run_pass(index, traced)
            traced_s.append(p.total)
            workloads.run_probes(workload.fixture(index), traced, p.times, counts)
        else:
            p = workload.run_pass(index)
        passes.append(p)
        index += 1

    ok = [flag for p in passes for flag in p.ok]
    result = {
        "attempted": len(ok),
        "failed": ok.count(False),
        "passes": len(passes),
        "setup_s": setup_s,
        "numpy": np.__version__,
        "detail": {k: {"value": v, "unit": u} for k, (v, u) in workload.detail(passes).items()},
    }
    if args.trace:
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        traced.dump(spans_path)
        counts.update(passes[-1].counts)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
        result["metrics"] = _layer_metrics(traced.medians(), counts, import_s, untraced_s, traced_s)
    else:
        totals = [p.total for p in passes]
        tail_s, tail_pct = workloads.tail(totals)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["detail"]["pass_tail_s"] = {"value": tail_s, "unit": "s"}
        result["tail_percentile"] = tail_pct
        result["metrics"] = {
            "pass_s": {"value": statistics.median(totals), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    return result


def _layer_metrics(spans, counts, import_s, untraced_s, traced_s) -> dict:
    import workloads

    s = spans.__getitem__

    values = {
        "mscs.import_s": (import_s, "s"),
        "structure.parse_s": (s("structure.parse"), "s"),
        "structure.eval_batch_s": (s("structure.eval_batch"), "s"),
        "enumeration.level_table_s": (s("enumeration.level_table"), "s"),
        "enumeration.vectors": (counts["enumeration.vectors"], "count"),
        "enumeration.table_bytes": (counts["enumeration.table_bytes"], "B"),
        "enumeration.digits_s": (s("enumeration.digits"), "s"),
        "coherence.monotonicity_s": (s("coherence.monotonicity"), "s"),
        "coherence.monotonicity_self_s": (
            s("coherence.monotonicity") - s("enumeration.level_table"), "s"),
        "coherence.relevance_s": (s("coherence.relevance"), "s"),
        "coherence.relevance_self_s": (
            s("coherence.relevance") - s("enumeration.level_table"), "s"),
        "coherence.boundary_s": (s("coherence.boundary"), "s"),
        "coherence.ucv_s": (s("coherence.ucv"), "s"),
        "coherence.ucv_self_s": (s("coherence.ucv") - s("enumeration.level_table"), "s"),
        "coherence.ucv_count": (counts["coherence.ucv_count"], "count"),
        "probability.exact_s": (s("probability.exact"), "s"),
        "probability.exact_shared_s": (s("probability.exact_shared"), "s"),
        "probability.mc_s": (s("probability.mc"), "s"),
        "probability.mc_samples": (counts["probability.mc_samples"], "count"),
        "probability.closed_form_s": (s("probability.closed_form"), "s"),
        "probability.dominance_s": (s("probability.dominance"), "s"),
        "pipeline.load_spec_s": (s("pipeline.load_spec"), "s"),
        "pipeline.sweep_s": (s("pipeline.sweep"), "s"),
        "pipeline.export_csv_s": (s("pipeline.export_csv"), "s"),
        "pipeline.export_bytes": (counts["pipeline.export_bytes"], "B"),
        "pipeline.analyze_s": (s("pipeline.analyze"), "s"),
    }
    for name in workloads.CLI_NAMES:
        values[f"cli.{name}_ms"] = (1000 * s(f"cli.{name}"), "ms")
    values["cli.stdout_bytes"] = (counts["cli.stdout_bytes"], "B")
    overhead = statistics.median(traced_s) / statistics.median(untraced_s) - 1
    values["trace.overhead_frac"] = (overhead, "share")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


# --------------------------------------------------------------------------
# Parent side.


def _spawn(args, role: str, timeout: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "MSCS_LIMIT"}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [
        sys.executable, "-I", str(HERE / "run.py"), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    done = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=timeout, check=True
    )
    return json.loads(done.stdout.decode().strip().splitlines()[-1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _setups(args) -> list[float]:
    return [
        _spawn(args, "setup", SETUP_TIMEOUT_S)["setup_s"]
        for _ in range(0 if args.trace else SETUP_CHILDREN_EACH_SIDE)
    ]


def _drive(args) -> None:
    begun = time.perf_counter()
    # Set-up children run both before and after the workload child, so the
    # median spans the whole run rather than one stretch of machine load.
    setups = _setups(args)
    child = _spawn(args, "child", CHILD_BUDGET_S - (time.perf_counter() - begun))
    metrics = child.pop("metrics")
    setups += [child.pop("setup_s")] + _setups(args)
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {
            "cpu": _cpu_model(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": child.pop("numpy"),
        },
        "failed_frac": child["failed"] / child["attempted"],
        "setup_samples_s": setups,
        **child,
    }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }))


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.role == "setup":
        print(json.dumps({"setup_s": _set_up(args)[2]}))
        return 0
    if args.role == "child":
        print(json.dumps(_child(args)))
        return 0
    if not (SRC / "mscs" / "__init__.py").is_file():
        print(f"error: no mscs sources under {SRC}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    try:
        for name in WORKLOADS if args.workload == "all" else (args.workload,):
            args.workload = name
            _drive(args)
    except (subprocess.SubprocessError, ValueError, KeyError, IndexError) as err:
        print(f"error: workload child failed: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
