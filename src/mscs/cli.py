"""Command-line front end.

One subcommand per analysis: ``coherence``, ``eval``, ``ucv``, ``dist``,
``bounds``, ``dominance``, ``pipeline analyze``, ``pipeline sweep``. Exit
codes: 0 success or property holds, 1 a ``coherence`` or ``dominance``
verdict failed, 2 usage or input error. A reader that closes stdout early
ends the command with 0 and no message. Given fixed seeds,
identical invocations print byte-identical output; ``--json`` emits the
documents described by the schemas under ``docs/schemas``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections.abc import Sequence

from . import __version__
from .coherence import coherence_report, enumerate_ucv
from .core import _check_level, as_vector
from .enumeration import LIMIT_ENV_VAR, ensure_enumerable, resolve_limit
from .errors import MscsError
from .pipeline import (
    _write_sweep_csv,
    _write_sweep_json,
    export_results,
    load_pipeline_spec,
    pipeline_cdf,
    sweep_state1,
)
from .probability import (
    ComponentDistribution,
    _dominance,
    _ensure_valid_family,
    cdf_bounds,
    closed_form_distribution,
    exact_system_distribution,
    monte_carlo_cdf,
)
from .structure import arity, eval_expr, format_expr, parse_expr


class UsageError(MscsError):
    """Bad flag combination or malformed inline value."""


def _parse_levels(text: str) -> tuple[int, ...]:
    try:
        parts = [int(part) for part in text.split(",")]
    except ValueError:
        raise UsageError(
            f"state must be comma-separated integers, got {text!r}"
        ) from None
    return as_vector(parts)


def _parse_pmf(text: str) -> ComponentDistribution:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise UsageError(
            f"pmf must be comma-separated numbers, got {text!r}"
        ) from None
    return ComponentDistribution(values)


def _resolve_dists(
    pmfs: list[str] | None,
    spec_path: str | None,
    n_components: int | None,
    flag: str = "--pmf",
    spec_flag: str = "--spec",
    *,
    enumerated: bool = False,
    limit: int | None = None,
) -> list[ComponentDistribution]:
    if pmfs and spec_path:
        raise UsageError(f"give either {flag} or {spec_flag}, not both")
    if spec_path:
        dists = list(load_pipeline_spec(spec_path).distributions)
    elif pmfs:
        dists = [_parse_pmf(p) for p in pmfs]
    else:
        raise UsageError(f"provide component pmfs via {flag} or {spec_flag}")
    if n_components is not None and len(dists) != n_components:
        if len(dists) == 1:
            if enumerated:
                # refuse a space over the limit before the list is n long
                ensure_enumerable(n_components, dists[0].max_state, limit)
            # one pmf broadcasts to identical components
            dists = dists * n_components
        else:
            raise UsageError(
                f"{len(dists)} distributions given but the structure "
                f"references {n_components} components"
            )
    return dists


def _emit_json(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True))


def _cmd_coherence(args) -> int:
    expr = parse_expr(args.structure)
    n = args.components if args.components is not None else arity(expr)
    report = coherence_report(expr, n, args.max_state, args.limit)
    if args.json:
        doc = report.to_dict()
        doc["structure"] = format_expr(expr)
        _emit_json(doc)
    else:
        print(report.to_table())
    return 0 if report.overall else 1


def _cmd_eval(args) -> int:
    expr = parse_expr(args.structure)
    state = _parse_levels(args.state)
    level = eval_expr(expr, state)
    if args.json:
        _emit_json(
            {
                "structure": format_expr(expr),
                "state": state,
                "level": level,
            }
        )
    else:
        print(level)
    return 0


def _cmd_ucv(args) -> int:
    expr = parse_expr(args.structure)
    n = args.components if args.components is not None else arity(expr)
    found = enumerate_ucv(expr, n, args.max_state, args.level, args.limit)
    if args.json:
        _emit_json(
            {
                "structure": format_expr(expr),
                "max_state": args.max_state,
                "level": found.level,
                "count": len(found.vectors),
                "vectors": found.vectors,
            }
        )
    else:
        for vec in found.vectors:
            print(",".join(str(v) for v in vec))
    return 0


def _cmd_dist(args) -> int:
    expr = parse_expr(args.structure)
    dists = _resolve_dists(
        args.pmf,
        args.spec,
        arity(expr),
        enumerated=args.method == "exact",
        limit=args.limit,
    )

    if args.method == "mc":
        if args.level is None:
            raise UsageError("--method mc requires --level")
        if args.out:
            raise UsageError(
                "--method mc estimates one level; --out needs a distribution"
            )
        est = monte_carlo_cdf(expr, dists, args.level, args.samples, args.seed)
        if args.json:
            _emit_json(
                {
                    "method": "mc",
                    "structure": format_expr(expr),
                    "level": args.level,
                    "estimate": est.estimate,
                    "std_error": est.std_error,
                    "samples": est.samples,
                    "seed": est.seed,
                }
            )
        else:
            print(f"estimate  {est.estimate:.10f}")
            print(f"std_error {est.std_error:.10f}")
        return 0

    if args.level is not None:
        # refuse a level outside the family's 0..M before paying for a method
        _check_level(args.level, _ensure_valid_family(dists)[0].max_state)
    if args.method == "exact":
        dist = exact_system_distribution(expr, dists, args.limit)
    else:  # closed
        dist = closed_form_distribution(expr, dists)

    if args.out:
        export_results(dist, args.out)
    if args.json:
        _emit_json(
            {
                "method": args.method,
                "structure": format_expr(expr),
                "levels": list(range(dist.max_state + 1)),
                "pmf": dist.pmf,
                "cdf": dist.cdf,
            }
        )
    else:
        if args.level is not None:
            print(f"{dist.cdf_at(args.level):.10f}")
        else:
            print("level pmf cdf")
            for j in range(dist.max_state + 1):
                print(f"{j} {dist.pmf[j]:.10f} {dist.cdf[j]:.10f}")
    return 0


def _cmd_bounds(args) -> int:
    dists = _resolve_dists(args.pmf, args.spec, None)
    lower, upper = cdf_bounds(args.kind, dists, args.level)
    if args.json:
        _emit_json(
            {
                "kind": args.kind,
                "level": args.level,
                "n_components": len(dists),
                "lower": lower,
                "upper": upper,
            }
        )
    else:
        print(f"lower {lower:.10f}")
        print(f"upper {upper:.10f}")
    return 0


def _cmd_dominance(args) -> int:
    expr = parse_expr(args.structure)
    n = arity(expr)
    dists = _resolve_dists(
        args.pmf, args.spec, n, enumerated=True, limit=args.limit
    )
    primed = _resolve_dists(
        args.pmf_prime,
        args.spec_prime,
        n,
        "--pmf-prime",
        "--spec-prime",
        enumerated=True,
        limit=args.limit,
    )
    holds, system, system_primed = _dominance(expr, primed, dists, args.limit)
    if args.json:
        _emit_json(
            {
                "structure": format_expr(expr),
                "holds": holds,
                "cdf": system.cdf,
                "cdf_prime": system_primed.cdf,
            }
        )
    else:
        print("dominance holds" if holds else "dominance fails")
    return 0 if holds else 1


def _cmd_pipeline_analyze(args) -> int:
    spec = load_pipeline_spec(args.spec)
    value = pipeline_cdf(spec, args.level)
    if args.json:
        _emit_json({"spec": args.spec, "level": args.level, "cdf": value})
    else:
        print(f"{value:.10f}")
    return 0


def _cmd_pipeline_sweep(args) -> int:
    spec = load_pipeline_spec(args.spec)
    result = sweep_state1(spec, args.trials, args.seed)
    if args.out:
        export_results(result, args.out)
    if sys.stdout is None:  # started with stdout closed: nothing to write
        return 0
    if args.json:
        _write_sweep_json(result, sys.stdout)
    elif args.out:
        best = result.argmax_row()
        print(f"rows {result.trials}")
        print(f"argmax_trial {best.trial}")
        print(f"argmax_p_1_1 {best.p_1_1:.10f}")
        print(f"argmax_p_2_1 {best.p_2_1:.10f}")
        print(f"argmax_P {best.performance:.10f}")
        print(f"corner_supremum {result.corner_supremum:.10f}")
    else:
        _write_sweep_csv(result, sys.stdout)
    return 0


class _LimitAction(argparse.Action):
    """Store ``--limit`` once :func:`resolve_limit` accepts it, so every
    command refuses a malformed limit, whether it enumerates or not."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, resolve_limit(values))


def _add_limit(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--limit",
        type=int,
        default=None,
        action=_LimitAction,
        help=f"enumeration guard override (also {LIMIT_ENV_VAR})",
    )


def _add_json(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="emit a JSON document")


def _add_dists(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--pmf",
        action="append",
        metavar="P0,P1,...",
        help="component pmf, repeatable (a single one broadcasts)",
    )
    p.add_argument("--spec", help="pipeline spec file supplying the pmfs")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors, its subcommands' included,
    end like every input error: one ``error:`` line and exit 2."""

    def error(self, message: str):
        raise UsageError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing keeps no state
    on it (each ``parse_args`` starts from a fresh namespace and copies
    appended lists), and handlers look their analyses up at call time."""
    parser = _Parser(
        prog="mscs",
        description="Analyze multistate coherent systems.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coherence", help="verify the three coherence conditions")
    p.add_argument("--structure", required=True)
    p.add_argument("--max-state", type=int, required=True)
    p.add_argument("--components", type=int, default=None)
    _add_limit(p)
    _add_json(p)
    p.set_defaults(handler=_cmd_coherence)

    p = sub.add_parser("eval", help="evaluate a structure on a state vector")
    p.add_argument("--structure", required=True)
    p.add_argument("--state", required=True, metavar="L1,L2,...")
    _add_json(p)
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("ucv", help="enumerate upper critical connection vectors")
    p.add_argument("--structure", required=True)
    p.add_argument("--max-state", type=int, required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--components", type=int, default=None)
    _add_limit(p)
    _add_json(p)
    p.set_defaults(handler=_cmd_ucv)

    p = sub.add_parser("dist", help="system performance distribution")
    p.add_argument("--structure", required=True)
    p.add_argument(
        "--method", choices=["exact", "closed", "mc"], default="exact"
    )
    _add_dists(p)
    p.add_argument("--level", type=int, default=None)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the distribution as CSV")
    _add_limit(p)
    _add_json(p)
    p.set_defaults(handler=_cmd_dist)

    p = sub.add_parser("bounds", help="product bounds on the system CDF")
    p.add_argument(
        "--kind",
        choices=["series", "parallel"],
        required=True,
        help="validated and echoed in --json; both kinds print the same "
        "bracket, which holds for any coherent structure",
    )
    _add_dists(p)
    p.add_argument("--level", type=int, required=True)
    _add_json(p)
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser(
        "dominance", help="componentwise CDF dominance carries to the system"
    )
    p.add_argument("--structure", required=True)
    _add_dists(p)
    p.add_argument(
        "--pmf-prime",
        action="append",
        metavar="P0,P1,...",
        help="dominated-side pmf, repeatable",
    )
    p.add_argument("--spec-prime", help="pipeline spec file, dominated side")
    _add_limit(p)
    _add_json(p)
    p.set_defaults(handler=_cmd_dominance)

    p = sub.add_parser("pipeline", help="oil and gas pipeline case study")
    psub = p.add_subparsers(dest="pipeline_command", required=True)

    pa = psub.add_parser("analyze", help="pipeline CDF at one level")
    pa.add_argument("--spec", required=True)
    pa.add_argument("--level", type=int, required=True)
    _add_json(pa)
    pa.set_defaults(handler=_cmd_pipeline_analyze)

    ps = psub.add_parser("sweep", help="sweep the first two segments' state-1 mass")
    ps.add_argument("--spec", required=True)
    ps.add_argument("--trials", type=int, required=True)
    ps.add_argument("--seed", type=int, required=True)
    ps.add_argument("--out", help="write the sweep rows as CSV")
    _add_json(ps)
    ps.set_defaults(handler=_cmd_pipeline_sweep)

    return parser


def run_cli(argv: Sequence[str] | None = None) -> int:
    """Run one subcommand; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except SystemExit as exit_:
        return 0 if exit_.code in (0, None) else 2
    except BrokenPipeError:
        # the reader closed stdout (``mscs ... | head``): not an input error
        return 0
    except (MscsError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (MemoryError, OverflowError) as err:
        # e.g. a component count whose arrays cannot be had, or one past
        # the largest index (OverflowError)
        reason = str(err) or "an allocation failed"
        print(f"error: out of memory: {reason}", file=sys.stderr)
        return 2


def main() -> None:
    code = run_cli()
    try:
        if sys.stdout is not None:  # None when started with stdout closed
            sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull so the interpreter's
        # final flush cannot raise again (the recipe of the signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
