"""Command-line front end.

Subcommands: ``solve`` (approximation pipeline), ``oracle`` (exact LP
reference), ``gen`` (seeded instance generator), and ``compare`` (solver
versus oracle with the five certified checks). Exit codes: 0 success,
1 usage or validation error, 2 failed check, 3 internal error.

The environment variable ``CONCURFLOW_SEED``, when set, overrides the
``--seed`` flag of ``gen``.
"""

from __future__ import annotations

import argparse
import os
import sys

from .compare import csv_header, row_to_csv, run_compare
from .generator import GenerationError, generate_instance
from .instance_io import (
    Instance,
    InstanceError,
    parse_instance,
    serialize_instance,
    serialize_oracle,
    serialize_solution,
)
from .netmodel import ModelError
from .oracle import (
    OracleError,
    lp_emcfp_lambda,
    lp_emcfpsc,
    lp_mmfp_exact,
    lp_mmfpb_exact,
)
from .packing import PackingError
from .simplex import SimplexError
from .solver import _SUBROUTINES, DEFAULT_SUBROUTINE, solve

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2
EXIT_INTERNAL = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on bad flags, not argparse's default 2
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="concurflow", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the approximation pipeline")
    p_solve.add_argument("--input", required=True)
    p_solve.add_argument("--eta", required=True, type=float)
    p_solve.add_argument("--output", default=None, help="solution file (default stdout)")
    p_solve.add_argument("--subroutine", choices=tuple(_SUBROUTINES), default=DEFAULT_SUBROUTINE)

    p_oracle = sub.add_parser("oracle", help="solve exactly by LP")
    p_oracle.add_argument("--input", required=True)
    p_oracle.add_argument(
        "--problem", required=True, choices=("mmfp", "mmfpb", "emcfp", "emcfpsc")
    )
    p_oracle.add_argument("--output", default=None)

    p_gen = sub.add_parser("gen", help="generate a seeded instance")
    p_gen.add_argument("--seed", required=True, type=int)
    p_gen.add_argument("--nodes", required=True, type=int)
    p_gen.add_argument("--edges", required=True, type=int)
    p_gen.add_argument("--commodities", required=True, type=int)
    p_gen.add_argument("--max-paths", required=True, type=int)
    p_gen.add_argument("--bound-range", nargs=2, type=float, default=(0.5, 3.0),
                       metavar=("LO", "HI"))
    p_gen.add_argument("--output", default=None)

    p_cmp = sub.add_parser("compare", help="solver versus oracle with checks")
    p_cmp.add_argument("--input", required=True)
    p_cmp.add_argument("--eta", required=True, type=float)
    p_cmp.add_argument("--csv", default=None, help="append a CSV row to this file")
    p_cmp.add_argument("--subroutine", choices=tuple(_SUBROUTINES), default=DEFAULT_SUBROUTINE)
    return parser


def _read_instance(path: str) -> Instance:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path!r}: {exc}") from None
    return parse_instance(text)


def _emit(text: str, output: str | None, mode: str = "w") -> None:
    if output is None:
        sys.stdout.write(text)
        return
    try:
        with open(output, mode, encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {output!r}: {exc}") from None


def _cmd_solve(args) -> int:
    instance = _read_instance(args.input)
    report = solve(instance.path_system, args.eta, subroutine=args.subroutine)
    _emit(serialize_solution(report, instance), args.output)
    print(
        f"solved {instance.name}: l_star={report.l_star} h_star={report.h_star} "
        f"value={report.value:.6g} ({report.wall_time_s:.3f}s, "
        f"{report.subroutine_calls} subroutine calls)",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_oracle(args) -> int:
    instance = _read_instance(args.input)
    system = instance.path_system
    lam = value = flow = None
    if args.problem == "mmfp":
        value, flow = lp_mmfp_exact(system)
    elif args.problem == "mmfpb":
        value, flow = lp_mmfpb_exact(system)
    elif args.problem == "emcfp":
        lam = lp_emcfp_lambda(system)
    else:
        lam, value, flow = lp_emcfpsc(system)
    _emit(serialize_oracle(instance, args.problem, lam, value, flow), args.output)
    return EXIT_OK


def _cmd_gen(args) -> int:
    seed = args.seed
    env_seed = os.environ.get("CONCURFLOW_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise _UsageError(f"CONCURFLOW_SEED must be an integer, got {env_seed!r}") from None
    instance = generate_instance(
        seed=seed,
        n_nodes=args.nodes,
        n_edges=args.edges,
        k=args.commodities,
        max_paths_per_commodity=args.max_paths,
        bound_range=tuple(args.bound_range),
    )
    _emit(serialize_instance(instance), args.output)
    return EXIT_OK


def _cmd_compare(args) -> int:
    instance = _read_instance(args.input)
    row = run_compare(instance, args.eta, subroutine=args.subroutine)
    if args.csv:
        new_file = not os.path.exists(args.csv) or os.path.getsize(args.csv) == 0
        _emit((csv_header() + "\n" if new_file else "") + row_to_csv(row) + "\n", args.csv, "a")
    for check in row.checks:
        print(f"{check.name}: {'pass' if check.passed else 'FAIL'} (margin {check.margin:.3g})")
    print(
        f"{row.instance}: status={row.status} lambda_star={row.lambda_star} "
        f"v_opt={row.v_opt} l_star={row.report.l_star} h_star={row.report.h_star} "
        f"value={row.report.value:.6g}"
    )
    if row.oracle_failed:
        return EXIT_INTERNAL
    return EXIT_OK if row.all_passed else EXIT_CHECK_FAILED


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "oracle":
            return _cmd_oracle(args)
        if args.command == "gen":
            return _cmd_gen(args)
        return _cmd_compare(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except (InstanceError, ModelError, GenerationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OracleError, PackingError, SimplexError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # pragma: no cover - last-resort guard
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
