"""Command-line entry point.

Subcommands:
    run        execute an experiment matrix from a JSON config
    summarize  aggregate a run directory's runs.csv
    verify     Monte-Carlo certification of one estimator kind

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 numerical divergence.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bench import ConfigError, run_experiment, summarize
from .core import InfeasibleParametersError, UnsupportedConfigError
from .estimators import (BIASED_KINDS, KINDS, UNBIASED_KINDS, default_params)
from .problems import linear_toy
from .solver import DivergenceError
from .verification import (build_history, check_bias_recursion,
                           check_unbiased, check_variance_recursion)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3


def _cmd_run(args) -> int:
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        run_experiment(raw, args.out)
    except (ConfigError, InfeasibleParametersError, UnsupportedConfigError,
            ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"numerical divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    print(f"wrote runs.csv, summary.csv, manifest.json to {args.out}")
    return EXIT_OK


def _cmd_summarize(args) -> int:
    try:
        rows = summarize(args.dir)
    except (OSError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"wrote aggregate.csv ({len(rows)} rows) to {args.dir}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.trials < 2 or args.seed < 0:
        print("config error: verify needs --trials >= 2 and --seed >= 0",
              file=sys.stderr)
        return EXIT_CONFIG
    kind = args.estimator
    problem = linear_toy(n=10, dim=4, seed=args.seed)
    params = default_params(kind, n=10, profile="experiment")
    history = build_history(kind, params, problem, seed=args.seed)
    reports = []
    if kind in UNBIASED_KINDS:
        reports.append(check_unbiased(history, trials=args.trials,
                                      seed=args.seed))
    elif kind in BIASED_KINDS:
        reports.append(check_bias_recursion(history, trials=args.trials,
                                            seed=args.seed))
    reports.append(check_variance_recursion(history, trials=args.trials,
                                            seed=args.seed))
    for rep in reports:
        print(rep.to_line())
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vrfrbs",
        description="Variance-reduced forward-reflected-backward solver "
                    "benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment matrix")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.set_defaults(func=_cmd_run)

    p_sum = sub.add_parser("summarize", help="aggregate a run directory")
    p_sum.add_argument("--dir", required=True)
    p_sum.set_defaults(func=_cmd_summarize)

    p_ver = sub.add_parser("verify", help="certify one estimator kind")
    p_ver.add_argument("--estimator", required=True, choices=KINDS)
    p_ver.add_argument("--trials", type=int, default=100_000)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
