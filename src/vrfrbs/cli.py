"""Command-line entry point.

Subcommands:
    run        execute an experiment matrix from a JSON config
    summarize  aggregate a run directory's runs.csv
    verify     Monte-Carlo certification of one estimator kind
    gen-data   write a synthetic dataset in the columnar text format

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
from .problems import (gen_auc_dataset, gen_random_mdp, linear_toy,
                       sample_transitions, save_auc_dataset, save_transitions,
                       uniform_features)
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


def _cmd_gen_data(args) -> int:
    try:
        if args.family == "auc":
            ds = gen_auc_dataset(args.n, args.d, args.p_pos, args.noise_sigma,
                                 seed=args.seed)
            save_auc_dataset(ds, args.out)
            print(f"wrote {ds.n} samples ({ds.d} features) to {args.out}")
        else:
            mdp = gen_random_mdp(args.states, args.actions, seed=args.seed,
                                 gamma=args.gamma)
            feats = uniform_features(args.states, args.features,
                                     seed=(args.seed, 1))
            trans = sample_transitions(mdp, args.transitions, feats,
                                       seed=(args.seed, 2))
            save_transitions(trans, args.out)
            print(f"wrote {trans.n} transitions ({trans.d} features) "
                  f"to {args.out}")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


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

    p_gen = sub.add_parser("gen-data", help="write a synthetic dataset")
    p_gen.add_argument("--family", required=True, choices=("auc", "mdp"))
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--n", type=int, default=1000)
    p_gen.add_argument("--d", type=int, default=20)
    p_gen.add_argument("--p-pos", dest="p_pos", type=float, default=0.1)
    p_gen.add_argument("--noise-sigma", dest="noise_sigma", type=float,
                       default=0.1)
    p_gen.add_argument("--states", type=int, default=100)
    p_gen.add_argument("--actions", type=int, default=10)
    p_gen.add_argument("--transitions", type=int, default=2000)
    p_gen.add_argument("--features", type=int, default=21)
    p_gen.add_argument("--gamma", type=float, default=0.95)
    p_gen.set_defaults(func=_cmd_gen_data)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
