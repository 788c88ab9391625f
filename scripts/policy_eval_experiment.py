#!/usr/bin/env python3
"""Policy-evaluation benchmark: solver variants on the saddle reformulation
of the empirical projected Bellman error for a random MDP.

Desk scale by default (100 states, 10 actions, 2000 transitions, 21
features); --full uses 1000 states, 20 actions, 20000 transitions, and 201
features.
"""

import argparse
import sys

from vrfrbs.bench import run_experiment


def build_config(states, actions, transitions, features, epochs, seeds):
    return {
        "experiment_id": f"pe-s{states}-a{actions}-n{transitions}",
        "problem": {"family": "policy-eval", "states": states,
                    "actions": actions, "transitions": transitions,
                    "features": features, "gamma": 0.95, "tau_reg": 1e-4,
                    "seed": 7},
        "algorithms": [
            {"name": "svrg", "estimator": "svrg",
             "params": "default:experiment", "eta": "1/2L"},
            {"name": "saga", "estimator": "saga",
             "params": "default:experiment", "eta": "1/2L"},
            {"name": "sgd", "estimator": "sgd",
             "params": {"sgd_coeff": 0.025}, "eta": "1/2L"},
            {"name": "sarah", "estimator": "sarah",
             "params": "default:experiment", "eta": "1/8L"},
            {"name": "hsgd", "estimator": "hsgd",
             "params": "default:experiment", "eta": "1/8L"},
            {"name": "hsvrg", "estimator": "hsvrg",
             "params": "default:experiment", "eta": "1/8L"},
        ],
        "run": {"epochs": epochs, "record_every_epochs": max(1.0, epochs / 200),
                "seeds": seeds},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/policy-eval")
    parser.add_argument("--full", action="store_true",
                        help="1000 states / 20 actions / 20000 transitions")
    parser.add_argument("--epochs", type=int, default=5000)
    parser.add_argument("--seeds", type=int, nargs="+",
                        default=[0, 1, 2, 3, 4])
    args = parser.parse_args(argv)
    if args.full:
        states, actions, transitions, features = 1000, 20, 20_000, 201
    else:
        states, actions, transitions, features = 100, 10, 2_000, 21
    config = build_config(states, actions, transitions, features,
                          args.epochs, args.seeds)
    cells = run_experiment(config, args.out)
    for cell in cells:
        print(f"{cell['algorithm']:6s} seed={cell['seed']} "
              f"final_rel={cell['final_rel_residual']:.3e}")
    print(f"outputs in {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
