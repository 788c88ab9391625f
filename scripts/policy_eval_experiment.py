#!/usr/bin/env python3
"""Policy-evaluation benchmark: solver variants on the saddle reformulation
of the empirical projected Bellman error for a random MDP.

Desk scale by default (100 states, 10 actions, 2000 transitions, 21
features); --full uses 1000 states, 20 actions, 20000 transitions, and 201
features.
"""

import argparse
import json
import sys
from pathlib import Path

from vrfrbs.bench import run_experiment

DESK_CONFIG = (Path(__file__).resolve().parent / "configs"
               / "policy_eval_desk.json")


def build_config(states, actions, transitions, features, epochs, seeds):
    """The matrix of configs/policy_eval_desk.json at the given sizes."""
    with open(DESK_CONFIG) as fh:
        config = json.load(fh)
    config["experiment_id"] = f"pe-s{states}-a{actions}-n{transitions}"
    config["problem"].update(states=states, actions=actions,
                             transitions=transitions, features=features)
    config["run"].update(epochs=epochs,
                         record_every_epochs=max(1.0, epochs / 200),
                         seeds=seeds)
    return config


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
