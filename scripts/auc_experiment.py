#!/usr/bin/env python3
"""AUC maximization benchmark: six solver variants on synthetic imbalanced
data.

Desk scale by default (n = 5000, d = 50); --full runs the large
configuration (n = 50000, d = 250, 1000 epochs).  Writes runs.csv,
summary.csv, and manifest.json to --out.
"""

import argparse
import json
import sys
from pathlib import Path

from vrfrbs.bench import run_experiment

DESK_CONFIG = Path(__file__).resolve().parent / "configs" / "auc_desk.json"


def build_config(n, d, epochs, seeds):
    """The matrix of configs/auc_desk.json at n samples of d features."""
    with open(DESK_CONFIG) as fh:
        config = json.load(fh)
    config["experiment_id"] = f"auc-n{n}-d{d}"
    config["problem"].update(n=n, d=d)
    config["run"].update(epochs=epochs,
                         record_every_epochs=max(1.0, epochs / 200),
                         seeds=seeds)
    return config


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/auc")
    parser.add_argument("--full", action="store_true",
                        help="n = 50000, d = 250 instead of the desk scale")
    parser.add_argument("--epochs", type=int, default=1000)
    parser.add_argument("--seeds", type=int, nargs="+",
                        default=[0, 1, 2, 3, 4])
    args = parser.parse_args(argv)
    n, d = (50_000, 250) if args.full else (5_000, 50)
    config = build_config(n, d, args.epochs, args.seeds)
    cells = run_experiment(config, args.out)
    for cell in cells:
        print(f"{cell['algorithm']:6s} seed={cell['seed']} "
              f"final_rel={cell['final_rel_residual']:.3e}")
    print(f"outputs in {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
