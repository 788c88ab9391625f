#!/usr/bin/env python3
"""Interleaved in-process A/B timing of two versions of the program.

    python scripts/cell_ab.py A_SRC B_SRC [--config policy_eval_desk]
        [--seed 0] [--epochs 300] [--reps 20]

A_SRC and B_SRC are two source trees: a checkout's root or its `src`
directory.  Each tree's vrfrbs is loaded under its own package name, so
both live in one process.  The config is a name in scripts/configs or the
path of a JSON file; as perfbench's matrix workloads do, it runs at
`--epochs` epochs, problem seed `--seed` and run seed 0.

For each algorithm cell, `bench._run_cell` runs `--reps` times per tree,
A then B and B then A in turn, so that a drift of the host's speed falls on
both trees alike.  Printed per cell: the minimum wall time of each tree in
ms, the ratio B/A, and whether the two trees gave the same iterations,
oracle_calls and final_rel_residual (bit for bit).  The last line sums the
cells' minima.
"""

from __future__ import annotations

import argparse
import copy
import importlib.util
import json
import sys
import time
from pathlib import Path

CONFIGS = Path(__file__).resolve().parent / "configs"
OUTCOME = ("iterations", "oracle_calls", "final_rel_residual")


def load_tree(src, name):
    """The vrfrbs package of `src` (a checkout or its src directory),
    imported as the package `name`."""
    src = Path(src).resolve()
    pkg = src / "vrfrbs" if (src / "vrfrbs").is_dir() \
        else src / "src" / "vrfrbs"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.bench")


def read_config(spec, seed, epochs):
    path = Path(spec)
    if not path.is_file():
        path = CONFIGS / f"{spec}.json"
    config = json.loads(path.read_text())
    config["problem"]["seed"] = seed
    config.setdefault("run", {}).update(epochs=epochs, seeds=[0])
    return config


def time_cells(benches, raw, reps):
    """Per cell: (name, [min ms per tree], [outcome per tree])."""
    configs = [bench.load_config(copy.deepcopy(raw)) for bench in benches]
    rows = []
    for i, alg in enumerate(configs[0]["algorithms"]):
        best = [float("inf")] * 2
        outcomes = [None] * 2
        for rep in range(reps):
            for t in ((0, 1) if rep % 2 == 0 else (1, 0)):
                t0 = time.perf_counter()
                cell = benches[t]._run_cell(configs[t], i, 0)
                best[t] = min(best[t], (time.perf_counter() - t0) * 1e3)
                outcomes[t] = tuple(cell.resolution[key] for key in OUTCOME)
        rows.append((alg["name"], best, outcomes))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Interleaved per-cell wall times of two source trees.")
    parser.add_argument("a_src")
    parser.add_argument("b_src")
    parser.add_argument("--config", default="policy_eval_desk")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--epochs", type=float, default=300)
    parser.add_argument("--reps", type=int, default=20)
    args = parser.parse_args(argv)
    benches = [load_tree(args.a_src, "vrfrbs_ab_a"),
               load_tree(args.b_src, "vrfrbs_ab_b")]
    raw = read_config(args.config, args.seed, args.epochs)
    rows = time_cells(benches, raw, args.reps)
    print(f"{'cell':<12}{'A ms':>12}{'B ms':>12}{'B/A':>8}  same outputs")
    for name, (a, b), (out_a, out_b) in rows:
        print(f"{name:<12}{a:>12.3f}{b:>12.3f}{b / a:>8.3f}  "
              f"{'yes' if out_a == out_b else 'NO'}")
    total_a = sum(best[0] for _, best, _ in rows)
    total_b = sum(best[1] for _, best, _ in rows)
    print(f"{'sum':<12}{total_a:>12.3f}{total_b:>12.3f}"
          f"{total_b / total_a:>8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
