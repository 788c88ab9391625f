#!/usr/bin/env python3
"""Record the correctness gate's reference outcomes.

    python3 perfbench/record_refs.py --workloads pe-desk mc-verify --seeds 0 1 2

Runs one untraced pass per (workload, seed) and stores its outcome in
perfbench/references.json: per cell the oracle calls, iterations and final
relative residual, per check its pass/fail.  Existing entries for other
workloads or seeds are kept.  Record only on a commit whose outputs are
known to be right: later runs are judged against these values.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=workloads.WORKLOADS,
                        required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)

    path = workloads.REFERENCES
    stored = json.loads(path.read_text()) if path.exists() else {}
    with tempfile.TemporaryDirectory() as out_dir:
        for name in args.workloads:
            params = workloads.params()[name]
            entry = stored.get(name)
            if entry is None or entry["params"] != params:
                entry = stored[name] = {"params": params, "seeds": {}}
            for seed in args.seeds:
                workload = workloads.make_workload(name, seed, out_dir)
                workload.setup()
                result = workload.run_pass()
                if result.errors:
                    raise SystemExit(f"{name} seed {seed}: {result.errors}")
                entry["seeds"][str(workload.seed)] = result.outcome
                print(f"{name} seed {workload.seed}: {result.outcome}",
                      flush=True)
                path.write_text(json.dumps(stored, indent=1, sort_keys=True)
                                + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
