#!/usr/bin/env python3
"""Benchmark of vrfrbs: end-to-end metrics with tracing off, per-layer
metrics from a traced run.

    python3 perfbench/run.py --workload auc-full --seed 0 --seconds 20 --trace 0

Run from anywhere; the program is taken from src/ of the checkout that
holds this file.  One run repeats measured passes until the next one would
end after --seconds, always at least one (two on auc-full), and sets the
workload up twice before each.  The end-to-end timings are medians over
the passes (and over the set-ups for setup_s) of wall times multiplied by
the host speed measured around each pass; see hostspeed.py.  With --trace 1
half of that time goes to untraced passes and half to traced ones, at
least one each, and the per-layer metrics are medians over the traced
passes, as wall times.

Prints one line per metric with its unit and sample count, the environment
record, and as the last line a JSON object with the keys correct,
attempted, failed and metrics.  The whole result, and with --trace 1 every
span, are written to .perfbench_out/.  Metric names and units come from
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("auc-full", "pe-desk", "mc-verify")
# Set-up runs this many times before each untraced pass, so that its
# samples are spread over the run like the passes: the host's speed changes
# within seconds, and a burst of set-ups would see only one moment of it.
SETUPS_PER_PASS = 2
# One auc-full pass runs for 20-30 s, longer than --seconds; its ms_per_epoch
# cells of 1-8 s each need two passes to be steady on a shared host.
MIN_PASSES = {"auc-full": 2, "pe-desk": 1, "mc-verify": 1}
# per-layer counts a pass reports itself; 0 on workloads where the layer
# does no work
COUNTED_LAYERS = {"bench.output_bytes": 0, "verification.trials": 0,
                  "verification.checks_failed": 0}
PROGRAM_FILES = ("src/vrfrbs/__init__.py", "scripts/auc_experiment.py",
                 "scripts/configs/policy_eval_desk.json")
# The other perfbench modules import vrfrbs, so they are imported only
# after main() has found the program files.


def measure(seconds, one_pass, min_passes=1):
    """Run passes until the next one would end after `seconds`, and at
    least `min_passes` of them.  The host-speed reference is timed before
    the first pass and after each, and a pass's `speed` is REFERENCE_S over
    the mean of the two reference times around it."""
    from perfbench.hostspeed import REFERENCE_S, reference_seconds

    results = []
    t0 = time.perf_counter()
    before = reference_seconds()
    while True:
        result = one_pass()
        after = reference_seconds()
        result.speed = REFERENCE_S / statistics.fmean((before, after))
        before = after
        results.append(result)
        elapsed = time.perf_counter() - t0
        if len(results) >= min_passes \
                and elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def median_of(dicts):
    return {key: statistics.median(d[key] for d in dicts) for key in dicts[0]}


def end_to_end(passes, failed, attempted):
    """Medians over the run's passes, and over its set-ups, of timings
    scaled by the host speed around each pass (see hostspeed.py)."""
    from perfbench.workloads import KINDS

    setups = [s * p.speed for p in passes for s in p.setup_s]
    out = {
        "run_s": (statistics.median(p.run_s * p.speed for p in passes),
                  len(passes)),
        "setup_s": (statistics.median(setups), len(setups)),
        "steps_per_s": (statistics.median(p.steps / (p.run_s * p.speed)
                                          for p in passes), len(passes)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, 1),
        "ok_share": (1.0 - failed / attempted, attempted),
    }
    for kind in KINDS:
        # a cell missing from unreadable output has already failed the gate
        values = [p.ms_per_epoch[kind] * p.speed for p in passes
                  if kind in p.ms_per_epoch]
        out[f"ms_per_epoch.{kind}"] = \
            (statistics.median(values) if values else 0.0, len(values))
    return out


def traced_layers(traced, tracers, untraced):
    from perfbench import tracing

    per_pass = []
    for result, tracer in zip(traced, tracers):
        layers = tracing.layer_metrics(tracer.spans)
        layers.update(COUNTED_LAYERS, **result.layers)
        # the estimators' charged calls must also be what the harness counted
        per_cell, _ = tracing.crosscheck(tracer.spans)
        layers["trace.crosscheck_mismatches"] += sum(
            1 for cell, calls in result.charged.items()
            if per_cell.get(cell, (0, 0))[1] != calls)
        per_pass.append(layers)
    layers = median_of(per_pass)
    layers["trace.overhead_share"] = \
        statistics.median(p.run_s * p.speed for p in traced) \
        / statistics.median(p.run_s * p.speed for p in untraced) - 1.0
    return layers, sum(p["trace.crosscheck_mismatches"] for p in per_pass)


def write_spans(path, tracers):
    from perfbench.tracing import (CELL, COMPONENTS, END, NAME, PARENT,
                                   START, VALUE)

    with open(path, "w", newline="\n") as fh:
        fh.write("pass,span,name,start_s,end_s,parent,cell,components,value\n")
        for k, tracer in enumerate(tracers):
            for i, rec in enumerate(tracer.spans):
                fh.write(f"{k},{i},{rec[NAME]},{rec[START]:.9f},"
                         f"{rec[END]:.9f},{rec[PARENT]},{rec[CELL]},"
                         f"{rec[COMPONENTS]},{rec[VALUE]}\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in PROGRAM_FILES if not (ROOT / p).is_file()]
    if missing:
        print(f"program files missing under {ROOT}: {missing}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import envinfo, workloads
    from perfbench.tracing import Tracer, instrument

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    OUT.mkdir(exist_ok=True)
    load_before = os.getloadavg()[0]

    workload = workloads.make_workload(args.workload, args.seed, OUT)
    reference = workloads.load_references(args.workload).get(
        str(workload.seed))

    def untraced_pass():
        setups = [workload.setup() for _ in range(SETUPS_PER_PASS)]
        result = workload.run_pass()
        result.setup_s = setups
        return result

    budget = args.seconds / 2 if args.trace else args.seconds
    passes = measure(budget, untraced_pass,
                     1 if args.trace else MIN_PASSES[args.workload])
    tracers = []

    def traced_pass():
        tracers.append(Tracer())
        with instrument(tracers[-1]):
            return workload.run_pass(tracers[-1])

    traced = measure(budget, traced_pass) if args.trace else []

    failed_ids = []
    attempted = 0
    for result in passes + traced:
        first = passes[0] if result is not passes[0] else None
        failed_ids.append(sorted(workloads.gate(workload, result, reference,
                                                first)))
        attempted += max(1, len(result.outcome))
    failed = sum(map(len, failed_ids))
    if args.trace:
        layers, mismatches = traced_layers(traced, tracers, passes)
        failed += mismatches
        values = {name: (value, len(traced)) for name, value in layers.items()}
        write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.csv",
                    tracers)
    else:
        values = end_to_end(passes, failed, attempted)

    metrics = {}
    for m in wanted:
        value, samples = values[m["name"]]
        metrics[m["name"]] = {"value": float(value), "unit": m["unit"]}
        print(f"{m['name']} = {float(value):.6g} {m['unit']} "
              f"(samples: {samples})")
    speeds = [p.speed for p in passes + traced]
    print(f"host speed = {statistics.median(speeds):.4g} "
          f"(range {min(speeds):.4g}-{max(speeds):.4g}), the factor "
          f"end-to-end wall times are multiplied by")
    print(f"failed_share = {failed / attempted:.6g} "
          f"({failed} failed of {attempted} cells or checks attempted)")
    result = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "reference": "stored" if reference is not None else "invariants",
        "environment": {**envinfo.environment(),
                        "loadavg_1min_before": load_before,
                        "loadavg_1min_after": os.getloadavg()[0],
                        "working_set_computed": workload.working_set()},
        "passes": [{"run_s": p.run_s, "setup_s": p.setup_s,
                    "speed": p.speed, "traced": p in traced,
                    "ms_per_epoch": p.ms_per_epoch, "steps": p.steps,
                    "outcome": p.outcome, "errors": p.errors,
                    "failed": ids}
                   for p, ids in zip(passes + traced, failed_ids)],
        "metrics": metrics,
    }
    with open(OUT / f"result-{args.workload}-seed{args.seed}"
                    f"-trace{args.trace}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    print("environment " + json.dumps(result["environment"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
