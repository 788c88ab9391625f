"""The benchmark's workloads: their inputs, one measured pass, and the
correctness gate every pass goes through.

Each workload is a closed loop: one process issues one call into vrfrbs and
waits for it to finish before the next.  The workload seed is the only input
the benchmark takes.  On the matrix workloads it is the problem seed, so it
draws the data.  The rest is held at RUN_SEED: the run seed, which draws
the estimators' batches and snapshot coins, and every input of mc-verify
(the toy problem, the frozen histories and the trial draws), which
therefore ignores the workload seed.  A snapshot refresh or sarah reset
charges a full epoch yet costs one closed-form evaluation, and the trial
draws set how many components a trial evaluates; left to the seed, either
moves ms_per_epoch by 10-50% from seed to seed at these run lengths.

    auc-full   scripts/auc_experiment.py --full matrix (n=50000, d=250, six
               estimators, committed step sizes), one seed, wall timing
    pe-desk    scripts/configs/policy_eval_desk.json matrix, one seed, wall
               timing
    mc-verify  the checks `vrfrbs verify` runs, for six estimator kinds on
               linear_toy(n=10, dim=4)
"""

from __future__ import annotations

import importlib.util
import json
import math
import time
from pathlib import Path

from vrfrbs import bench, problems, verification
from vrfrbs.estimators import UNBIASED_KINDS, default_params

from perfbench.tracing import proxied

ROOT = Path(__file__).resolve().parent.parent
REFERENCES = Path(__file__).resolve().parent / "references.json"

KINDS = ("svrg", "saga", "sgd", "sarah", "hsgd", "hsvrg")
# Run lengths.  At 30 epochs sgd's growing batch spends its last third on
# the dense n // 4 path and sarah runs about 200 iterations.  pe-desk and
# mc-verify passes last 2-3 s, so a run repeats them and reports medians;
# pe-desk's shortest cell (sgd) lasts about 60 ms per pass.
AUC_EPOCHS = 30
PE_EPOCHS = 300
MC_TRIALS = 1000
MC_TOY = {"n": 10, "dim": 4}
RUN_SEED = 0
# ROADMAP's rounding-level tolerance for a refactor, relative per value
REL_TOL = 1e-9


def _auc_build_config():
    spec = importlib.util.spec_from_file_location(
        "auc_experiment", ROOT / "scripts" / "auc_experiment.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.build_config


def matrix_config(workload, seed):
    """The experiment config the program receives for a matrix workload."""
    if workload == "auc-full":
        config = _auc_build_config()(50_000, 250, AUC_EPOCHS, [RUN_SEED])
    else:
        with open(ROOT / "scripts" / "configs" / "policy_eval_desk.json") as fh:
            config = json.load(fh)
        config["run"]["epochs"] = PE_EPOCHS
    config["run"]["seeds"] = [RUN_SEED]
    config["problem"]["seed"] = seed
    config["timing"] = "wall"
    return config


def params():
    """The run-length constants a stored reference is valid for."""
    return {"auc-full": {"epochs": AUC_EPOCHS},
            "pe-desk": {"epochs": PE_EPOCHS},
            "mc-verify": {"trials": MC_TRIALS, **MC_TOY}}


class PassResult:
    """What one measured pass produced.

    outcome maps a cell (estimator name) or check name to the values the
    gate compares; errors lists problems found in the pass's outputs.
    run_s, ms_per_epoch and setup_s (the set-ups made just before the pass)
    are wall times; the benchmark reports them multiplied by speed, the
    host-speed factor measured around the pass.
    """

    def __init__(self, run_s, ms_per_epoch, steps, outcome, errors=(),
                 layers=None, charged=None):
        self.setup_s = []
        self.speed = 1.0
        self.run_s = run_s
        self.ms_per_epoch = ms_per_epoch
        self.steps = steps
        self.outcome = outcome
        self.errors = list(errors)
        self.layers = layers or {}
        self.charged = charged or {}


class MatrixWorkload:
    """auc-full and pe-desk: one `bench.run_experiment` call per pass."""

    def __init__(self, name, seed, out_dir):
        self.name = name
        self.seed = seed
        self.config = matrix_config(name, seed)
        self.out_dir = Path(out_dir) / name
        self.problem = None

    def setup(self):
        """Time to the first iteration: one problem build."""
        t0 = time.perf_counter()
        self.problem = bench.build_problem(self.config["problem"], RUN_SEED,
                                           False)
        return time.perf_counter() - t0

    def working_set(self):
        """Bytes of the main arrays, computed from their shapes."""
        spec = self.config["problem"]
        n, dim = self.problem.n_components, self.problem.dim
        if self.name == "auc-full":
            data = {"X_bytes": n * int(spec["d"]) * 8}
        else:
            data = {"phi_phi_next_psi_bytes": 3 * n * int(spec["features"]) * 8}
        return {**data, "saga_table_bytes": n * dim * 8, "n": n, "dim": dim}

    def run_pass(self, tracer=None):
        t0 = time.perf_counter()
        if tracer is None:
            cells = bench.run_experiment(self.config, self.out_dir)
        else:
            cells = tracer.block("bench.run_experiment", bench.run_experiment,
                                 self.config, self.out_dir, cell="setup")
        run_s = time.perf_counter() - t0
        errors = []
        last = {}
        try:
            for row in bench.read_runs_csv(self.out_dir / "runs.csv"):
                if row["algorithm"] not in last \
                        or row["epoch"] >= last[row["algorithm"]]["epoch"]:
                    last[row["algorithm"]] = row
        except (OSError, bench.ConfigError) as exc:
            errors.append(f"runs.csv: {exc}")
        try:
            with open(self.out_dir / "summary.csv") as fh:
                if len(fh.read().splitlines()) < 2:
                    errors.append("summary.csv has no rows")
        except OSError as exc:
            errors.append(f"summary.csv: {exc}")
        ms = {alg: row["wall_ms"] / row["epoch"] for alg, row in last.items()}
        if set(ms) != set(KINDS):
            errors.append(f"runs.csv cells {sorted(ms)}")
        outcome = {c["algorithm"]: [c["oracle_calls"], c["iterations"],
                                    c["final_rel_residual"]] for c in cells}
        layers = {"bench.output_bytes": sum(
            (self.out_dir / f).stat().st_size
            for f in ("runs.csv", "summary.csv", "manifest.json"))}
        return PassResult(run_s, ms, sum(c["iterations"] for c in cells),
                          outcome, errors, layers,
                          {c["algorithm"]: c["oracle_calls"] for c in cells})

    def invariants_hold(self, alg, values):
        """Invariants that hold for any seed: the call budget was spent
        and the residual went down."""
        calls, _, rel = values
        n = self.problem.n_components
        return calls >= self.config["run"]["epochs"] * n \
            and math.isfinite(rel) and rel < 1.0


class McWorkload:
    """mc-verify: per kind, the defining check (unbiased or bias recursion)
    and the variance recursion, as `vrfrbs verify` runs them."""

    name = "mc-verify"
    seed = RUN_SEED

    def __init__(self):
        self.histories = None
        # Which components a check evaluates is fixed by its inputs, so
        # they are counted once, untimed, and the timed passes run on the
        # program's own operator.
        problem = proxied(problems.linear_toy(seed=RUN_SEED, **MC_TOY))
        op = problem.forward
        self.epochs = {}
        for kind, history in self._histories(problem).items():
            c0 = op.components
            for _, check in self._checks(kind):
                check(history, trials=MC_TRIALS, seed=RUN_SEED)
            self.epochs[kind] = (op.components - c0) / op.n

    @staticmethod
    def _checks(kind):
        defining = ("unbiased", verification.check_unbiased) \
            if kind in UNBIASED_KINDS \
            else ("bias-recursion", verification.check_bias_recursion)
        return defining, ("variance-recursion",
                          verification.check_variance_recursion)

    @staticmethod
    def _histories(problem, tracer=None):
        out = {}
        for kind in KINDS:
            args = (kind, default_params(kind, n=MC_TOY["n"],
                                         profile="experiment"), problem)
            if tracer is None:
                out[kind] = verification.build_history(*args, seed=RUN_SEED)
            else:
                out[kind] = tracer.block(
                    "verification.build_history", verification.build_history,
                    *args, seed=RUN_SEED, cell=f"build_history/{kind}")
        return out

    def setup(self):
        """Time to the first trial: the toy problem and every history."""
        t0 = time.perf_counter()
        self.histories = self._histories(
            problems.linear_toy(seed=RUN_SEED, **MC_TOY))
        return time.perf_counter() - t0

    def working_set(self):
        n, dim = MC_TOY["n"], MC_TOY["dim"]
        return {"B_c_bytes": n * dim * (dim + 1) * 8,
                "saga_table_bytes": n * dim * 8, "n": n, "dim": dim}

    def run_pass(self, tracer=None):
        if tracer is None:
            histories = self.histories
        else:
            problem = tracer.block("problems.linear_toy", problems.linear_toy,
                                   seed=RUN_SEED, **MC_TOY)
            histories = self._histories(proxied(problem, tracer), tracer)
        outcome = {}
        ms = {}
        trials = 0
        t0 = time.perf_counter()
        for kind in KINDS:
            k0 = time.perf_counter()
            for label, check in self._checks(kind):
                name = f"{label}/{kind}"
                if tracer is None:
                    report = check(histories[kind], trials=MC_TRIALS,
                                   seed=RUN_SEED)
                else:
                    report = tracer.block("verification.check", check,
                                          histories[kind], trials=MC_TRIALS,
                                          seed=RUN_SEED, cell=name)
                outcome[name] = report.passed
                trials += report.trials
            ms[kind] = (time.perf_counter() - k0) * 1e3 / self.epochs[kind]
        run_s = time.perf_counter() - t0
        layers = {"verification.trials": trials,
                  "verification.checks_failed": sum(
                      1 for passed in outcome.values() if not passed)}
        return PassResult(run_s, ms, trials, outcome, layers=layers)

    def invariants_hold(self, check, passed):
        """Without a reference, every check must pass."""
        return passed


def make_workload(name, seed, out_dir):
    if name == "mc-verify":
        return McWorkload()
    return MatrixWorkload(name, seed, out_dir)


WORKLOADS = ("auc-full", "pe-desk", "mc-verify")


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------

def load_references(workload):
    """Stored outcomes per seed for this workload, or {} when none exist.

    A reference recorded under other run-length constants is refused.
    """
    if not REFERENCES.exists():
        return {}
    with open(REFERENCES) as fh:
        stored = json.load(fh).get(workload)
    if not stored:
        return {}
    if stored["params"] != params()[workload]:
        raise SystemExit(f"{REFERENCES.name}: {workload} was recorded with "
                         f"{stored['params']}, the benchmark runs "
                         f"{params()[workload]}; record it again")
    return stored["seeds"]


def _same(ref, got):
    """Exact for counts and pass/fail, within REL_TOL for residuals."""
    if isinstance(ref, list):
        return len(ref) == len(got) and all(map(_same, ref, got))
    if isinstance(ref, float):
        return abs(got - ref) <= REL_TOL * abs(ref)
    return ref == got


def gate(workload, result, reference, first):
    """Ids of the cells or checks of one pass that fail the gate.

    With a stored reference every value must match it; without one the
    seed-independent invariants must hold.  Every pass must also reproduce
    the first pass of the run exactly.
    """
    failed = set()
    for key, got in result.outcome.items():
        if reference is not None:
            if key not in reference or not _same(reference[key], got):
                failed.add(key)
        elif not workload.invariants_hold(key, got):
            failed.add(key)
        if first is not None and first.outcome.get(key) != got:
            failed.add(key)
    if reference is not None:
        failed |= set(reference) - set(result.outcome)
    if result.errors:
        failed |= set(result.outcome) or {"outputs"}
    return failed
