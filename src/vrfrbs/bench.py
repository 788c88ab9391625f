"""Config-driven benchmark harness.

A single JSON document describes an experiment matrix (one problem family,
a list of algorithms, a list of seeds); `run_experiment` executes every
(algorithm, seed) cell, accounts oracle calls in epochs (n component
evaluations), and writes

    runs.csv       one row per residual recording,
                   header: experiment_id,algorithm,seed,epoch,iter,
                           rel_residual,abs_residual,wall_ms
    summary.csv    per-algorithm mean of the relative residual across seeds
                   on an integer epoch grid (interpolated in log-residual)
    manifest.json  the resolved configuration and software version

Floats are written with 17 significant digits (exact decimal round-trip)
and LF line endings.  With the default "timing": "off" the wall_ms column
is written as 0 and outputs are byte-identical across repeats; set
"timing": "wall" to record measured wall time instead.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import List

import numpy as np

from . import __version__
from .core import InclusionProblem
from .estimators import (BIASED_KINDS, KINDS, EstimatorParams,
                         default_params, increasing_batch_schedule,
                         make_estimator, theory_card)
from .problems import (build_auc_problem, build_pe_problem, gen_auc_dataset,
                       gen_random_mdp, sample_transitions,
                       strongly_monotone_affine, uniform_features)
from .solver import (DivergenceError, SolverConfig, run, theory_stepsize,
                     validate_rates)


class ConfigError(ValueError):
    """Malformed experiment configuration."""


CSV_HEADER = "experiment_id,algorithm,seed,epoch,iter,rel_residual,abs_residual,wall_ms"

_TOP_KEYS = {"experiment_id", "problem", "algorithms", "run", "fix_data",
             "timing", "x0"}
_PROBLEM_KEYS = {
    "auc": {"family", "n", "d", "p_pos", "noise_sigma", "radius", "seed"},
    "policy-eval": {"family", "states", "actions", "transitions", "features",
                    "gamma", "tau_reg", "seed"},
    "affine-toy": {"family", "dim", "components", "mu", "slope_scale",
                   "offset_scale", "seed"},
}
_ALG_KEYS = {"name", "estimator", "params", "eta"}
_PARAM_KEYS = {"b", "p_switch", "omega", "mega_batch", "share_batches",
               "sgd_coeff", "sigma2"}
_RUN_KEYS = {"epochs", "record_every_epochs", "seeds", "max_iters"}

_ETA_PATTERN = re.compile(r"^1/([0-9]*\.?[0-9]+)L$")
# runs.csv writes ids unquoted, so they may not hold its separators
_CSV_SPECIAL = re.compile(r'[,"\r\n]')


def _require_keys(mapping, allowed, where):
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def _require_bool(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{where} must be true or false, not {value!r}")
    return value


def _require_int(value, where: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int) \
            or value < minimum:
        raise ConfigError(f"{where} must be an integer >= {minimum}, "
                          f"not {value!r}")
    return value


def _check_params(spec: dict, where: str) -> None:
    if "b" in spec:
        _require_int(spec["b"], f"{where}.b", 1)
    if spec.get("mega_batch", "exact") != "exact":
        _require_int(spec["mega_batch"], f"{where}.mega_batch", 1)
    if "share_batches" in spec:
        _require_bool(spec["share_batches"], f"{where}.share_batches")


def _csv_id(value, where: str):
    if _CSV_SPECIAL.search(str(value)):
        raise ConfigError(f"{where} {value!r} may not contain a comma, a "
                          "double quote or a line break")
    return value


@dataclass
class AlgorithmSpec:
    name: str
    estimator: str
    params_spec: object   # "default:experiment" | "default:theory" | dict
    eta_spec: object      # float | "1/<c>L" | "theory"


@dataclass
class ExperimentConfig:
    experiment_id: str
    problem: dict
    algorithms: List[AlgorithmSpec]
    epochs: float
    record_every_epochs: float
    seeds: List[int]
    max_iters: int
    fix_data: bool
    timing: str
    x0_mode: str

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        _require_keys(raw, _TOP_KEYS, "config")
        for key in ("experiment_id", "problem", "algorithms", "run"):
            if key not in raw:
                raise ConfigError(f"missing required key {key!r}")
        problem = dict(raw["problem"])
        family = problem.get("family")
        if family not in _PROBLEM_KEYS:
            raise ConfigError(f"unknown problem family {family!r}")
        _require_keys(problem, _PROBLEM_KEYS[family], f"problem[{family}]")
        run_block = dict(raw["run"])
        _require_keys(run_block, _RUN_KEYS, "run")
        seeds = run_block.get("seeds", [0])
        if not isinstance(seeds, list) or not seeds:
            raise ConfigError(f"seeds must be a non-empty list, not {seeds!r}")
        for j, seed in enumerate(seeds):
            _require_int(seed, f"seeds[{j}]", 0)
        if len(seeds) != len(set(seeds)):
            raise ConfigError("seeds must be distinct")
        if not raw["algorithms"]:
            raise ConfigError("need at least one algorithm")
        epochs = float(run_block.get("epochs", 1))
        if not (math.isfinite(epochs) and epochs >= 1):
            raise ConfigError("epochs must be finite and >= 1")
        record_every = float(run_block.get("record_every_epochs", 1.0))
        if not (math.isfinite(record_every) and record_every > 0):
            raise ConfigError("record_every_epochs must be finite and > 0")
        algs = []
        for i, a in enumerate(raw["algorithms"]):
            _require_keys(a, _ALG_KEYS, f"algorithms[{i}]")
            est = a.get("estimator")
            if est not in KINDS:
                raise ConfigError(f"unknown estimator {est!r}")
            params_spec = a.get("params", "default:experiment")
            if isinstance(params_spec, dict):
                _require_keys(params_spec, _PARAM_KEYS, f"algorithms[{i}].params")
                _check_params(params_spec, f"algorithms[{i}].params")
            elif params_spec not in ("default:experiment", "default:theory"):
                raise ConfigError(
                    f"params must be a dict, 'default:experiment', or "
                    f"'default:theory' (algorithms[{i}])")
            name = _csv_id(a.get("name", est), f"algorithms[{i}].name")
            algs.append(AlgorithmSpec(name=name, estimator=est,
                                      params_spec=params_spec,
                                      eta_spec=a.get("eta", "theory")))
        names = [a.name for a in algs]
        if len(names) != len(set(names)):
            raise ConfigError("algorithm names must be distinct")
        timing = raw.get("timing", "off")
        if timing not in ("off", "wall"):
            raise ConfigError("timing must be 'off' or 'wall'")
        x0_mode = raw.get("x0", "zeros")
        if x0_mode not in ("zeros", "ones"):
            raise ConfigError("x0 must be 'zeros' or 'ones'")
        return ExperimentConfig(
            experiment_id=str(_csv_id(raw["experiment_id"], "experiment_id")),
            problem=problem,
            algorithms=algs,
            epochs=epochs,
            record_every_epochs=record_every,
            seeds=seeds,
            max_iters=_require_int(run_block.get("max_iters", 10_000_000),
                                   "max_iters", 0),
            fix_data=_require_bool(raw.get("fix_data", False), "fix_data"),
            timing=timing,
            x0_mode=x0_mode,
        )


def build_problem(problem_spec: dict, run_seed: int,
                  fix_data: bool) -> InclusionProblem:
    """Instantiate the problem for one run; data is regenerated per run seed
    unless fix_data is set."""
    family = problem_spec["family"]
    base_seed = int(problem_spec.get("seed", 0))
    data_seed = (base_seed,) if fix_data else (base_seed, int(run_seed))
    if family == "auc":
        ds = gen_auc_dataset(int(problem_spec["n"]), int(problem_spec["d"]),
                             float(problem_spec.get("p_pos", 0.1)),
                             float(problem_spec.get("noise_sigma", 0.1)),
                             seed=data_seed)
        return build_auc_problem(ds, radius=problem_spec.get("radius")).inclusion
    if family == "policy-eval":
        d = int(problem_spec.get("features", 21))
        mdp = gen_random_mdp(int(problem_spec["states"]),
                             int(problem_spec["actions"]), seed=data_seed,
                             gamma=float(problem_spec.get("gamma", 0.95)))
        feats = uniform_features(mdp.n_states, d, seed=data_seed + (1,))
        trans = sample_transitions(mdp, int(problem_spec["transitions"]),
                                   feats, seed=data_seed + (2,))
        return build_pe_problem(trans, mdp.gamma,
                                float(problem_spec.get("tau_reg", 1e-4))).inclusion
    if family == "affine-toy":
        return strongly_monotone_affine(
            int(problem_spec.get("dim", 50)),
            int(problem_spec.get("components", 1000)),
            seed=data_seed,
            mu=float(problem_spec.get("mu", 1.0)),
            slope_scale=float(problem_spec.get("slope_scale", 0.1)),
            offset_scale=float(problem_spec.get("offset_scale", 1.0)))
    raise ConfigError(f"unknown problem family {family!r}")


def resolve_eta(spec, L: float, biased: bool) -> float:
    """eta given as a number, the '1/<c>L' idiom, or 'theory'."""
    if isinstance(spec, bool):
        raise ConfigError(f"eta must be a number, not {spec!r}")
    if isinstance(spec, (int, float)):
        eta = float(spec)
        if not (math.isfinite(eta) and eta > 0):
            raise ConfigError("eta must be finite and positive")
        return eta
    if spec == "theory":
        return theory_stepsize(L, estimator_class="biased" if biased
                               else "unbiased")
    if isinstance(spec, str):
        m = _ETA_PATTERN.match(spec.replace(" ", ""))
        if m and float(m.group(1)) > 0:
            return 1.0 / (float(m.group(1)) * L)
    raise ConfigError(f"cannot parse eta specification {spec!r}")


def resolve_params(alg: AlgorithmSpec, n: int) -> EstimatorParams:
    if alg.params_spec == "default:experiment":
        return default_params(alg.estimator, n=n, profile="experiment")
    if alg.params_spec == "default:theory":
        return default_params(alg.estimator, n=n, profile="theory")
    spec = dict(alg.params_spec)
    kwargs = {}
    if "b" in spec:
        kwargs["b"] = spec["b"]
    if "p_switch" in spec:
        kwargs["p_switch"] = float(spec["p_switch"])
    if "omega" in spec:
        kwargs["omega"] = float(spec["omega"])
    if "mega_batch" in spec:
        kwargs["mega_batch"] = spec["mega_batch"]
    if "share_batches" in spec:
        kwargs["share_batches"] = spec["share_batches"]
    if "sigma2" in spec:
        kwargs["sigma2"] = float(spec["sigma2"])
    if alg.estimator == "sgd":
        coeff = float(spec.get("sgd_coeff", 0.01))
        kwargs["b_schedule"] = increasing_batch_schedule(n, coeff=coeff)
    elif "sgd_coeff" in spec:
        raise ConfigError("sgd_coeff only applies to the sgd estimator")
    return EstimatorParams(**kwargs)


@dataclass
class CellResult:
    algorithm: str
    seed: int
    rows: list              # (epoch, iter, rel, abs, wall_ms)
    resolution: dict


def _run_cell(config: ExperimentConfig, alg: AlgorithmSpec,
              seed: int) -> CellResult:
    problem = build_problem(config.problem, seed, config.fix_data)
    n = problem.n_components
    params = resolve_params(alg, n)
    biased = alg.estimator in BIASED_KINDS
    eta = resolve_eta(alg.eta_spec, problem.lipschitz, biased)
    x0 = np.zeros(problem.dim) if config.x0_mode == "zeros" \
        else np.ones(problem.dim)
    alg_index = [a.name for a in config.algorithms].index(alg.name)
    est = make_estimator(alg.estimator, params, problem, x0,
                         seed=(0xF00D, alg_index, seed))
    budget = int(round(config.epochs * n))
    solver_cfg = SolverConfig(
        eta=eta, max_iters=config.max_iters, seed=seed,
        record_every=config.max_iters + 1,
        record_calls=config.record_every_epochs * n,
        max_calls=budget)
    diverged = None
    try:
        trace = run(problem, est, solver_cfg)
    except DivergenceError as exc:
        # keep the finite part of the trace; the cell is marked, not lost
        trace = exc.trace
        last = trace.records[-1]
        diverged = {"iteration": trace.iterations_run + 1,
                    "last_finite_iteration": last.iteration,
                    "last_finite_rel_residual": last.rel_residual}
    rows = [(rec.oracle_calls / n, rec.iteration, rec.rel_residual,
             rec.abs_residual, rec.wall_ms if config.timing == "wall" else 0.0)
            for rec in trace.records]
    card = theory_card(alg.estimator, params, problem.lipschitz, n=n)
    report = validate_rates(card, problem.lipschitz, eta)
    resolution = {
        "algorithm": alg.name,
        "seed": seed,
        "estimator": alg.estimator,
        "lipschitz": problem.lipschitz,
        "eta": eta,
        "iterations": trace.iterations_run,
        "oracle_calls": trace.oracle_calls,
        "final_rel_residual": trace.records[-1].rel_residual,
        "conditions": [{"name": c.name, "lhs": c.lhs, "rhs": c.rhs,
                        "passed": c.passed} for c in report.checks],
    }
    if alg.estimator in ("svrg", "hsvrg"):
        # conventional accounting (amortized anchor + two batch terms) next
        # to the exact counters, for cost-model comparisons
        p = params.p_switch
        resolution["nominal_cost_per_iter"] = n * p + 2.0 * (1.0 - p) * params.b
    if diverged is not None:
        resolution["diverged"] = diverged
    return CellResult(alg.name, seed, rows, resolution)


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _write_runs_csv(path: Path, experiment_id: str,
                    cells: List[CellResult]) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for cell in sorted(cells, key=lambda c: (c.algorithm, c.seed)):
            for epoch, it, rel, ab, wall in cell.rows:
                fh.write(f"{experiment_id},{cell.algorithm},{cell.seed},"
                         f"{_fmt(epoch)},{it},{_fmt(rel)},{_fmt(ab)},"
                         f"{_fmt(wall)}\n")


_LOG_FLOOR = 1e-300


def _interp_log_series(epochs, rels, grid):
    """log10(rel) linearly interpolated in epoch onto grid points inside
    the series' span; NaN outside."""
    logs = np.log10(np.maximum(np.asarray(rels, float), _LOG_FLOOR))
    e = np.asarray(epochs, float)
    out = np.interp(grid, e, logs, left=np.nan, right=np.nan)
    out[(grid < e[0]) | (grid > e[-1])] = np.nan
    return out


def _log_residual_curves(points, grid):
    """Per algorithm, every seed's log10 residual curve on grid.

    points holds (algorithm, seed, epoch, rel_residual) tuples.  Yields
    (algorithm, stack, valid) in algorithm order, where stack has one row
    per seed in seed order and valid marks the grid points inside every
    seed's span.
    """
    series = {}
    for alg, seed, epoch, rel in points:
        series.setdefault(alg, {}).setdefault(seed, []).append((epoch, rel))
    for alg in sorted(series):
        stack = np.vstack([_interp_log_series(*zip(*sorted(pts)), grid)
                           for _, pts in sorted(series[alg].items())])
        yield alg, stack, ~np.isnan(stack).any(axis=0)


def _write_summary_csv(path: Path, experiment_id: str,
                       cells: List[CellResult], epochs_budget: float) -> None:
    grid = np.arange(0.0, math.floor(epochs_budget) + 1.0)
    points = [(cell.algorithm, cell.seed, r[0], r[2])
              for cell in cells for r in cell.rows]
    with open(path, "w", newline="\n") as fh:
        fh.write("experiment_id,algorithm,epoch,mean_rel_residual\n")
        for alg, stack, valid in _log_residual_curves(points, grid):
            means = np.power(10.0, stack).mean(axis=0)
            for g, m, ok in zip(grid, means, valid):
                if ok:
                    fh.write(f"{experiment_id},{alg},{_fmt(g)},{_fmt(m)}\n")


def run_experiment(config, out_dir):
    """Execute the experiment matrix and write runs.csv, summary.csv, and
    manifest.json into out_dir.  Returns the list of per-cell resolutions.

    A cell that diverges keeps the rows recorded before its divergence and
    is marked "diverged" in the manifest; the other cells run as usual.
    After all outputs are written, DivergenceError is raised if any cell
    diverged.
    """
    if isinstance(config, dict):
        config = ExperimentConfig.from_dict(config)
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write-probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise ConfigError(f"output directory not writable: {exc}") from exc

    cells = [_run_cell(config, alg, seed)
             for alg in config.algorithms for seed in config.seeds]

    _write_runs_csv(out / "runs.csv", config.experiment_id, cells)
    _write_summary_csv(out / "summary.csv", config.experiment_id, cells,
                       config.epochs)
    manifest = {
        "version": __version__,
        "experiment_id": config.experiment_id,
        "problem": config.problem,
        "run": {"epochs": config.epochs,
                "record_every_epochs": config.record_every_epochs,
                "seeds": config.seeds, "max_iters": config.max_iters},
        "fix_data": config.fix_data,
        "timing": config.timing,
        "x0": config.x0_mode,
        "algorithms": [{"name": a.name, "estimator": a.estimator,
                        "params": a.params_spec if not isinstance(a.params_spec, dict)
                        else dict(a.params_spec),
                        "eta": a.eta_spec} for a in config.algorithms],
        "cells": sorted((c.resolution for c in cells),
                        key=lambda r: (r["algorithm"], r["seed"])),
    }
    with open(out / "manifest.json", "w", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    diverged = [f"{c.algorithm} seed {c.seed} at iteration "
                f"{c.resolution['diverged']['iteration']}"
                for c in cells if "diverged" in c.resolution]
    if diverged:
        raise DivergenceError(f"{len(diverged)} cell(s) diverged ("
                              + "; ".join(diverged) + "); outputs written")
    return [c.resolution for c in cells]


def read_runs_csv(path):
    """Parse runs.csv into a list of row dicts; malformed lines report
    their line number."""
    rows = []
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if header != CSV_HEADER:
            raise ConfigError(f"unexpected header in {path}: {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 8:
                raise ConfigError(f"{path}:{lineno}: expected 8 fields, "
                                  f"got {len(parts)}")
            try:
                rows.append({
                    "experiment_id": parts[0],
                    "algorithm": parts[1],
                    "seed": int(parts[2]),
                    "epoch": float(parts[3]),
                    "iter": int(parts[4]),
                    "rel_residual": float(parts[5]),
                    "abs_residual": float(parts[6]),
                    "wall_ms": float(parts[7]),
                })
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return rows


def summarize(run_dir, out_path=None):
    """Aggregate runs.csv: per-algorithm mean and min/max envelope of
    log10(rel_residual) on a uniform integer epoch grid.

    Writes aggregate.csv into run_dir (or out_path) and returns the rows.
    """
    run_dir = Path(run_dir)
    rows = read_runs_csv(run_dir / "runs.csv")
    points = [(r["algorithm"], r["seed"], r["epoch"], r["rel_residual"])
              for r in rows]
    max_epoch = max(row["epoch"] for row in rows)
    grid = np.arange(0.0, math.floor(max_epoch) + 1.0)
    out_rows = []
    for alg, stack, valid in _log_residual_curves(points, grid):
        for j, g in enumerate(grid):
            if valid[j]:
                col = stack[:, j]
                out_rows.append((alg, g, float(col.mean()), float(col.min()),
                                 float(col.max())))
    target = Path(out_path) if out_path else run_dir / "aggregate.csv"
    with open(target, "w", newline="\n") as fh:
        fh.write("algorithm,epoch,mean_log10_rel,min_log10_rel,max_log10_rel\n")
        for alg, g, m, lo, hi in out_rows:
            fh.write(f"{alg},{_fmt(g)},{_fmt(m)},{_fmt(lo)},{_fmt(hi)}\n")
    return out_rows
