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
    manifest.json  the software version, the resolved configuration
                   (`load_config`: defaults filled in, the problem block
                   as given), `numeric_env()` and one resolution per cell

Floats are written with 17 significant digits (exact decimal round-trip)
and LF line endings.  manifest.json is strict JSON: a non-finite float (an
infinite condition side, or "radius": Infinity echoed from the config) is
written as the string "inf", "-inf" or "nan".  With the default "timing":
"off" the wall_ms column is written as 0 and outputs are byte-identical
across repeats with the same numpy, BLAS and thread count; set "timing":
"wall" to record measured wall time instead.
"""

from __future__ import annotations

import json
import math
import os
import platform
import re
from dataclasses import dataclass
from pathlib import Path
from typing import List

import numpy as np

from . import __version__
from .core import InclusionProblem
from .estimators import (_NEEDS_OMEGA, _NEEDS_SWITCH, BIASED_KINDS, FULL,
                         KINDS, SAGA, SGD, EstimatorParams, check_params,
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

_ETA_PATTERN = re.compile(r"^1/([0-9]*\.?[0-9]+)L$")
# runs.csv writes ids unquoted, so they may not hold its separators
_CSV_SPECIAL = re.compile(r'[,"\r\n]')

# Config schema: one table per block maps each key to (check, default).  A
# check takes (value, where) and returns the value to use or raises
# ConfigError; defaults go through it too.  _REQUIRED keys must be given,
# _ABSENT keys stay absent when not given.
_REQUIRED = object()
_ABSENT = object()


def _check(test, rule, cast=None):
    def check(value, where):
        if not test(value):
            raise ConfigError(f"{where} must be {rule}, not {value!r}")
        return value if cast is None else cast(value)
    return check


def _finite(value) -> bool:
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def _one_of(*options):
    return _check(lambda v: isinstance(v, str) and v in options,
                  " or ".join(map(repr, options)))


def _list_of(check, distinct=False):
    def read(value, where):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{where} must be a non-empty list, "
                              f"not {value!r}")
        items = [check(v, f"{where}[{j}]") for j, v in enumerate(value)]
        if distinct and len(set(items)) != len(items):
            raise ConfigError(f"{where} must be distinct")
        return items
    return read


def _read(block, table, where=""):
    """Check `block` (at path `where`, "" for the whole config) against
    `table`; return its values with the defaults filled in."""
    name = where or "config"
    if not isinstance(block, dict):
        raise ConfigError(f"{name} must be a JSON object, not {block!r}")
    unknown = set(block) - set(table)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {name}, "
                          f"which takes {sorted(table) or 'no keys'}")
    out = {}
    for key, (check, default) in table.items():
        path = f"{where}.{key}".lstrip(".")
        if key in block:
            out[key] = check(block[key], path)
        elif default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r} in {name}")
        elif default is not _ABSENT:
            out[key] = check(default, path)
    return out


# type(v) is int excludes JSON true/false
_INT = _check(lambda v: type(v) is int, "an integer")
_INT_GE1 = _check(lambda v: type(v) is int and v >= 1, "an integer >= 1")
_INT_GE0 = _check(lambda v: type(v) is int and v >= 0, "an integer >= 0")
_FLOAT = _check(_finite, "a finite number", float)
_BOOL = _check(lambda v: isinstance(v, bool), "true or false")
_ID = _check(lambda v: isinstance(v, str) and not _CSV_SPECIAL.search(v),
             "a string without a comma, a double quote or a line break")

_PROBLEM = {
    "auc": {"n": (_INT_GE1, _REQUIRED), "d": (_INT_GE1, _REQUIRED),
            "p_pos": (_FLOAT, 0.1), "noise_sigma": (_FLOAT, 0.1),
            # null means R = 100; Infinity drops the constraint
            "radius": (_check(
                lambda v: v is None or v == math.inf or (_finite(v) and v > 0),
                "null, Infinity or a finite positive number"), None)},
    "policy-eval": {"states": (_INT_GE1, _REQUIRED),
                    "actions": (_INT_GE1, _REQUIRED),
                    "transitions": (_INT_GE1, _REQUIRED),
                    "features": (_INT_GE1, 21), "gamma": (_FLOAT, 0.95),
                    "tau_reg": (_FLOAT, 1e-4)},
    "affine-toy": {"dim": (_INT_GE1, 50), "components": (_INT_GE1, 1000),
                   "mu": (_FLOAT, 1.0), "slope_scale": (_FLOAT, 0.1),
                   "offset_scale": (_FLOAT, 1.0)},
}

# the problem key that counts a family's components
_SIZE_KEY = {"auc": "n", "policy-eval": "transitions",
             "affine-toy": "components"}

# value ranges are estimators.check_params's, applied in load_config
_PARAMS = {
    "b": (_INT, _ABSENT), "p_switch": (_FLOAT, _REQUIRED),
    "omega": (_FLOAT, _REQUIRED),
    "mega_batch": (_check(lambda v: v == "exact" or type(v) is int,
                          "'exact' or an integer"), _ABSENT),
    "share_batches": (_BOOL, _ABSENT), "sgd_coeff": (_FLOAT, _ABSENT),
}


def _params_table(kind):
    """The _PARAMS entries `kind` reads, so p_switch and omega are required
    exactly where they are read.  sgd's batch is its schedule, so it reads
    sgd_coeff and not b; saga has no anchor to mega-batch."""
    if kind == FULL:
        keys = ()
    elif kind == SGD:
        keys = ("sgd_coeff",)
    else:
        keys = ("b",) + ("p_switch",) * (kind in _NEEDS_SWITCH) \
            + ("omega",) * (kind in _NEEDS_OMEGA) \
            + ("mega_batch",) * (kind != SAGA) \
            + ("share_batches",) * (kind in _NEEDS_OMEGA)
    return {key: _PARAMS[key] for key in keys}


def _params(value, where):
    # an object is read in _algorithms, against its estimator's keys
    if not isinstance(value, dict) and \
            value not in ("default:experiment", "default:theory"):
        raise ConfigError(f"{where} must be an object, 'default:experiment' "
                          f"or 'default:theory', not {value!r}")
    return value


def _eta(value, where):
    resolve_eta(value, 1.0, False)   # its form does not depend on L
    return value


_ALGORITHM = {"name": (_ID, _ABSENT),   # defaults to the estimator
              "estimator": (_one_of(*KINDS), _REQUIRED),
              "params": (_params, "default:experiment"),
              "eta": (_eta, "theory")}

_RUN = {
    "epochs": (_check(lambda v: _finite(v) and v >= 1,
                      "a finite number >= 1", float), 1.0),
    "record_every_epochs": (_check(lambda v: _finite(v) and v > 0,
                                   "a finite number > 0", float), 1.0),
    "seeds": (_list_of(_INT_GE0, distinct=True), [0]),
    "max_iters": (_INT_GE0, 10_000_000),
}


def read_problem(spec) -> dict:
    """The problem block checked against its family's table, with the
    defaults filled in."""
    family = spec.get("family") if isinstance(spec, dict) else None
    if not (isinstance(family, str) and family in _PROBLEM):
        raise ConfigError(f"unknown problem family {family!r}")
    table = {"family": (_one_of(family), _REQUIRED), "seed": (_INT_GE0, 0),
             **_PROBLEM[family]}
    return _read(spec, table, f"problem[{family}]")


def _problem(value, where):
    read_problem(value)
    return dict(value)   # written to the manifest as given


def _algorithms(value, where):
    algs = _list_of(lambda a, at: _read(a, _ALGORITHM, at))(value, where)
    for i, alg in enumerate(algs):
        alg.setdefault("name", alg["estimator"])
        if isinstance(alg["params"], dict):
            alg["params"] = _read(alg["params"],
                                  _params_table(alg["estimator"]),
                                  f"{where}[{i}].params")
    if len({a["name"] for a in algs}) != len(algs):
        raise ConfigError(f"{where}: algorithm names must be distinct")
    return algs


_CONFIG = {
    "experiment_id": (_ID, _REQUIRED),
    "problem": (_problem, _REQUIRED),
    "algorithms": (_algorithms, _REQUIRED),
    "run": (lambda v, where: _read(v, _RUN, where), _REQUIRED),
    "fix_data": (_BOOL, False),
    "timing": (_one_of("off", "wall"), "off"),
    "x0": (_one_of("zeros", "ones"), "zeros"),
}


def load_config(raw) -> dict:
    """Check a raw experiment config and return it resolved: every block
    but `problem` with its defaults filled in.  This is what manifest.json
    records."""
    config = _read(raw, _CONFIG)
    problem = read_problem(config["problem"])
    n = problem[_SIZE_KEY[problem["family"]]]
    for i, alg in enumerate(config["algorithms"]):
        # the params the cell will use, default:* resolved, checked as
        # make_estimator checks them
        params = resolve_params(alg, n)
        try:
            check_params(alg["estimator"], params, n)
        except ValueError as exc:
            raise ConfigError(f"algorithms[{i}] ({alg['name']!r}) "
                              f"params.{exc}") from exc
    return config


def build_problem(problem_spec: dict, run_seed: int,
                  fix_data: bool) -> InclusionProblem:
    """Instantiate the problem for one run; data is regenerated per run seed
    unless fix_data is set."""
    spec = read_problem(problem_spec)
    family = spec["family"]
    data_seed = (spec["seed"],) if fix_data else (spec["seed"], run_seed)
    if family == "auc":
        ds = gen_auc_dataset(spec["n"], spec["d"], spec["p_pos"],
                             spec["noise_sigma"], seed=data_seed)
        return build_auc_problem(ds, radius=spec["radius"])
    if family == "policy-eval":
        mdp = gen_random_mdp(spec["states"], spec["actions"], seed=data_seed,
                             gamma=spec["gamma"])
        feats = uniform_features(mdp.n_states, spec["features"],
                                 seed=data_seed + (1,))
        trans = sample_transitions(mdp, spec["transitions"], feats,
                                   seed=data_seed + (2,))
        return build_pe_problem(trans, mdp.gamma, spec["tau_reg"])
    return strongly_monotone_affine(
        spec["dim"], spec["components"], seed=data_seed, mu=spec["mu"],
        slope_scale=spec["slope_scale"], offset_scale=spec["offset_scale"])


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


def resolve_params(alg: dict, n: int) -> EstimatorParams:
    """EstimatorParams of a resolved algorithm block."""
    spec = alg["params"]
    if isinstance(spec, str):
        return default_params(alg["estimator"], n=n,
                              profile=spec.partition(":")[2])
    kwargs = dict(spec)
    if alg["estimator"] == SGD:
        coeff = {"coeff": kwargs.pop("sgd_coeff")} \
            if "sgd_coeff" in kwargs else {}
        kwargs["b_schedule"] = increasing_batch_schedule(n, **coeff)
    return EstimatorParams(**kwargs)


@dataclass
class CellResult:
    algorithm: str
    seed: int
    rows: list              # (epoch, iter, rel, abs, wall_ms)
    resolution: dict


def _run_cell(config: dict, alg_index: int, seed: int) -> CellResult:
    alg, run_block = config["algorithms"][alg_index], config["run"]
    estimator = alg["estimator"]
    problem = build_problem(config["problem"], seed, config["fix_data"])
    n = problem.n_components
    params = resolve_params(alg, n)
    eta = resolve_eta(alg["eta"], problem.lipschitz,
                      estimator in BIASED_KINDS)
    x0 = np.zeros(problem.dim) if config["x0"] == "zeros" \
        else np.ones(problem.dim)
    est = make_estimator(estimator, params, problem, x0,
                         seed=(0xF00D, alg_index, seed))
    max_iters = run_block["max_iters"]
    solver_cfg = SolverConfig(
        eta=eta, max_iters=max_iters,
        record_every=max_iters + 1,
        record_calls=run_block["record_every_epochs"] * n,
        max_calls=round(run_block["epochs"] * n))
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
             rec.abs_residual,
             rec.wall_ms if config["timing"] == "wall" else 0.0)
            for rec in trace.records]
    card = theory_card(estimator, params, problem.lipschitz, n=n)
    checks = validate_rates(card, problem.lipschitz, eta)
    resolution = {
        "algorithm": alg["name"],
        "seed": seed,
        "estimator": estimator,
        "lipschitz": problem.lipschitz,
        "eta": eta,
        "iterations": trace.iterations_run,
        "oracle_calls": trace.oracle_calls,
        "final_rel_residual": trace.records[-1].rel_residual,
        "conditions": [{"name": c.name, "lhs": c.lhs, "rhs": c.rhs,
                        "passed": c.passed} for c in checks],
    }
    if estimator in ("svrg", "hsvrg"):
        # conventional accounting (amortized anchor + two batch terms) next
        # to the exact counters, for cost-model comparisons
        p = params.p_switch
        resolution["nominal_cost_per_iter"] = n * p + 2.0 * (1.0 - p) * params.b
    if diverged is not None:
        resolution["diverged"] = diverged
    return CellResult(alg["name"], seed, rows, resolution)


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
    return np.interp(grid, epochs, logs, left=np.nan, right=np.nan)


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


def _strict_json(value):
    """`value` with every non-finite float replaced by the string "inf",
    "-inf" or "nan", which json.dump(allow_nan=False) accepts."""
    if isinstance(value, float) and not math.isfinite(value):
        return "nan" if math.isnan(value) else ("inf" if value > 0 else "-inf")
    if isinstance(value, dict):
        return {key: _strict_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(item) for item in value]
    return value


def numeric_env() -> dict:
    """What the output bytes depend on besides the program and its config:
    the Python and numpy versions, the BLAS name and version from numpy's
    build config, every *_NUM_THREADS variable and the number of usable
    CPUs."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:   # not on Linux
        nproc = os.cpu_count()
    threads = {key: value for key, value in sorted(os.environ.items())
               if key.endswith("_NUM_THREADS")}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "num_threads": threads, "nproc": nproc}


def run_experiment(config, out_dir):
    """Execute the experiment matrix and write runs.csv, summary.csv, and
    manifest.json into out_dir.  Returns the list of per-cell resolutions.

    A cell that diverges keeps the rows recorded before its divergence and
    is marked "diverged" in the manifest; the other cells run as usual.
    After all outputs are written, DivergenceError is raised if any cell
    diverged.
    """
    config = load_config(config)
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write-probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise ConfigError(f"output directory not writable: {exc}") from exc

    cells = [_run_cell(config, i, seed)
             for i in range(len(config["algorithms"]))
             for seed in config["run"]["seeds"]]

    experiment_id = config["experiment_id"]
    _write_runs_csv(out / "runs.csv", experiment_id, cells)
    _write_summary_csv(out / "summary.csv", experiment_id, cells,
                       config["run"]["epochs"])
    manifest = {"version": __version__, **config,
                "numeric_env": numeric_env(),
                "cells": sorted((c.resolution for c in cells),
                                key=lambda r: (r["algorithm"], r["seed"]))}
    with open(out / "manifest.json", "w", newline="\n") as fh:
        json.dump(_strict_json(manifest), fh, indent=2, sort_keys=True,
                  allow_nan=False)
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


def summarize(run_dir):
    """Aggregate runs.csv: per-algorithm mean and min/max envelope of
    log10(rel_residual) on a uniform integer epoch grid.

    Writes aggregate.csv into run_dir and returns the rows.
    """
    run_dir = Path(run_dir)
    path = run_dir / "runs.csv"
    rows = read_runs_csv(path)
    if not rows:
        raise ConfigError(f"{path} has no data rows to summarize")
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
    with open(run_dir / "aggregate.csv", "w", newline="\n") as fh:
        fh.write("algorithm,epoch,mean_log10_rel,min_log10_rel,max_log10_rel\n")
        for alg, g, m, lo, hi in out_rows:
            fh.write(f"{alg},{_fmt(g)},{_fmt(m)},{_fmt(lo)},{_fmt(hi)}\n")
    return out_rows
