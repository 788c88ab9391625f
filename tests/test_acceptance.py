"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The figure-reproduction
tests drive the benchmark harness end to end at desk scale; the Monte-Carlo
certifications run at 10^5 trials.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from vrfrbs.bench import read_runs_csv, run_experiment
from vrfrbs.core import (apply_resolvent, ball_box_resolvent,
                         identity_resolvent, soft_threshold_resolvent)
from vrfrbs.estimators import (EstimatorParams, default_params,
                               make_estimator, sizing_rule_sides, theory_card)
from vrfrbs.problems import (build_auc_problem, gen_auc_dataset, linear_toy,
                             strongly_monotone_affine)
from vrfrbs.solver import SolverConfig, run, theory_stepsize
from vrfrbs.verification import (build_history, check_bias_recursion,
                                 check_unbiased, check_variance_recursion)

from helpers import frbs_reference, instrumented_problem

MC_TRIALS = 100_000
CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"


def _report(name, ok, detail=""):
    print(f"[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'}  {detail}",
          flush=True)
    assert ok, f"{name}: {detail}"


def _toy(n=10, dim=4, seed=1):
    return linear_toy(n=n, dim=dim, seed=seed)


UNBIASED_SPECS = {
    "sgd": EstimatorParams(b=4),
    "svrg": EstimatorParams(b=4, p_switch=0.4),
    "saga": EstimatorParams(b=4),
}
BIASED_SPECS = {
    "sarah": EstimatorParams(b=4, p_switch=0.4),
    "hsgd": EstimatorParams(b=4, omega=0.5),
    "hsvrg": EstimatorParams(b=4, p_switch=0.4, omega=0.5),
}


def test_definition1_certification():
    """Unbiased kinds: Monte-Carlo mean error within 4 sigma at 10^5 trials
    on the 10-component toy, exact enumeration on tiny instances."""
    problem = _toy()
    details = []
    ok = True
    for kind, params in UNBIASED_SPECS.items():
        hist = build_history(kind, params, problem, seed=2)
        rep = check_unbiased(hist, trials=MC_TRIALS, seed=11)
        ok &= rep.passed
        details.append(f"{kind}:{rep.margin_sigmas:.2f}s")
    enum_cases = [
        ("sgd", EstimatorParams(b=1), 2),
        ("svrg", EstimatorParams(b=1, p_switch=0.3), 5),
        ("saga", EstimatorParams(b=2), 4),
    ]
    for kind, params, n in enum_cases:
        hist = build_history(kind, params, _toy(n=n, dim=3, seed=4), seed=3)
        rep = check_unbiased(hist, mode="enumerate")
        ok &= rep.passed
        details.append(f"enum-{kind}:{np.linalg.norm(rep.sample_mean):.1e}")
    _report("definition-1 certification", ok, " ".join(details))


def test_definition2_certification():
    """Biased kinds: conditional mean error equals (1 - tau) e_{k-1}."""
    problem = _toy()
    details = []
    ok = True
    for kind, params in BIASED_SPECS.items():
        hist = build_history(kind, params, problem, seed=2)
        rep = check_bias_recursion(hist, trials=MC_TRIALS, seed=13)
        ok &= rep.passed
        details.append(f"{kind}:{rep.margin_sigmas:.2f}s")
    enum_cases = [
        ("sarah", EstimatorParams(b=1, p_switch=0.5), 3, 1),
        ("hsgd", EstimatorParams(b=2, omega=0.4), 4, 0),
        ("hsvrg", EstimatorParams(b=1, p_switch=0.5, omega=0.3), 3, 0),
    ]
    for kind, params, n, seed in enum_cases:
        hist = build_history(kind, params, _toy(n=n, dim=3, seed=4), seed=seed)
        rep = check_bias_recursion(hist, mode="enumerate")
        ok &= rep.passed
        err = np.linalg.norm(rep.sample_mean - rep.target)
        details.append(f"enum-{kind}:{err:.1e}")
    _report("definition-2 certification", ok, " ".join(details))


def test_variance_recursion_all_kinds():
    """One-sided recursion bound at the theory-card constants, all six."""
    problem = _toy()
    specs = {"full": EstimatorParams(), **UNBIASED_SPECS, **BIASED_SPECS}
    details = []
    ok = True
    for kind, params in specs.items():
        hist = build_history(kind, params, problem, seed=2)
        rep = check_variance_recursion(hist, trials=MC_TRIALS, seed=17)
        ok &= rep.passed
        details.append(f"{kind}:{rep.margin_sigmas:+.0f}s")
    _report("variance recursion (6 kinds)", ok, " ".join(details))


def test_deterministic_reduction_three_problems():
    """Full-batch runs equal the independent deterministic loop bit-for-bit
    over 10^3 iterations."""
    auc = build_auc_problem(gen_auc_dataset(40, 4, 0.25, 0.1, seed=3),
                            radius=2.0)
    from vrfrbs.problems import bilinear_problem
    cases = [
        ("affine-monotone", strongly_monotone_affine(8, 12, seed=5), 0.2),
        ("bilinear", bilinear_problem(2), 0.2),
        ("auc-toy", auc, 0.5 / auc.lipschitz),
    ]
    ok = True
    details = []
    for name, prob, eta in cases:
        x0 = 0.5 * np.ones(prob.dim)
        ref = frbs_reference(prob, eta, x0, 1000)
        est = make_estimator("full", EstimatorParams(), prob, x0, seed=0)
        trace = run(prob, est, SolverConfig(eta=eta, max_iters=1000,
                                            record_every=10 ** 9))
        same = np.array_equal(trace.final_x, ref[-1])
        ok &= same
        details.append(f"{name}:{'bit-equal' if same else 'MISMATCH'}")
    _report("deterministic reduction", ok, " ".join(details))


@pytest.fixture(scope="module")
def monotone_instance():
    return strongly_monotone_affine(dim=50, n_components=125_000, seed=0)


def test_convergence_regression(monotone_instance):
    """Strongly monotone affine problem: full batch to 1e-8 within 1e5
    iterations at eta = 0.99/(3 sqrt(2) L); loopless-SVRG at the theory
    parameters to 1e-6 within a 200-epoch budget (10-seed mean)."""
    prob = monotone_instance
    n = prob.n_components
    eta = theory_stepsize(prob.lipschitz, 0.0, "unbiased", safety=0.99)
    assert eta == pytest.approx(0.99 / (3 * math.sqrt(2) * prob.lipschitz))

    est = make_estimator("full", EstimatorParams(), prob, np.ones(50), seed=0)
    trace = run(prob, est, SolverConfig(eta=eta, max_iters=10 ** 5,
                                        record_every=100, stop_tol=1e-8))
    full_ok = trace.records[-1].rel_residual <= 1e-8
    full_iters = trace.iterations_run

    params = default_params("svrg", n=n, profile="theory")
    finals = []
    for seed in range(10):
        est = make_estimator("svrg", params, prob, np.ones(50), seed=seed)
        tr = run(prob, est, SolverConfig(eta=eta, max_iters=10 ** 6,
                                         record_every=5, max_calls=200 * n))
        within = [r.rel_residual for r in tr.records
                  if r.oracle_calls <= 200 * n]
        finals.append(min(within))
    svrg_mean = float(np.mean(finals))
    ok = full_ok and svrg_mean <= 1e-6
    _report("convergence regression", ok,
            f"full:rel<=1e-8@{full_iters}iters svrg:10-seed-mean={svrg_mean:.2e}")


def test_best_iterate_rate_trend():
    """Running mean of squared residuals decays like C/K: the K=4000 mean
    is at most 0.6x the K=2000 mean, averaged over 10 seeds."""
    prob = strongly_monotone_affine(dim=50, n_components=1000, seed=0)
    eta = theory_stepsize(prob.lipschitz)
    params = default_params("svrg", n=1000, profile="theory")
    m2, m4 = [], []
    for seed in range(10):
        est = make_estimator("svrg", params, prob, np.ones(50), seed=seed)
        tr = run(prob, est, SolverConfig(eta=eta, max_iters=4000,
                                         record_every=1))
        sq = np.array([r.abs_residual ** 2 for r in tr.records])
        m2.append(sq[:2001].mean())
        m4.append(sq[:4001].mean())
    ratio = float(np.mean(m4) / np.mean(m2))
    _report("O(1/K) residual trend", ratio <= 0.6, f"ratio={ratio:.4f}")


def _final_means(out_dir, budget):
    rows = read_runs_csv(out_dir / "runs.csv")
    finals = {}
    for row in rows:
        key = (row["algorithm"], row["seed"])
        prev = finals.get(key)
        if prev is None or row["epoch"] >= prev[0]:
            finals[key] = (row["epoch"], row["rel_residual"])
    means = {}
    for (alg, _seed), (_ep, rel) in finals.items():
        means.setdefault(alg, []).append(rel)
    return {alg: float(np.mean(v)) for alg, v in means.items()}


def _desk_config(file_name, names):
    """A committed desk config with only the named algorithms, in the
    given order: each cell's estimator seed depends on its position."""
    config = json.loads((CONFIGS / file_name).read_text())
    by_name = {alg["name"]: alg for alg in config["algorithms"]}
    config["algorithms"] = [by_name[name] for name in names]
    return config


def test_figure1_auc_desk_scale(tmp_path):
    """AUC benchmark at desk scale: loopless-SVRG reaches 1e-6 and every
    variance-reduced variant beats the increasing-batch sgd baseline by at
    least two orders of magnitude."""
    config = _desk_config("auc_desk.json",
                          ("svrg", "saga", "sarah", "hsvrg", "sgd"))
    out = tmp_path / "auc"
    run_experiment(config, out)
    means = _final_means(out, 1000)
    svrg_ok = means["svrg"] <= 1e-6
    ratio_ok = all(means[a] <= 1e-2 * means["sgd"]
                   for a in ("svrg", "saga", "sarah", "hsvrg"))
    detail = " ".join(f"{a}={means[a]:.2e}" for a in sorted(means))
    _report("figure-1 qualitative (AUC desk)", svrg_ok and ratio_ok, detail)


def test_figure2_policy_eval_desk_scale(tmp_path):
    """Policy-evaluation benchmark: saga converges fastest (below 1e-5
    within 5000 epochs) and the final ordering is saga <= svrg <= sgd."""
    config = _desk_config("policy_eval_desk.json", ("saga", "svrg", "sgd"))
    out = tmp_path / "pe"
    run_experiment(config, out)
    means = _final_means(out, 5000)
    ordering = means["saga"] <= means["svrg"] <= means["sgd"]
    saga_ok = means["saga"] <= 1e-5
    detail = " ".join(f"{a}={means[a]:.2e}" for a in ("saga", "svrg", "sgd"))
    _report("figure-2 qualitative (policy evaluation)",
            ordering and saga_ok, detail)


def test_corollary_boundary_identities():
    """Batch-size design rules sit exactly on the step-condition boundary."""
    L = 1.3
    n = 4000
    b_saga = 40.0 ** (1.0 / 3.0) * n ** (2.0 / 3.0)
    card = theory_card("saga", EstimatorParams(b=b_saga), L=L, n=n)
    saga_gap = abs(card.kappa * L * L - (card.theta + card.theta_hat))
    saga_ok = saga_gap <= 1e-12 * card.kappa * L * L

    p = 0.21
    lhs, rhs = sizing_rule_sides("sarah",
                                 EstimatorParams(b=110.0 / p ** 3, p_switch=p),
                                 L)
    sarah_ok = abs(lhs - rhs) <= 1e-12 * lhs

    p2 = 0.37
    lhs2, rhs2 = sizing_rule_sides("svrg",
                                   EstimatorParams(b=40.0 / p2 ** 2,
                                                   p_switch=p2), L)
    svrg_ok = abs(lhs2 - rhs2) <= 1e-12 * lhs2
    _report("corollary boundary identities", saga_ok and sarah_ok and svrg_ok,
            f"saga-gap={saga_gap:.2e} sarah:{lhs:.6g}={rhs:.6g} "
            f"svrg:{lhs2:.6g}={rhs2:.6g}")


def test_infrastructure_reproducibility(tmp_path):
    """Byte-identical reruns under fixed seeds, exact epoch accounting
    against an instrumented operator, and resolvent nonexpansiveness."""
    config = {
        "experiment_id": "repro",
        "problem": {"family": "auc", "n": 400, "d": 8, "p_pos": 0.2,
                    "noise_sigma": 0.1, "seed": 5},
        "algorithms": [
            {"name": "svrg", "estimator": "svrg",
             "params": "default:experiment", "eta": "1/5L"},
            {"name": "saga", "estimator": "saga",
             "params": "default:experiment", "eta": "1/14L"},
        ],
        "run": {"epochs": 20, "record_every_epochs": 2.0, "seeds": [0, 1]},
    }
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    run_experiment(config, out1)
    run_experiment(config, out2)
    byte_ok = all((out1 / f).read_bytes() == (out2 / f).read_bytes()
                  for f in ("runs.csv", "summary.csv", "manifest.json"))

    # epoch * n accounts for the instrumented component-evaluation count:
    # estimator calls plus one unmetered full evaluation per recorded
    # residual are everything observed
    prob, wrapped = instrumented_problem(linear_toy(n=9, dim=3, seed=2))
    est = make_estimator("svrg", EstimatorParams(b=3, p_switch=0.4), prob,
                         np.ones(3), seed=6)
    trace = run(prob, est, SolverConfig(eta=0.05, max_iters=200,
                                        record_every=7))
    count_ok = trace.oracle_calls + 9 * len(trace.records) == wrapped.observed
    epochs_ok = all(
        float(format(r.oracle_calls / 9, ".17g")) * 9
        == pytest.approx(r.oracle_calls, abs=1e-6)
        for r in trace.records)

    # nonexpansiveness: 1000 random pairs per resolvent kind
    rng = np.random.default_rng(0)
    resolvents = [identity_resolvent(),
                  ball_box_resolvent(1.5, [0.5, 0.5, 1.0]),
                  soft_threshold_resolvent(0.3, 4)]
    nonexp_ok = True
    for res in resolvents:
        for _ in range(1000):
            z1 = 10 * rng.standard_normal(8)
            z2 = 10 * rng.standard_normal(8)
            d_out = np.linalg.norm(apply_resolvent(res, z1, 0.7)
                                   - apply_resolvent(res, z2, 0.7))
            if d_out > np.linalg.norm(z1 - z2) + 1e-12:
                nonexp_ok = False
    ok = byte_ok and count_ok and epochs_ok and nonexp_ok
    _report("infrastructure (reproducibility/accounting/nonexpansive)", ok,
            f"bytes={byte_ok} calls={count_ok} epochs={epochs_ok} "
            f"nonexpansive={nonexp_ok}")
