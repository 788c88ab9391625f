"""Sampling-oracle (expectation setting) estimator paths."""

import numpy as np
import pytest

from vrfrbs.core import (InclusionProblem, SampledOperator,
                         UnsupportedConfigError, identity_resolvent)
from vrfrbs.estimators import (EstimatorParams, _apply_step, _make_draws,
                               estimator_step, make_estimator, theory_card)
from vrfrbs.verification import _next_step, build_history


def gaussian_affine_oracle(dim=3, noise=0.5, seed=0):
    """G(x, xi) = A x + c + noise * xi with xi ~ N(0, I): exact variance
    noise^2 * dim and Lipschitz constant ||A||."""
    rng = np.random.default_rng(seed)
    A = np.eye(dim) + 0.2 * rng.standard_normal((dim, dim))
    c = rng.standard_normal(dim)
    L = float(np.linalg.svd(A, compute_uv=False)[0])

    oracle = SampledOperator(
        dim=dim,
        sampler=lambda r, size: r.standard_normal((size, dim)),
        batch_components=lambda x, xi: (A @ x + c)[None, :] + noise * xi,
        full_eval=lambda x: A @ x + c)
    problem = InclusionProblem(forward=oracle, resolvent=identity_resolvent(),
                               lipschitz=L)
    return problem, A, c


@pytest.mark.parametrize("kind,params", [
    ("sgd", EstimatorParams(b=8)),
    ("svrg", EstimatorParams(b=8, p_switch=0.5, mega_batch=64)),
    ("sarah", EstimatorParams(b=8, p_switch=0.5, mega_batch=64)),
    ("hsgd", EstimatorParams(b=8, omega=0.5, mega_batch=64)),
    ("hsvrg", EstimatorParams(b=8, p_switch=0.5, omega=0.5, mega_batch=64)),
])
def test_oracle_estimators_step_and_count(kind, params):
    problem, A, c = gaussian_affine_oracle()
    x0 = np.zeros(3)
    st = make_estimator(kind, params, problem, x0, seed=1)
    assert st.init_calls >= 1
    rng = np.random.default_rng(5)
    pts = [x0]
    for _ in range(5):
        pts.append(pts[-1] + 0.3 * rng.standard_normal(3))
    total = st.calls
    for k in range(1, 6):
        value, calls = estimator_step(st, pts[k], pts[k - 1], pts[max(k - 2, 0)])
        total += calls
        assert np.all(np.isfinite(value))
    assert st.calls == total


@pytest.mark.parametrize("kind", ["svrg", "sarah"])
def test_oracle_trial_batched_step_matches_one_step(kind):
    """On (m, dim) oracle samples the trial-batched step equals the
    one-step path bit for bit, trial by trial: trial t's samples are the
    batch-major columns [:, t]."""
    problem, _, _ = gaussian_affine_oracle()
    params = EstimatorParams(b=4, p_switch=0.4, mega_batch=6)
    rng = np.random.default_rng(3)
    pts = [rng.standard_normal(3)]
    for _ in range(4):
        pts.append(pts[-1] + 0.3 * rng.standard_normal(3))
    frozen = make_estimator(kind, params, problem, pts[0], seed=2)
    for k in range(1, 3):
        estimator_step(frozen, pts[k], pts[k - 1], pts[max(k - 2, 0)])
    points = (pts[3], pts[2], pts[1])
    trials = 150
    state = _next_step(frozen, np.random.default_rng(8))
    draws = _make_draws(state, *points, trials=trials)
    assert draws["mega"].shape == (6, trials, 3)
    assert draws["batch"].shape == (4, trials, 3)
    assert 0 < draws["coin"].sum() < trials  # both branches exercised
    values, _ = _apply_step(state, *points, draws, trials=trials)
    assert values.shape == (trials, 3)
    for t in range(trials):
        one = {key: bool(d[t]) if key == "coin" else d[:, t]
               for key, d in draws.items()}
        value, _ = _apply_step(_next_step(frozen), *points, one)
        np.testing.assert_array_equal(values[t], value, err_msg=f"{kind} {t}")


def test_oracle_exact_anchor_rejected():
    problem, _, _ = gaussian_affine_oracle()
    with pytest.raises(Exception, match="finite-sum"):
        make_estimator("svrg", EstimatorParams(b=4, p_switch=0.5),
                       problem, np.zeros(3), seed=0)


def test_oracle_full_rejected():
    problem, _, _ = gaussian_affine_oracle()
    with pytest.raises(UnsupportedConfigError, match="full.*finite-sum"):
        make_estimator("full", EstimatorParams(), problem, np.zeros(3), seed=0)


ORACLE_PARAMS = {
    "sgd": EstimatorParams(b=8),
    "svrg": EstimatorParams(b=8, p_switch=0.5, mega_batch=64),
    "sarah": EstimatorParams(b=8, p_switch=0.5, mega_batch=64),
    "hsgd": EstimatorParams(b=8, omega=0.5, mega_batch=64),
    "hsvrg": EstimatorParams(b=8, p_switch=0.5, omega=0.5, mega_batch=64),
}


@pytest.mark.parametrize("kind", ["sgd", "svrg", "hsgd", "hsvrg", "sarah"])
def test_oracle_history_needs_finite_sum_except_sarah(kind):
    problem, _, _ = gaussian_affine_oracle()
    if kind == "sarah":
        hist = build_history(kind, ORACLE_PARAMS[kind], problem, seed=0)
        assert np.all(np.isfinite(hist.e_prev))
        return
    with pytest.raises(UnsupportedConfigError,
                       match=f"{kind} history needs a finite-sum"):
        build_history(kind, ORACLE_PARAMS[kind], problem, seed=0)


def test_oracle_sgd_mean_direction():
    """Mini-batch direction on the oracle averages to the true direction."""
    problem, A, c = gaussian_affine_oracle(noise=1.0)
    x0 = np.zeros(3)
    x1 = np.array([0.5, -0.2, 0.1])
    reps = 4000
    acc = np.zeros(3)
    for s in range(reps):
        st = make_estimator("sgd", EstimatorParams(b=4), problem, x0,
                            seed=(7, s))
        value, _ = estimator_step(st, x1, x0, x0)
        acc += value
    acc /= reps
    truth = 2.0 * (A @ x1 + c) - (A @ x0 + c)
    se = 1.0 * np.sqrt(3.0 * (4 + 1) / 4 / reps)  # crude scale bound
    assert np.linalg.norm(acc - truth) <= 5 * se + 1e-3


def test_sgd_adaptive_batch_rule():
    """b_k >= sigma^2 / (L^2/2 dx^2 + L^2/2 dx'^2 + delta_k), clamped to n
    on finite sums."""
    from vrfrbs.problems import linear_toy
    from vrfrbs.estimators import _sgd_batch_size

    noise, dim = 1.0, 3
    problem, _, _ = gaussian_affine_oracle(dim=dim, noise=noise)
    sigma2 = noise * noise * dim
    params = EstimatorParams(sigma2=sigma2,
                             delta_schedule=lambda k: 0.1 / (k + 1) ** 2)
    st = make_estimator("sgd", params, problem, np.zeros(3), seed=0)
    st.k = 3
    x2 = np.zeros(3)
    x1 = np.array([0.1, 0.0, 0.0])
    x = np.array([0.2, 0.0, 0.0])
    b = _sgd_batch_size(st, x, x1, x2)
    L2 = problem.lipschitz ** 2
    denom = 0.5 * L2 * 0.01 + 0.5 * L2 * 0.01 + 0.1 / 16.0
    assert b == int(np.ceil(sigma2 / denom))

    # default slack schedule: L^2 / (k+1)^2
    params2 = EstimatorParams(sigma2=sigma2)
    st2 = make_estimator("sgd", params2, problem, np.zeros(3), seed=0)
    st2.k = 1
    b2 = _sgd_batch_size(st2, x, x1, x2)
    denom2 = 0.5 * L2 * 0.01 + 0.5 * L2 * 0.01 + L2 / 4.0
    assert b2 == int(np.ceil(sigma2 / denom2))

    toy = linear_toy(n=6, dim=3, seed=0)
    st3 = make_estimator("sgd", EstimatorParams(sigma2=100.0), toy,
                         np.zeros(3), seed=0)
    st3.k = 1
    assert _sgd_batch_size(st3, x, x1, x2) == 6  # clamped to n


def test_oracle_theory_cards_expose_sigma_slack():
    params = EstimatorParams(b=8, p_switch=0.5, mega_batch=64, sigma2=2.0)
    card = theory_card("svrg", params, L=1.0)
    # mega-batch anchors: inflated constants and nonzero delta_k
    assert card.theta == pytest.approx(32.0 / (8 * 0.5))
    assert card.delta_k(0) == pytest.approx(0.5 * 2.0 / 64)


@pytest.mark.parametrize("kind", ["svrg", "sarah", "hsgd", "hsvrg"])
def test_oracle_mega_batch_has_no_component_bound(kind):
    """An oracle has no n, so a mega batch of any size builds; its initial
    direction costs exactly that many samples."""
    problem, _, _ = gaussian_affine_oracle()
    st = make_estimator(kind, ORACLE_PARAMS[kind], problem, np.zeros(3),
                        seed=0)
    assert ORACLE_PARAMS[kind].mega_batch == 64
    assert st.init_calls == 64
