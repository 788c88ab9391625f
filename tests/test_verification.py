import dataclasses

import numpy as np
import pytest

from vrfrbs.estimators import (KINDS, EstimatorParams, _apply_step,
                               _make_draws, _select, default_params)
from vrfrbs.problems import linear_toy
from vrfrbs.verification import (MC_CHUNK, McReport, _mc_error_chunks,
                                 _mc_moments, _Moments, _next_step,
                                 build_history,
                                 check_bias_recursion, check_unbiased,
                                 check_variance_recursion,
                                 enumerate_step_mean)


def history_for(kind, params, n=10, dim=4, seed=0, problem_seed=1):
    problem = linear_toy(n=n, dim=dim, seed=problem_seed)
    return build_history(kind, params, problem, seed=seed)


def test_full_batch_unbiased_margin_zero():
    hist = history_for("full", EstimatorParams(), n=4)
    rep = check_unbiased(hist, trials=50, seed=0)
    assert rep.passed
    assert rep.margin_sigmas == 0.0
    assert np.linalg.norm(rep.sample_mean) == 0.0


def test_sgd_two_point_enumeration():
    hist = history_for("sgd", EstimatorParams(b=1), n=2, dim=3)
    rep = check_unbiased(hist, mode="enumerate")
    assert rep.exact and rep.passed
    assert np.linalg.norm(rep.sample_mean) <= 1e-14 * 100


def test_svrg_enumeration_two_by_five_outcomes():
    hist = history_for("svrg", EstimatorParams(b=1, p_switch=0.3), n=5, dim=3)
    rep = check_unbiased(hist, mode="enumerate")
    assert rep.passed
    assert rep.trials == 10  # (redraw or keep) x 5 batch outcomes


def test_saga_enumeration_unbiased():
    hist = history_for("saga", EstimatorParams(b=2), n=4, dim=3)
    rep = check_unbiased(hist, mode="enumerate")
    assert rep.passed
    assert rep.trials == 16


def test_enumeration_rejects_biased_kind():
    hist = history_for("sarah", EstimatorParams(b=1, p_switch=0.5), n=3)
    with pytest.raises(ValueError):
        check_unbiased(hist)
    hist2 = history_for("sgd", EstimatorParams(b=1), n=3)
    with pytest.raises(ValueError):
        check_bias_recursion(hist2)


def test_hsgd_omega_one_bias_target_zero():
    hist = history_for("hsgd", EstimatorParams(b=2, omega=1.0), n=4)
    rep = check_bias_recursion(hist, mode="enumerate")
    assert rep.passed
    assert np.linalg.norm(rep.target) == 0.0


def test_sarah_always_switch_error_vanishes():
    hist = history_for("sarah", EstimatorParams(b=1, p_switch=1.0), n=4)
    assert np.linalg.norm(hist.e_prev) <= 1e-12
    rep = check_bias_recursion(hist, mode="enumerate")
    assert rep.passed
    assert np.linalg.norm(rep.target) <= 1e-12


def test_sarah_enumeration_matches_bias_recursion():
    # seed 1: the last warm-up step did not reset, so e_{k-1} != 0
    hist = history_for("sarah", EstimatorParams(b=1, p_switch=0.5), n=3,
                       seed=1)
    rep = check_bias_recursion(hist, mode="enumerate")
    assert rep.passed
    # 1 switch branch + 3 stay branches
    assert rep.trials == 4
    assert np.linalg.norm(hist.e_prev) > 0  # a real recursion, not the trivial one


def test_hsvrg_enumeration_bias_recursion():
    hist = history_for("hsvrg",
                       EstimatorParams(b=1, p_switch=0.5, omega=0.3), n=3)
    rep = check_bias_recursion(hist, mode="enumerate")
    assert rep.passed


def test_enumeration_agrees_with_monte_carlo():
    params = EstimatorParams(b=1, p_switch=0.4)
    agreements = 0
    audits = 20
    for a in range(audits):
        hist = history_for("svrg", params, n=4, dim=3, seed=a, problem_seed=2)
        exact_mean, _ = enumerate_step_mean(hist)
        rep = check_unbiased(hist, trials=4000, seed=100 + a)
        se = max(rep.std_error, 1e-300)
        # MC mean error vs exact mean error (zero for unbiased kinds)
        if np.linalg.norm(rep.sample_mean) <= 4.0 * se:
            agreements += 1
    assert agreements >= int(0.95 * audits)


@pytest.mark.parametrize("kind,params", [
    ("sgd", EstimatorParams(b=3)),
    ("svrg", EstimatorParams(b=3, p_switch=0.4)),
    ("saga", EstimatorParams(b=3)),
])
def test_unbiased_mc_smoke(kind, params):
    hist = history_for(kind, params)
    rep = check_unbiased(hist, trials=20_000, seed=7)
    assert rep.passed, rep.to_line()


@pytest.mark.parametrize("kind,params", [
    ("sarah", EstimatorParams(b=3, p_switch=0.4)),
    ("hsgd", EstimatorParams(b=3, omega=0.5)),
    ("hsvrg", EstimatorParams(b=3, p_switch=0.4, omega=0.5)),
])
def test_biased_mc_smoke(kind, params):
    hist = history_for(kind, params)
    rep = check_bias_recursion(hist, trials=20_000, seed=8)
    assert rep.passed, rep.to_line()


@pytest.mark.parametrize("kind,params", [
    ("sarah", EstimatorParams(b=4, p_switch=0.4)),
    ("hsgd", EstimatorParams(b=4, omega=0.5)),
    ("hsvrg", EstimatorParams(b=4, p_switch=0.4, omega=0.5)),
])
def test_bias_recursion_rejects_a_wrong_previous_error(kind, params):
    """Negative control at the default 4-sigma threshold: adding 0.25 to
    every coordinate of e_{k-1} moves the target (1 - tau) e_{k-1} away
    from the realized mean error by 14-43 standard errors at 2000 trials
    (sarah 43.2, hsgd 14.5, hsvrg 28.5), and the check must say so; the
    unperturbed history passes on the same draws."""
    hist = history_for(kind, params)
    assert check_bias_recursion(hist, trials=2000, seed=5).passed
    wrong = dataclasses.replace(hist, e_prev=hist.e_prev + 0.25)
    rep = check_bias_recursion(wrong, trials=2000, seed=5)
    assert not rep.passed
    assert 10.0 < rep.margin_sigmas < 100.0, rep.to_line()


def test_variance_recursion_rejects_a_lowered_slack():
    """Negative control at the default 4-sigma threshold.  sgd is the kind
    whose bound the realized quantities can move past the realized mean:
    its kappa = 1 drops Delta_{k-1}, and its slack delta_k = sigma_k^2 / b_k
    is most of the bound (7.18 of 8.80 here), where every other kind's
    Theta terms alone exceed its mean 2.5- to 410-fold on this toy
    (histories 0-2, experiment defaults and b = 3).  At 2000 trials the
    mean of ||e_k||^2 is 7.06 with a standard error of 0.111, so the check
    passes at -15.7 sigma; halving delta_k lowers the bound to 5.21, 16.6
    standard errors below the mean, on the same draws."""
    hist = history_for("sgd", default_params("sgd", n=10,
                                             profile="experiment"))
    assert check_variance_recursion(hist, trials=2000, seed=5).passed
    lowered = dataclasses.replace(hist, delta_k=hist.delta_k / 2)
    rep = check_variance_recursion(lowered, trials=2000, seed=5)
    assert not rep.passed
    assert 10.0 < rep.margin_sigmas < 100.0, rep.to_line()


def test_std_error_is_the_standard_error_of_the_sample_mean():
    """A vector check's std_error is sqrt(sum_j var_j / count) over the
    coordinates j of the trial errors, and the variance check's is
    std(ddof=1) / sqrt(count) of the squared error norms, both with the
    unbiased (count - 1) variance, which differs from the count one by
    1% at 50 trials."""
    trials, seed = 50, 3
    hist = history_for("svrg", EstimatorParams(b=2, p_switch=0.4))
    err = np.concatenate(list(_mc_error_chunks(hist, trials, seed)))
    assert err.shape == (trials, hist.problem.dim)
    rep = check_unbiased(hist, trials=trials, seed=seed)
    var = np.var(err, axis=0, ddof=1)
    assert rep.std_error == pytest.approx(np.sqrt(var.sum() / trials),
                                          rel=1e-12)
    sq = np.einsum("ij,ij->i", err, err)
    rep = check_variance_recursion(hist, trials=trials, seed=seed)
    assert rep.std_error == pytest.approx(
        np.std(sq, ddof=1) / np.sqrt(trials), rel=1e-12)


@pytest.mark.parametrize("trials", [1, 0, -5])
def test_monte_carlo_checks_need_two_trials(trials):
    svrg = history_for("svrg", EstimatorParams(b=1, p_switch=0.3), n=5)
    sarah = history_for("sarah", EstimatorParams(b=1, p_switch=0.5), n=3)
    for check, hist in ((check_unbiased, svrg),
                        (check_bias_recursion, sarah),
                        (check_variance_recursion, svrg),
                        (check_variance_recursion, sarah)):
        with pytest.raises(ValueError, match="trials"):
            check(hist, trials=trials, seed=0)
    # enumeration sums every outcome and ignores trials
    assert check_unbiased(svrg, trials=trials, mode="enumerate").passed
    assert check_bias_recursion(sarah, trials=trials,
                                mode="enumerate").passed


def test_variance_recursion_full_batch_both_sides_zero():
    hist = history_for("full", EstimatorParams(), n=4)
    rep = check_variance_recursion(hist, trials=100, seed=0)
    assert rep.passed
    assert rep.sample_mean[0] == 0.0
    assert rep.target[0] == 0.0


def test_variance_recursion_sgd_bound_structure():
    hist = history_for("sgd", EstimatorParams(b=4))
    rep = check_variance_recursion(hist, trials=20_000, seed=1)
    assert rep.passed, rep.to_line()
    # RHS includes the realized sigma_k^2 / b_k slack, so it dominates the
    # Monte-Carlo mean by construction
    assert rep.target[0] >= hist.delta_k


def test_report_line_format():
    rep = McReport(name="unbiased/sgd", trials=10,
                   sample_mean=np.array([0.0, 0.0]), std_error=0.5,
                   target=np.array([0.0, 0.0]), margin_sigmas=0.0,
                   passed=True)
    line = rep.to_line()
    parts = [p.strip() for p in line.split(",")]
    assert parts[0] == "unbiased/sgd"
    assert parts[1] == "10"
    assert parts[-1] == "pass"
    assert len(parts) == 7


def test_every_kind_passes_defining_check_at_default_params():
    """Each estimator kind passes its defining certification on the
    standard 10-component toy with stock experiment parameters."""
    from vrfrbs.estimators import BIASED_KINDS, KINDS, default_params

    problem = linear_toy(n=10, dim=4, seed=1)
    for kind in KINDS:
        params = default_params(kind, n=10, profile="experiment")
        hist = build_history(kind, params, problem, seed=3)
        if kind in BIASED_KINDS:
            rep = check_bias_recursion(hist, trials=30_000, seed=9)
        else:
            rep = check_unbiased(hist, trials=30_000, seed=9)
        assert rep.passed, rep.to_line()
        var_rep = check_variance_recursion(hist, trials=30_000, seed=10)
        assert var_rep.passed, var_rep.to_line()


BATCHED_CASES = [(kind, default_params(kind, n=10, profile="experiment"))
                 for kind in KINDS] + [
    ("hsgd", EstimatorParams(b=3, omega=0.5, share_batches=False)),
    ("hsvrg", EstimatorParams(b=3, p_switch=0.4, omega=0.5,
                              share_batches=False)),
    ("svrg", EstimatorParams(b=3, p_switch=0.4, mega_batch=5)),
    ("sarah", EstimatorParams(b=3, p_switch=0.4, mega_batch=5)),
    ("sgd", EstimatorParams(b_schedule=lambda k: k + 1)),
]


@pytest.mark.parametrize("kind,params", BATCHED_CASES,
                         ids=[f"{k}-{i}" for i, (k, _) in
                              enumerate(BATCHED_CASES)])
def test_batched_step_matches_scalar_step(kind, params):
    """The trial-batched step equals the one-step path bit for bit, trial
    by trial, on a fresh copy of the frozen state with that trial's draws
    (coins `coin[t]`, batch-major samples `[:, t]`)."""
    hist = history_for(kind, params)
    points = (hist.x_k, hist.x_km1, hist.x_km2)
    trials = 200
    state = _next_step(hist.state, np.random.default_rng(5))
    draws = _make_draws(state, *points, trials=trials)
    values, _ = _apply_step(state, *points, draws, trials=trials)
    assert values.shape == (trials, hist.problem.dim)
    if "coin" in draws:
        assert 0 < draws["coin"].sum() < trials  # both branches exercised
    for t in range(trials):
        one = {key: bool(d[t]) if key == "coin" else d[:, t]
               for key, d in draws.items()}
        value, _ = _apply_step(_next_step(hist.state), *points, one)
        np.testing.assert_array_equal(values[t], value, err_msg=f"{kind} {t}")


@pytest.mark.parametrize("kind", ["svrg", "sarah", "hsvrg"])
def test_batched_step_matches_scalar_step_when_every_coin_comes_up(kind):
    """At p_switch = 1 every trial takes the coin branch: the batched step
    still equals the one-step path bit for bit, trial by trial."""
    params = dataclasses.replace(
        default_params(kind, n=10, profile="experiment"), p_switch=1.0)
    hist = history_for(kind, params)
    points = (hist.x_k, hist.x_km1, hist.x_km2)
    trials = 200
    state = _next_step(hist.state, np.random.default_rng(5))
    draws = _make_draws(state, *points, trials=trials)
    values, _ = _apply_step(state, *points, draws, trials=trials)
    assert draws["coin"].all()
    assert values.shape == (trials, hist.problem.dim)
    for t in range(trials):
        one = {key: bool(d[t]) if key == "coin" else d[:, t]
               for key, d in draws.items()}
        value, _ = _apply_step(_next_step(hist.state), *points, one)
        np.testing.assert_array_equal(values[t], value, err_msg=f"{kind} {t}")


@pytest.mark.parametrize("coins", ["all", "none", "mixed"])
@pytest.mark.parametrize("on_shape,other_shape", [
    ("dim", "dim"), ("dim", "trials"), ("trials", "dim"),
    ("trials", "trials")])
def test_select_equals_where(coins, on_shape, other_shape):
    """`_select` gives np.where's bits for every operand shape pair a
    batched step passes it: a value shared by all trials (dim,) or one per
    trial (T, dim)."""
    trials, dim = 37, 4
    rng = np.random.default_rng(11)
    coin = {"all": np.ones(trials, dtype=bool),
            "none": np.zeros(trials, dtype=bool),
            "mixed": rng.random(trials) < 0.4}[coins]
    shapes = {"dim": (dim,), "trials": (trials, dim)}
    on_coin = rng.standard_normal(shapes[on_shape])
    otherwise = rng.standard_normal(shapes[other_shape])
    got = _select(coin, on_coin, otherwise)
    assert got.shape == (trials, dim) and got.dtype == np.float64
    np.testing.assert_array_equal(
        got, np.where(coin[:, None], on_coin, otherwise))
    assert _select(coin, None, otherwise) is otherwise
    assert _select(coin, on_coin, None) is on_coin


@pytest.mark.parametrize("squared", [False, True])
def test_chunked_moments_match_one_shot(squared):
    hist = history_for("svrg", EstimatorParams(b=3, p_switch=0.4))
    trials = 2 * MC_CHUNK + 123
    errs = np.concatenate(list(_mc_error_chunks(hist, trials, seed=4)))
    assert errs.shape == (trials, hist.problem.dim)
    samples = np.einsum("ij,ij->i", errs, errs) if squared else errs
    mom = _mc_moments(hist, trials, seed=4, squared=squared)
    assert mom.count == trials
    scale = np.abs(samples).max()
    np.testing.assert_allclose(mom.mean, samples.mean(axis=0), rtol=1e-12,
                               atol=1e-12 * scale)
    np.testing.assert_allclose(mom.m2 / (trials - 1),
                               samples.var(axis=0, ddof=1), rtol=1e-12)


# The einsum contract: _Moments takes a (T, dim) chunk's column sums with
# einsum because it adds the rows in the order add.reduce(axis=0) does, in
# one inner loop.  A numpy whose einsum sums in another order fails here.
@pytest.mark.parametrize("trials", [2, 1000, MC_CHUNK])
def test_moments_match_add_reduce_bit_for_bit(trials):
    """Mean and M2 of two (T, dim) chunks, dim 2-64, equal the add.reduce
    formulation of the pairwise merge bit for bit."""
    rng = np.random.default_rng(trials)
    for dim in range(2, 65):
        mom = _Moments()
        count, mean, m2 = 0, 0.0, 0.0
        for _ in range(2):
            chunk = rng.standard_normal((trials, dim)) \
                * 10.0 ** rng.uniform(-3, 3) + rng.standard_normal(dim)
            mom.add(chunk)
            size = len(chunk)
            chunk_mean = np.add.reduce(chunk, axis=0) / size
            chunk_m2 = np.add.reduce((chunk - chunk_mean) ** 2, axis=0)
            total = count + size
            delta = chunk_mean - mean
            mean = mean + delta * (size / total)
            m2 = m2 + chunk_m2 + delta * delta * (count * size / total)
            count = total
        assert mom.count == count
        assert np.array_equal(mom.mean, mean), dim
        assert np.array_equal(mom.m2, m2), dim


# every kind at the experiment defaults, plus the mega-batch and unshared
# variants, on the n = 10 toy that `history_for` builds
CLONE_CASES = [(kind, default_params(kind, n=10)) for kind in KINDS] + [
    (kind, dataclasses.replace(default_params(kind, n=10), mega_batch=3))
    for kind in ("svrg", "sarah", "hsgd")] + [
    (kind, dataclasses.replace(default_params(kind, n=10),
                               share_batches=False))
    for kind in ("hsgd", "hsvrg")]


def _frozen_fields(state):
    """Copies of every array field of `state` and of the counters a step
    moves."""
    arrays = {f.name: getattr(state, f.name).copy()
              for f in dataclasses.fields(state)
              if isinstance(getattr(state, f.name), np.ndarray)}
    tag, value = state.last_full or (None, None)
    return arrays, (state.k, state.snapshot_tag, tag,
                    None if value is None else value.copy())


@pytest.mark.parametrize("kind,params", CLONE_CASES,
                         ids=[f"{k}-{i}" for i, (k, _) in
                              enumerate(CLONE_CASES)])
def test_stepping_a_clone_leaves_the_frozen_state_alone(kind, params):
    """The enumeration's one-step probes and a trial-batched Monte-Carlo
    pass step clones of the frozen state; the state itself stays bit for
    bit as it was."""
    hist = history_for(kind, params)
    points = (hist.x_k, hist.x_km1, hist.x_km2)
    arrays, counters = _frozen_fields(hist.state)
    assert "x0" in arrays and "s_tilde" in arrays
    for seed in range(3):
        probe = _next_step(hist.state, np.random.default_rng(seed))
        _apply_step(probe, *points, _make_draws(probe, *points))
    for _ in _mc_error_chunks(hist, 500, seed=1):
        pass
    after, after_counters = _frozen_fields(hist.state)
    assert after.keys() == arrays.keys()
    for name, before in arrays.items():
        assert np.array_equal(after[name], before), name
    assert after_counters[:3] == counters[:3]
    if counters[3] is not None:
        assert np.array_equal(after_counters[3], counters[3])
