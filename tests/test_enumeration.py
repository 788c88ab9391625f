"""Exact enumeration of one step's outcomes: pinned means, mega-batch
identities, and one enumerated outcome per combination of draws."""

import numpy as np
import pytest

from vrfrbs.estimators import EstimatorParams, _make_draws, make_estimator
from vrfrbs.problems import linear_toy
from vrfrbs.verification import (ENUM_TOL, FrozenHistory, _check_mean,
                                 _exact_direction_value, _next_step,
                                 _step_outcomes, build_history,
                                 check_bias_recursion, check_unbiased,
                                 enumerate_step_mean)

from test_oracle_setting import gaussian_affine_oracle


def history_for(kind, params, n, seed=0):
    return build_history(kind, params, linear_toy(n=n, dim=3, seed=1),
                         seed=seed)


# (id, kind, params, n, history seed)
PINNED_CASES = [
    ("full", "full", EstimatorParams(), 3, 0),
    ("sgd-b1", "sgd", EstimatorParams(b=1), 3, 0),
    ("sgd-b2", "sgd", EstimatorParams(b=2), 3, 0),
    ("sgd-schedule", "sgd", EstimatorParams(b_schedule=lambda k: min(k, 2)),
     4, 0),
    ("svrg", "svrg", EstimatorParams(b=1, p_switch=0.3), 4, 0),
    ("svrg-p1", "svrg", EstimatorParams(b=2, p_switch=1.0), 3, 0),
    ("saga", "saga", EstimatorParams(b=2), 3, 0),
    ("sarah", "sarah", EstimatorParams(b=1, p_switch=0.5), 3, 1),
    ("sarah-p1", "sarah", EstimatorParams(b=2, p_switch=1.0), 3, 0),
    ("hsgd", "hsgd", EstimatorParams(b=2, omega=0.3), 3, 0),
    ("hsgd-unshared", "hsgd",
     EstimatorParams(b=1, omega=0.3, share_batches=False), 3, 0),
    ("hsvrg", "hsvrg", EstimatorParams(b=1, p_switch=0.5, omega=0.3), 3, 0),
    ("hsvrg-unshared", "hsvrg",
     EstimatorParams(b=1, p_switch=0.4, omega=0.3, share_batches=False),
     4, 2),
]

# id -> (outcome count, enumerated mean of S_tilde_k), recorded before the
# enumeration was driven by the estimators' own draw plan
ENUMERATION_PINS = {
    'full': (1, [2.416542534963015, -0.7908865287525357, 2.220102904866274]),
    'sgd-b1': (3, [2.4165425349630145, -0.790886528752536, 2.2201029048662737]),
    'sgd-b2': (9, [2.416542534963014, -0.790886528752536, 2.2201029048662737]),
    'sgd-schedule': (16, [3.5064758194030534, -0.9279978873992907, 1.9426538017321484]),
    'svrg': (8, [3.5064758194030534, -0.9279978873992907, 1.9426538017321482]),
    'svrg-p1': (9, [2.4165425349630145, -0.7908865287525358, 2.2201029048662733]),
    'saga': (9, [2.416542534963014, -0.7908865287525357, 2.2201029048662737]),
    'sarah': (4, [-2.9514216745963058, -0.0582098829434102, 0.6066574693189656]),
    'sarah-p1': (1, [2.416542534963015, -0.7908865287525357, 2.220102904866274]),
    'hsgd': (9, [2.3086184585160687, -0.9794938480951753, 2.351949867386469]),
    'hsgd-unshared': (9, [2.5011206687604832, -1.1036487754770037, 2.1701572417544237]),
    'hsvrg': (6, [2.748160790222193, -1.0547236862785745, 2.0229820498158024]),
    'hsvrg-unshared': (32, [1.5841534931018055, 1.571515502459444, -2.8311373730354847]),
}


@pytest.mark.parametrize("case", PINNED_CASES, ids=[c[0] for c in PINNED_CASES])
def test_enumeration_means_pinned(case):
    name, kind, params, n, seed = case
    mean, outcomes = enumerate_step_mean(history_for(kind, params, n, seed))
    pin_count, pin_mean = ENUMERATION_PINS[name]
    assert outcomes == pin_count
    np.testing.assert_allclose(mean, pin_mean, rtol=1e-12, atol=0.0)


MEGA = dict(b=1, mega_batch=2)


def _mean_error(hist):
    """Enumerated E[e_k | frozen past], the outcome count, and the
    enumeration tolerance of `check_unbiased`."""
    mean, outcomes = enumerate_step_mean(hist)
    s_true = _exact_direction_value(hist.problem, hist.x_k, hist.x_km1)
    tol = ENUM_TOL * (1.0 + float(np.linalg.norm(s_true)))
    return mean - s_true, outcomes, tol


def _anchor_gap(hist):
    """a_w - G(w): the frozen anchor value's error at the snapshot w."""
    st = hist.state
    return st.anchor_value - hist.problem.forward.full(st.snapshot)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mega_batch_svrg_mean_error_is_the_stale_anchor_gap(seed):
    """On a frozen past the mega-batch anchor a_w is itself a sample, so the
    step is not unbiased: E[e_k | F_k] = (1 - p)(a_w - G(w)), the target
    check_unbiased certifies.  Coin up: 4^2 mega samples x 4 batches; coin
    down: 4 batches."""
    p = 0.4
    hist = history_for("svrg", EstimatorParams(p_switch=p, **MEGA), 4, seed)
    err, outcomes, tol = _mean_error(hist)
    assert outcomes == 68
    target = (1.0 - p) * _anchor_gap(hist)
    assert np.linalg.norm(target) > 1e-6
    assert np.linalg.norm(err - target) <= tol
    assert check_unbiased(hist, mode="enumerate").passed


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("shared,count", [(True, 68), (False, 272)])
def test_mega_batch_hsvrg_mean_error_identity(shared, count, seed):
    """E[e_k | F_k] = (1 - omega) e_{k-1} + omega (1 - p)(a_w - G(w))."""
    p, omega = 0.4, 0.3
    params = EstimatorParams(p_switch=p, omega=omega, share_batches=shared,
                             **MEGA)
    hist = history_for("hsvrg", params, 4, seed)
    err, outcomes, tol = _mean_error(hist)
    assert outcomes == count
    target = (1.0 - omega) * hist.e_prev \
        + omega * (1.0 - p) * _anchor_gap(hist)
    assert np.linalg.norm(_anchor_gap(hist)) > 1e-6
    assert np.linalg.norm(err - target) <= tol


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind,params,count", [
    # coin up: 4^2 mega samples and no batch; coin down: 4 batches
    ("sarah", EstimatorParams(p_switch=0.4, **MEGA), 20),
    # the mega sample only sets the initial estimate
    ("hsgd", EstimatorParams(omega=0.3, **MEGA), 4),
])
def test_mega_batch_bias_recursion_is_exact(kind, params, count, seed):
    rep = check_bias_recursion(history_for(kind, params, 4, seed),
                               mode="enumerate")
    assert rep.passed, rep.to_line()
    assert rep.trials == count


def test_mega_batch_svrg_monte_carlo_agrees_with_enumeration():
    hist = history_for("svrg", EstimatorParams(p_switch=0.4, **MEGA), 4, 0)
    err, _, _ = _mean_error(hist)
    rep = check_unbiased(hist, trials=20_000, seed=3)
    assert np.linalg.norm(rep.sample_mean - err) <= 4.0 * rep.std_error


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind,params", [
    ("svrg", EstimatorParams(p_switch=0.4, **MEGA)),
    ("hsvrg", EstimatorParams(p_switch=0.4, omega=0.3, **MEGA)),
    ("hsvrg", EstimatorParams(p_switch=0.4, omega=0.3, share_batches=False,
                              **MEGA)),
], ids=["svrg", "hsvrg", "hsvrg-unshared"])
def test_mega_batch_monte_carlo_checks_target_the_anchor_error(kind, params,
                                                               seed):
    """The Monte-Carlo checks certify the identities above: with a target
    of 0 (svrg) or (1 - omega) e_{k-1} (hsvrg) these cases fail at 19.7 to
    82.9 standard errors.  For svrg that is a negative control on the same
    draws: the zero target an unbiased kind without a stale anchor would
    have fails at 47.5 (seed 1) to 82.9 (seed 2) standard errors."""
    check = check_unbiased if kind == "svrg" else check_bias_recursion
    hist = history_for(kind, params, 4, seed)
    rep = check(hist, trials=20_000, seed=3)
    assert rep.passed, rep.to_line()
    if kind == "svrg":
        zero = _check_mean(hist, "unbiased/svrg", np.zeros(hist.problem.dim),
                           20_000, 3, "mc")
        assert not zero.passed
        assert 10.0 < zero.margin_sigmas < 100.0, zero.to_line()


MEGA_CASES = [
    ("svrg-mega", "svrg", EstimatorParams(p_switch=0.4, **MEGA), 3, 0),
    ("sarah-mega", "sarah", EstimatorParams(p_switch=0.4, **MEGA), 3, 0),
    ("hsgd-mega", "hsgd", EstimatorParams(omega=0.3, **MEGA), 3, 0),
    ("hsvrg-mega", "hsvrg",
     EstimatorParams(p_switch=0.4, omega=0.3, **MEGA), 3, 0),
    ("hsvrg-mega-unshared", "hsvrg",
     EstimatorParams(p_switch=0.4, omega=0.3, share_batches=False, **MEGA),
     3, 0),
]


def _one_step_draws(hist, coin):
    """Draws of one step on the stream whose coin came out `coin`."""
    for seed in range(100):
        state = _next_step(hist.state, np.random.default_rng(seed))
        draws = _make_draws(state, hist.x_k, hist.x_km1, hist.x_km2)
        if draws.get("coin") is coin:
            return draws
    raise AssertionError(f"no stream gave coin {coin}")


@pytest.mark.parametrize("case", PINNED_CASES + MEGA_CASES,
                         ids=[c[0] for c in PINNED_CASES + MEGA_CASES])
def test_each_outcome_enumerated_once(case):
    """For each coin value the outcomes are the product of that branch's
    draws, each combination once, with the probability of the coin times
    1/n per sample, and the keys and shapes of a one-step draw."""
    _, kind, params, _, seed = case
    n = 3
    hist = history_for(kind, params, n, seed)
    outcomes = [(prob, draws) for prob, _, draws in _step_outcomes(hist)]
    seen = {tuple((key, value if key == "coin" else tuple(np.ravel(value)))
                  for key, value in sorted(draws.items()))
            for _, draws in outcomes}
    assert len(seen) == len(outcomes)
    by_coin = {}
    for prob, draws in outcomes:
        by_coin.setdefault(draws.get("coin"), []).append((prob, draws))
    for coin, group in by_coin.items():
        first = group[0][1]
        own = [key for key in first if key != "coin"
               and not (key == "batch_hat" and first[key] is first["batch"])]
        sizes = [n ** len(first[key]) for key in own]
        assert len(group) == int(np.prod(sizes))
        for key in own:
            assert len({tuple(d[key]) for _, d in group}) == n ** len(first[key])
        p_coin = {None: 1.0, True: params.p_switch,
                  False: 1.0 - (params.p_switch or 0.0)}[coin]
        one = _one_step_draws(hist, coin)
        for prob, draws in group:
            assert prob == pytest.approx(p_coin / np.prod(sizes), rel=1e-15)
            assert draws.keys() == one.keys()
            for key in own:
                assert draws[key].shape == one[key].shape


def test_enumeration_refuses_an_oracle():
    problem, _, _ = gaussian_affine_oracle()
    params = EstimatorParams(b=2, p_switch=0.5, mega_batch=4)
    state = make_estimator("svrg", params, problem, np.zeros(3), seed=0)
    x = np.ones(3)
    with pytest.raises(ValueError, match="finite-sum"):
        enumerate_step_mean(FrozenHistory(state=state, x_k=x, x_km1=x,
                                          x_km2=x))
