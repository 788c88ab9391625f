import dataclasses
import inspect
import math
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vrfrbs.core import InfeasibleParametersError, UnsupportedConfigError
from vrfrbs.estimators import (KINDS, EstimatorParams, check_params,
                               default_params, sizing_rule_sides, theory_card)
from vrfrbs.solver import SolverConfig, theory_stepsize, validate_rates


def test_stepsize_unbiased_value():
    eta = theory_stepsize(1.0, 0.0, "unbiased")
    assert eta == pytest.approx(0.99 / (3.0 * math.sqrt(2.0)))
    assert eta == pytest.approx(0.23335, abs=1e-5)


def test_stepsize_biased_value():
    eta = theory_stepsize(1.0, 0.0, "biased")
    assert eta == pytest.approx(0.99 / math.sqrt(134.0))
    assert eta == pytest.approx(0.08552, abs=1e-5)


def test_stepsize_infeasible():
    # 8 rho = 0.4 exceeds 1/(3 sqrt(2)) ~ 0.2357
    with pytest.raises(InfeasibleParametersError):
        theory_stepsize(1.0, 0.05, "unbiased")


def test_stepsize_clamps_to_lower_bound():
    # feasible but 0.99 * upper < 8 rho: returned eta sits at the floor
    rho = 0.0293
    assert 0.99 / (3 * math.sqrt(2.0)) < 8 * rho < 1 / (3 * math.sqrt(2.0))
    eta = theory_stepsize(1.0, rho, "unbiased")
    assert eta == 8 * rho


# --- theory cards ----------------------------------------------------------

def test_card_full_batch_trivial():
    card = theory_card("full", EstimatorParams(), L=2.0)
    assert (card.tau, card.kappa, card.theta, card.theta_hat) == (1, 1, 0, 0)
    assert not card.biased
    assert all(c.passed for c in validate_rates(card, 2.0, 0.1))


def test_card_sgd_constants():
    card = theory_card("sgd", EstimatorParams(b=4, sigma2=2.0), L=3.0)
    assert card.kappa == 1.0
    assert card.theta == pytest.approx(4.5)
    assert card.theta_hat == pytest.approx(4.5)
    assert card.delta_k(0) == pytest.approx(0.5)


def test_card_svrg_exact_boundary():
    # b = 40 / p^2 puts kappa L^2 exactly at Theta + Theta_hat
    L, p = 1.7, 0.25
    b = 40.0 / p ** 2
    card = theory_card("svrg", EstimatorParams(b=b, p_switch=p), L=L)
    assert card.kappa == pytest.approx(p / 2)
    assert card.theta == pytest.approx(16 * L * L / (b * p))
    assert card.theta_hat == pytest.approx(4 * L * L / (b * p))
    assert card.kappa * L * L == pytest.approx(card.theta + card.theta_hat,
                                               rel=1e-12)


def test_card_saga_constants():
    L, b, n = 2.0, 5, 20
    card = theory_card("saga", EstimatorParams(b=b), L=L, n=n)
    assert card.kappa == pytest.approx(b / (2 * n))
    assert card.theta == pytest.approx(16 * L * L * n / b ** 2)
    assert card.theta_hat == pytest.approx(4 * L * L * n / b ** 2)


def test_saga_card_and_sizing_rule_need_n():
    with pytest.raises(ValueError, match="saga theory card needs n"):
        theory_card("saga", EstimatorParams(b=4), L=1.0)
    with pytest.raises(ValueError, match="saga sizing rule needs n"):
        sizing_rule_sides("saga", EstimatorParams(b=4), 1.0)


def test_card_sarah_constants():
    L, b, p = 1.0, 8, 0.3
    card = theory_card("sarah", EstimatorParams(b=b, p_switch=p), L=L)
    assert card.biased
    assert card.tau == pytest.approx(p)
    assert card.kappa == pytest.approx(p)
    assert card.theta == pytest.approx(8 * (1 - p) * L * L / b)
    assert card.theta_hat == pytest.approx(2 * (1 - p) * L * L / b)


def test_card_hsgd_omega_one_shared():
    card = theory_card("hsgd", EstimatorParams(b=4, omega=1.0, sigma2=1.0),
                       L=1.0)
    assert card.tau == 1.0
    assert card.kappa == 1.0
    assert card.theta == 0.0
    assert card.theta_hat == 0.0
    # shared batches double the blended-term slack: C omega^2 sigma_k^2
    assert card.delta_k(0) == pytest.approx(2.0 * 10.0 * 1.0 / 4)


def test_card_hsvrg_constants():
    L, b, p, w = 1.0, 10, 0.4, 0.2
    card = theory_card("hsvrg",
                       EstimatorParams(b=b, p_switch=p, omega=w), L=L)
    inner = 2.0 * (1 - w) ** 2 / b + 8.0 * w * w / (b * p * p)
    assert card.theta == pytest.approx(8 * L * L * inner)
    assert card.theta_hat == pytest.approx(2 * L * L * inner)
    assert card.kappa == pytest.approx(min(w * (2 - w), p / 4))
    assert card.tau == pytest.approx(w)


@pytest.mark.parametrize("p", [8.024647735177879e-266, 5e-324])
def test_card_hsvrg_underflowing_p_squared_is_an_infinite_bound(p):
    """b p^2 rounds to 0 for p below ~1e-162: the card's Theta is then
    infinite and the kappa condition fails, where the division raised
    ZeroDivisionError and `vrfrbs run` escaped with a traceback."""
    card = theory_card("hsvrg", EstimatorParams(b=1, p_switch=p, omega=0.5),
                       L=1.0)
    assert card.theta == math.inf and card.theta_hat == math.inf
    cond = [c for c in validate_rates(card, 1.0, 0.05)
            if "kappa" in c.name][0]
    assert not cond.passed


@pytest.mark.parametrize("p", [8.024647735177879e-266, 5e-324])
def test_sizing_rule_hsvrg_underflowing_p_squared_is_an_infinite_side(p):
    """The design rule's right side has the same b p^2 divisor as the card:
    it is infinite there (the rule fails) rather than a ZeroDivisionError."""
    lhs, rhs = sizing_rule_sides(
        "hsvrg", EstimatorParams(b=1, p_switch=p, omega=0.5), L=1.0)
    assert rhs == math.inf and lhs < rhs


# --- validators / boundary identities --------------------------------------

def test_validate_saga_at_ceiled_theory_batch():
    n, L = 64, 1.3
    b = math.ceil(40.0 ** (1 / 3) * n ** (2 / 3))
    card = theory_card("saga", EstimatorParams(b=b), L=L, n=n)
    checks = validate_rates(card, L, eta=0.1 / L)
    cond = [c for c in checks if "kappa" in c.name][0]
    assert cond.passed


def test_saga_boundary_identity_exact():
    # b = 40^{1/3} n^{2/3} makes kappa L^2 equal Theta + Theta_hat
    n, L = 1000, 0.7
    b = 40.0 ** (1 / 3) * n ** (2 / 3)
    card = theory_card("saga", EstimatorParams(b=b), L=L, n=n)
    assert card.kappa * L * L == pytest.approx(card.theta + card.theta_hat,
                                               rel=1e-12)


def test_sarah_sizing_rule_boundary():
    # p^3 b = 110 puts the biased design rule at equality
    L, p = 2.5, 0.2
    b = 110.0 / p ** 3
    lhs, rhs = sizing_rule_sides("sarah", EstimatorParams(b=b, p_switch=p), L)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_svrg_sizing_rule_boundary():
    L, p = 1.1, 0.3
    b = 40.0 / p ** 2
    lhs, rhs = sizing_rule_sides("svrg", EstimatorParams(b=b, p_switch=p), L)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_validate_biased_condition_uses_lemma_constants():
    # at p^3 b = 110 the lemma-statement constants (kappa = p, the (1-p)
    # factors kept) satisfy the condition with strict margin
    L, p = 1.0, 0.2
    b = 110.0 / p ** 3
    card = theory_card("sarah", EstimatorParams(b=b, p_switch=p), L=L)
    checks = validate_rates(card, L, eta=0.05)
    cond = [c for c in checks if "tau" in c.name][0]
    assert cond.lhs > cond.rhs


# --- default parameters -----------------------------------------------------

def test_default_svrg_experiment_values():
    params = default_params("svrg", n=20000, profile="experiment")
    assert params.b == 368
    assert params.p_switch == pytest.approx(20000 ** (-1 / 3))
    assert params.p_switch == pytest.approx(0.03684, abs=1e-5)


def test_default_sarah_experiment_values():
    params = default_params("sarah", n=10000, profile="experiment")
    assert params.b == 250
    assert params.p_switch == pytest.approx(0.1)


def test_default_saga_theory_clamped():
    params = default_params("saga", n=8, profile="theory")
    # ceil(40^{1/3} * 8^{2/3}) = ceil(13.68) = 14, clamped to n = 8
    assert params.b == 8


def test_default_saga_theory_unclamped():
    params = default_params("saga", n=10 ** 6, profile="theory")
    assert params.b == math.ceil(40.0 ** (1 / 3) * 1e6 ** (2 / 3))


def test_default_sgd_experiment_schedule():
    params = default_params("sgd", n=5000, profile="experiment")
    sched = params.b_schedule
    assert sched(0) == max(1, math.floor(0.01 * 5000))
    assert sched(10 ** 6) == 5000


def test_default_theory_satisfies_conditions_when_unclamped():
    # n large enough that no batch clamps: b = 40 n^{2/3} <= n needs
    # n >= 40^3, and b = 110 n^{3/4} <= n needs n >= 110^4
    L = 1.0
    for kind, n in (("svrg", 10 ** 6), ("saga", 10 ** 6), ("sarah", 10 ** 9)):
        params = default_params(kind, n=n, profile="theory")
        assert params.b < n, kind
        card = theory_card(kind, params, L=L, n=n)
        eta = 0.9 * theory_stepsize(
            L, estimator_class="biased" if card.biased else "unbiased")
        assert all(c.passed for c in validate_rates(card, L, eta)), kind


def test_default_expectation_setting_needs_epsilon():
    with pytest.raises(ValueError, match="^epsilon = None"):
        default_params("svrg", profile="theory")
    params = default_params("svrg", epsilon=0.1, profile="theory")
    assert params.mega_batch == 100
    assert params.p_switch == pytest.approx(0.1 ** (2 / 3))


@pytest.mark.parametrize("kind", KINDS)
def test_experiment_defaults_pass_check_params(kind):
    """Even a sum of one component gets a batch of at least 1."""
    for n in range(1, 9):
        check_params(kind, default_params(kind, n), n)


@pytest.mark.parametrize("setting, names", [
    (SolverConfig, ["eta", "max_iters", "record_every", "record_calls",
                    "stop_tol", "max_calls"]),
    (EstimatorParams, ["b", "b_schedule", "p_switch", "omega", "mega_batch",
                       "share_batches", "sigma2"]),
    (theory_stepsize, ["L", "rho", "estimator_class"]),
    (default_params, ["kind", "n", "epsilon", "profile"]),
], ids=["SolverConfig", "EstimatorParams", "theory_stepsize",
        "default_params"])
def test_public_settings_are_pinned(setting, names):
    """Every settable value listed here has a reader in the program; a
    field or argument that only tests set is a knob nothing uses.  Adding
    one updates this pin."""
    if dataclasses.is_dataclass(setting):
        got = [f.name for f in dataclasses.fields(setting)]
    else:
        got = list(inspect.signature(setting).parameters)
    assert got == names


def test_default_saga_theory_on_an_oracle_is_unsupported():
    """saga keeps a table of n rows, so no oracle-setting size exists; the
    refusal is check_params's."""
    with pytest.raises(UnsupportedConfigError,
                       match="saga needs a finite-sum operator"):
        default_params("saga", epsilon=0.1, profile="theory")


def _contract_calls():
    """Calls that must fail with check_params's error: theory_card and
    sizing_rule_sides for each kind missing a rate it reads or given b = 0
    (the rate check check_params shares with them), the theory profile
    of a kind that needs a finite sum on an oracle, and check_params given
    b = None."""
    for fn in (theory_card, sizing_rule_sides):
        for kind, name in (("svrg", "p_switch"), ("sarah", "p_switch"),
                           ("hsvrg", "p_switch"), ("hsgd", "omega"),
                           ("hsvrg", "omega")):
            other = "omega" if name == "p_switch" else "p_switch"
            params = EstimatorParams(b=4, **{other: 0.5})
            yield pytest.param(
                lambda fn=fn, kind=kind, params=params: fn(kind, params, 1.0),
                ValueError, f"{name} = None must be in (0, 1] for {kind}",
                id=f"{fn.__name__}-{kind}-{name}")
        for kind in ("svrg", "saga", "sarah", "hsgd", "hsvrg"):
            params = EstimatorParams(b=0, p_switch=0.5, omega=0.5)
            yield pytest.param(
                lambda fn=fn, kind=kind, params=params:
                    fn(kind, params, 1.0, n=10),
                ValueError, f"b = 0 must be > 0 for {kind}",
                id=f"{fn.__name__}-{kind}-b0")
    for kind in ("full", "saga"):
        yield pytest.param(
            lambda kind=kind: default_params(kind, profile="theory",
                                             epsilon=0.1),
            UnsupportedConfigError, f"{kind} needs a finite-sum operator",
            id=f"default_params-{kind}")
    yield pytest.param(
        lambda: check_params("svrg", EstimatorParams(b=None, p_switch=0.5),
                             10),
        ValueError, "b = None must be >= 1", id="check_params-b-None")


@pytest.mark.parametrize("call, error, message", list(_contract_calls()))
def test_contract_errors_are_check_params_errors(call, error, message):
    with pytest.raises(error, match=re.escape(message)) as exc:
        call()
    assert type(exc.value) is error


@pytest.mark.parametrize("call, name", [
    pytest.param(lambda eps=eps: default_params(
        "svrg", profile="theory", epsilon=eps),
        "epsilon", id=f"svrg-{eps}")
    for eps in (0.0, 1e-300, 1e-160, -1.0)] + [
    pytest.param(lambda: default_params("sarah", profile="theory",
                                        epsilon=1e-100),
                 "epsilon", id="sarah-1e-100"),
    pytest.param(lambda: theory_stepsize(float("nan")), "L",
                 id="stepsize-nan"),
    pytest.param(lambda: theory_card("saga", EstimatorParams(b=4), 1.0, n=0),
                 "n", id="saga-card-n0"),
])
def test_theory_escapes_are_value_errors_naming_the_argument(call, name):
    """Each of these used to escape with ZeroDivisionError, OverflowError,
    TypeError or a step size of 0."""
    with pytest.raises(ValueError, match=rf"^{name} = "):
        call()


# Every argument is drawn from values that make sense and from the edges:
# None, zeros, a subnormal, huge floats and an int beyond float range,
# negatives, NaN and infinity.
_EDGES = st.sampled_from([None, 0, 0.0, 5e-324, 1e-310, 1e300,
                          sys.float_info.max, 10 ** 400, -1, -2.5,
                          math.nan, math.inf])


def _or_edge(good):
    return st.one_of(good, _EDGES)


_RATE = _or_edge(st.floats(1e-3, 1.0))
_POSITIVE = _or_edge(st.floats(1e-3, 1e3))


@settings(max_examples=250, deadline=None)
@given(kind=st.sampled_from(KINDS),
       params=st.builds(
           EstimatorParams,
           b=_or_edge(st.one_of(st.integers(1, 10 ** 6), st.floats(1.0, 1e6))),
           p_switch=_RATE, omega=_RATE,
           mega_batch=_or_edge(st.one_of(st.just("exact"),
                                         st.integers(1, 10 ** 6))),
           share_batches=st.booleans(),
           sigma2=_or_edge(st.floats(0.0, 10.0))),
       L=_POSITIVE, n=_or_edge(st.integers(1, 10 ** 7)), eta=_POSITIVE,
       rho=_or_edge(st.floats(0.0, 1e-2)), epsilon=_RATE,
       profile=st.sampled_from(["experiment", "theory"]),
       biased=st.booleans())
def test_theory_functions_return_or_raise_value_errors(
        kind, params, L, n, eta, rho, epsilon, profile, biased):
    """theory_card, sizing_rule_sides, validate_rates, default_params and
    theory_stepsize return or raise a ValueError subclass whatever they are
    given; none escapes with TypeError, ZeroDivisionError or
    OverflowError, and a step size they return is a finite number > 0."""
    def attempt(fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ValueError as exc:
            assert str(exc)
            return None

    card = attempt(theory_card, kind, params, L, n=n)
    attempt(sizing_rule_sides, kind, params, L, n=n)
    if card is not None:
        attempt(validate_rates, card, L, eta)
    attempt(default_params, kind, n=n, epsilon=epsilon, profile=profile)
    step = attempt(theory_stepsize, L, rho,
                   "biased" if biased else "unbiased")
    assert step is None or (math.isfinite(step) and step > 0)
