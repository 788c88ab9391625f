import numpy as np
import pytest

from vrfrbs.core import (InclusionProblem, SampledOperator,
                         ball_box_resolvent, fb_residual, identity_resolvent)
from vrfrbs.estimators import EstimatorParams, make_estimator
from vrfrbs.problems import (affine_problem_from_components, bilinear_problem,
                             linear_toy, strongly_monotone_affine)
from vrfrbs.solver import (DIVERGENCE_NORM, DivergenceError, SolverConfig,
                           run, theory_stepsize)

from helpers import frbs_reference


def scalar_identity_problem():
    return affine_problem_from_components(np.eye(1)[None], np.zeros((1, 1)))


def make_full(problem, x0, seed=0):
    return make_estimator("full", EstimatorParams(), problem,
                          np.asarray(x0, float), seed=seed)


def test_two_step_hand_recursion():
    # G = identity, eta = 0.1, x0 = 1: x1 = 0.9, x2 = 0.82
    prob = scalar_identity_problem()
    est = make_full(prob, [1.0])
    trace = run(prob, est, SolverConfig(eta=0.1, max_iters=2))
    assert trace.final_x == pytest.approx([0.82])
    assert trace.iterations_run == 2


def test_null_dynamics_zero_operator():
    prob = affine_problem_from_components(np.zeros((1, 1, 1)), np.zeros((1, 1)))
    est = make_full(prob, [0.5])
    trace = run(prob, est, SolverConfig(eta=0.1, max_iters=5))
    assert trace.final_x == pytest.approx([0.5])
    # zero residual at the start: relative residual reported as 0
    assert all(r.rel_residual == 0.0 for r in trace.records)


@pytest.mark.parametrize("builder,eta,iters", [
    (lambda: bilinear_problem(1), 0.2, 300),
    (lambda: linear_toy(n=5, dim=3, seed=8), 0.15, 200),
])
def test_full_batch_matches_reference_bitwise(builder, eta, iters):
    prob = builder()
    x0 = np.ones(prob.dim)
    ref = frbs_reference(prob, eta, x0, iters)
    est = make_full(prob, x0)
    trace = run(prob, est, SolverConfig(eta=eta, max_iters=iters,
                                        record_every=10 ** 9))
    assert np.array_equal(trace.final_x, ref[-1])


def test_feasibility_preserved_under_projection():
    base = linear_toy(n=4, dim=5, seed=3)
    res = ball_box_resolvent(0.7, [0.1, 0.1])
    prob = InclusionProblem(forward=base.forward, resolvent=res,
                            lipschitz=base.lipschitz)
    est = make_full(prob, 2.0 * np.ones(5))
    trace = run(prob, est, SolverConfig(eta=0.1, max_iters=50))
    x = trace.final_x
    assert np.linalg.norm(x[:3]) <= 0.7 + 1e-12
    assert np.all(np.abs(x[3:]) <= 0.1 + 1e-12)


def test_run_deterministic_byte_for_byte():
    prob = linear_toy(n=6, dim=4, seed=1)
    cfg = SolverConfig(eta=0.1, max_iters=40)

    def go():
        est = make_estimator("svrg", EstimatorParams(b=2, p_switch=0.4),
                             prob, np.ones(4), seed=7)
        return run(prob, est, cfg)

    t1, t2 = go(), go()
    assert np.array_equal(t1.final_x, t2.final_x)
    assert [r.abs_residual for r in t1.records] == \
        [r.abs_residual for r in t2.records]
    assert [r.oracle_calls for r in t1.records] == \
        [r.oracle_calls for r in t2.records]


def test_divergence_guard():
    prob = scalar_identity_problem()
    est = make_full(prob, [1.0])
    with pytest.raises(DivergenceError) as excinfo:
        run(prob, est, SolverConfig(eta=5.0, max_iters=500))
    assert excinfo.value.trace is not None
    assert excinfo.value.trace.records


def constant_operator_problem(value):
    """G(x) = -value for every x, so from x0 = 0 with eta = 1 the first
    iterate is exactly `value`."""
    value = np.asarray(value, dtype=float)
    op = SampledOperator(
        n=1, dim=value.size,
        batch_components=lambda x, idx: np.tile(-value, (len(idx), 1)),
        full_eval=lambda x: -value)
    return InclusionProblem(forward=op, resolvent=identity_resolvent(),
                            lipschitz=1.0)


_ABOVE_BOUND = np.nextafter(DIVERGENCE_NORM, np.inf)


@pytest.mark.parametrize("value", [
    [np.nan, 0.0], [0.0, np.inf], [-np.inf, 1.0], [np.inf, -np.inf],
    [_ABOVE_BOUND, 0.0], [0.0, -_ABOVE_BOUND],
], ids=["nan", "+inf", "-inf", "+inf-inf", "above", "above-negative"])
def test_divergence_on_non_finite_or_large_iterate(value):
    assert not np.linalg.norm(value) <= DIVERGENCE_NORM
    prob = constant_operator_problem(value)
    est = make_full(prob, np.zeros(2))
    with pytest.raises(DivergenceError, match="iteration 1$"):
        run(prob, est, SolverConfig(eta=1.0, max_iters=1))


def test_no_divergence_at_the_norm_bound():
    value = [DIVERGENCE_NORM, 0.0]
    assert np.linalg.norm(value) == DIVERGENCE_NORM
    prob = constant_operator_problem(value)
    trace = run(prob, make_full(prob, np.zeros(2)),
                SolverConfig(eta=1.0, max_iters=1))
    assert trace.iterations_run == 1
    assert np.array_equal(trace.final_x, value)


def test_early_stop_on_tolerance():
    prob = strongly_monotone_affine(dim=10, n_components=4, seed=2)
    eta = theory_stepsize(prob.lipschitz)
    est = make_full(prob, np.ones(10))
    trace = run(prob, est, SolverConfig(eta=eta, max_iters=10 ** 5,
                                        stop_tol=1e-6))
    assert trace.records[-1].rel_residual <= 1e-6
    assert trace.iterations_run < 10 ** 5


def test_max_calls_budget():
    prob = linear_toy(n=10, dim=3, seed=4)
    est = make_full(prob, np.ones(3))
    trace = run(prob, est, SolverConfig(eta=0.05, max_iters=10 ** 6,
                                        max_calls=200))
    # init (10) + 20 per iteration; the iteration in flight completes
    assert 200 <= trace.oracle_calls <= 200 + 20


def test_monotone_convergence_certificate():
    prob = strongly_monotone_affine(dim=50, n_components=40, seed=6)
    eta = theory_stepsize(prob.lipschitz)
    est = make_full(prob, np.ones(50))
    trace = run(prob, est, SolverConfig(eta=eta, max_iters=10 ** 4,
                                        record_every=500, stop_tol=1e-7))
    assert trace.records[-1].rel_residual <= 1e-6


def test_run_rejects_advanced_estimator():
    prob = scalar_identity_problem()
    est = make_full(prob, [1.0])
    run(prob, est, SolverConfig(eta=0.1, max_iters=3))
    with pytest.raises(ValueError, match="fresh"):
        run(prob, est, SolverConfig(eta=0.1, max_iters=3))


@pytest.mark.parametrize("eta", [np.nan, np.inf, -np.inf, 0.0, -1.0, True],
                         ids=["nan", "inf", "-inf", "zero", "negative",
                              "true"])
def test_step_size_must_be_a_finite_positive_number(eta):
    """A step size that is not a finite number > 0 is a bad argument named
    as eta, in the run and in the residual diagnostic alike: nan or inf
    must not run until its first iterate and read as divergence, nor True
    run as eta = 1."""
    prob = linear_toy(10, 4)
    est = make_full(prob, np.ones(4))
    with pytest.raises(ValueError, match="eta"):
        run(prob, est, SolverConfig(eta=eta, max_iters=3))
    with pytest.raises(ValueError, match="eta"):
        fb_residual(prob, eta, np.ones(4))
