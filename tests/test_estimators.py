import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vrfrbs import estimators
from vrfrbs.bench import build_problem, run_experiment
from vrfrbs.core import (InclusionProblem, SampledOperator,
                         identity_resolvent, UnsupportedConfigError)
from vrfrbs.estimators import (KINDS, EstimatorParams, _apply_step,
                               _first_occurrences, estimator_step,
                               make_estimator)
from vrfrbs.problems import linear_toy, strongly_monotone_affine

from helpers import instrumented_problem

REPO = Path(__file__).resolve().parents[1]


def components_only_problem(n=4, dim=3, seed=0):
    """Affine finite sum whose full evaluation is the literal component
    mean (no closed-form fast path), so full-batch collapses are bit-exact."""
    rng = np.random.default_rng(seed)
    B = np.stack([np.eye(dim) + 0.3 * rng.standard_normal((dim, dim))
                  for _ in range(n)])
    c = rng.standard_normal((n, dim))

    def batch_components(x, idx):
        return B[idx] @ x + c[idx]

    op = SampledOperator(n=n, dim=dim, batch_components=batch_components)
    return InclusionProblem(forward=op, resolvent=identity_resolvent(),
                            lipschitz=3.0)


def params_for(kind, n, b=None):
    b = b if b is not None else max(1, n // 2)
    if kind == "full":
        return EstimatorParams()
    if kind == "sgd":
        return EstimatorParams(b=b)
    if kind == "svrg":
        return EstimatorParams(b=b, p_switch=0.5)
    if kind == "saga":
        return EstimatorParams(b=b)
    if kind == "sarah":
        return EstimatorParams(b=b, p_switch=0.5)
    if kind == "hsgd":
        return EstimatorParams(b=b, omega=0.4)
    if kind == "hsvrg":
        return EstimatorParams(b=b, p_switch=0.5, omega=0.4)
    raise ValueError(kind)


def true_direction(problem, x, x1):
    return 2.0 * problem.forward.full(x) - problem.forward.full(x1)


# --- initialization --------------------------------------------------------

def test_saga_init_fills_table():
    prob = components_only_problem(n=4)
    x0 = np.array([0.5, -1.0, 2.0])
    st_ = make_estimator("saga", params_for("saga", 4), prob, x0, seed=0)
    idx = np.arange(4)
    rows = prob.forward.batch_components(x0, idx)
    assert np.array_equal(st_.table, rows)
    assert np.allclose(st_.table_mean, rows.mean(axis=0))
    assert np.array_equal(st_.s_tilde, rows.mean(axis=0))
    assert st_.init_calls == 4


def test_full_batch_initial_direction():
    prob = components_only_problem()
    x0 = np.ones(3)
    st_ = make_estimator("full", params_for("full", 4), prob, x0, seed=0)
    assert np.array_equal(st_.s_tilde, prob.forward.full(x0))


def test_svrg_initial_direction_is_exact():
    # with w_0 = x_{-1} = x_0 the correction terms cancel and the initial
    # estimate equals the exact mean at x_0
    prob = components_only_problem(n=3)
    x0 = np.array([1.0, 0.0, -2.0])
    st_ = make_estimator("svrg", EstimatorParams(b=1, p_switch=0.5), prob,
                         x0, seed=7)
    assert np.allclose(st_.s_tilde, prob.forward.full(x0))
    assert st_.init_calls == 3


def test_saga_rejects_oracle():
    oracle = SampledOperator(
        dim=2,
        sampler=lambda rng, size: rng.standard_normal((size, 2)),
        batch_components=lambda x, xi: x[None, :] + xi)
    prob = InclusionProblem(forward=oracle, resolvent=identity_resolvent(),
                            lipschitz=1.0)
    with pytest.raises(UnsupportedConfigError):
        make_estimator("saga", EstimatorParams(b=1), prob, np.zeros(2), seed=0)


def test_param_validation():
    prob = components_only_problem(n=4)
    with pytest.raises(ValueError):
        make_estimator("svrg", EstimatorParams(b=1), prob, np.zeros(3), seed=0)
    with pytest.raises(ValueError):
        make_estimator("hsgd", EstimatorParams(b=1, omega=1.5), prob,
                       np.zeros(3), seed=0)
    with pytest.raises(ValueError):
        make_estimator("sgd", EstimatorParams(b=9), prob, np.zeros(3), seed=0)


# --- stepping --------------------------------------------------------------

def test_full_batch_step_value_and_calls():
    prob = components_only_problem()
    x0 = np.zeros(3)
    st_ = make_estimator("full", EstimatorParams(), prob, x0, seed=0)
    x1 = np.array([0.2, -0.1, 0.4])
    value, calls = estimator_step(st_, x1, x0, x0)
    assert np.array_equal(value, true_direction(prob, x1, x0))
    assert calls == 2 * 4


def test_saga_full_batch_collapse():
    prob = components_only_problem(n=4)
    x0 = np.array([0.1, 0.2, 0.3])
    st_ = make_estimator("saga", EstimatorParams(b=4), prob, x0, seed=0)
    # replace sampling by the full index set via the injected-draw core
    from vrfrbs.estimators import _apply_step
    st_.k += 1
    x1 = x0 + 0.5
    value, _ = _apply_step(st_, x1, x0, x0, {"batch": np.arange(4)})
    expected = 2.0 * prob.forward.batch_mean(x1, np.arange(4)) \
        - prob.forward.batch_mean(x0, np.arange(4))
    assert np.array_equal(value, expected)


def test_saga_table_rows_updated_only_for_batch():
    prob = components_only_problem(n=6)
    x0 = np.zeros(3)
    st_ = make_estimator("saga", EstimatorParams(b=2), prob, x0, seed=5)
    before = st_.table.copy()
    x1 = np.ones(3)
    from vrfrbs.estimators import _apply_step
    st_.k += 1
    batch = np.array([1, 4, 4])
    _apply_step(st_, x1, x0, x0, {"batch": batch})
    rows_x0 = prob.forward.batch_components(x0, np.arange(6))
    for i in range(6):
        if i in (1, 4):
            assert np.array_equal(st_.table[i], rows_x0[i])
        else:
            assert np.array_equal(st_.table[i], before[i])


def test_saga_stores_first_occurrence_of_a_repeated_index():
    """On the policy-evaluation operator the rows of a repeated index can
    differ in the last bit by their position in the batch; saga's table
    takes the row at the index's first position."""
    prob = build_problem({"family": "policy-eval", "states": 100,
                          "actions": 10, "transitions": 2000,
                          "features": 21, "gamma": 0.95, "tau_reg": 1e-4,
                          "seed": 7}, 0, False)
    op = prob.forward
    rng = np.random.default_rng(0)
    x0 = np.zeros(op.dim)
    x = rng.standard_normal(op.dim)
    x1 = rng.standard_normal(op.dim)
    # prefer a batch whose repeated rows differ, where the rule shows
    for _ in range(200):
        batch = op.draw(rng, 79)
        comp = op.batch_components(x1, batch)
        first = {}
        for pos, i in enumerate(batch):
            first.setdefault(i, pos)
        if any(not np.array_equal(comp[pos], comp[first[i]])
               for pos, i in enumerate(batch)):
            break
    assert len(first) < len(batch)
    st_ = make_estimator("saga", EstimatorParams(b=79), prob, x0, seed=0)
    st_.k += 1
    _apply_step(st_, x, x1, x0, {"batch": batch})
    for i, pos in first.items():
        assert np.array_equal(st_.table[i], comp[pos])


def test_first_occurrences_match_np_unique():
    rng = np.random.default_rng(11)
    batches = [np.array([3]), np.array([2, 2, 2]), np.array([5, 1, 5, 1, 0])]
    batches += [rng.integers(0, n, size=m)
                for n, m in ((10, 30), (2000, 79), (50, 50), (7, 1))
                for _ in range(50)]
    for idx in batches:
        uniq, first = _first_occurrences(idx)
        want_uniq, want_first = np.unique(idx, return_index=True)
        assert np.array_equal(uniq, want_uniq)
        assert np.array_equal(first, want_first)


# The draw-ahead contract: saga and hsgd draw their batch indices ahead in
# chunks, which gives the batches of per-step draws only because consecutive
# Generator.integers calls continue one stream.  A numpy that breaks this
# fails here.
@pytest.mark.parametrize("n", [2, 50, 2000, 2**31 + 11, 2**33])
@pytest.mark.parametrize("seed", range(8))
def test_consecutive_draws_continue_one_stream(n, seed):
    op = SampledOperator(n=n, dim=1, batch_components=None)
    sizes = [79, 1, 4096, 3, 250, 17]   # an odd total leaves a 32-bit half
    one, many = np.random.default_rng(seed), np.random.default_rng(seed)
    one.random()
    many.random()
    whole = op.draw(one, sum(sizes))
    parts = np.concatenate([op.draw(many, m) for m in sizes])
    assert np.array_equal(whole, parts)
    assert one.bit_generator.state == many.bit_generator.state
    assert np.array_equal(op.draw(one, 5), op.draw(many, 5))


# the kinds that draw ahead, with two batches a step and a mega-batch start
_DRAW_AHEAD_CASES = {
    "saga": ("saga", {"b": 45}),
    "hsgd": ("hsgd", {"b": 45, "omega": 0.5}),
    "hsgd-unshared": ("hsgd", {"b": 45, "omega": 0.5,
                               "share_batches": False}),
    "hsgd-mega": ("hsgd", {"b": 45, "omega": 0.5, "mega_batch": 33}),
}


@pytest.mark.parametrize("name", list(_DRAW_AHEAD_CASES))
def test_draw_ahead_batches_match_per_step_draws(name, monkeypatch):
    kind, extra = _DRAW_AHEAD_CASES[name]
    drawn = []
    draw_batch = estimators._draw_batch

    def recording(state, size, trials=None):
        batch = draw_batch(state, size, trials)
        drawn.append(batch.copy())
        return batch

    monkeypatch.setattr(estimators, "_draw_batch", recording)
    prob = strongly_monotone_affine(dim=3, n_components=50, seed=3)
    st_ = make_estimator(kind, EstimatorParams(**extra), prob, np.zeros(3),
                         seed=8)
    rng = np.random.default_rng(4)
    pts = [np.zeros(3)]
    for k in range(1, 201):
        pts.append(pts[-1] + 0.1 * rng.standard_normal(3))
        estimator_step(st_, pts[k], pts[k - 1], pts[max(k - 2, 0)])
    per_step = 2 if extra.get("share_batches") is False else 1
    assert [len(b) for b in drawn] == \
        [33] * ("mega_batch" in extra) + [45] * (200 * per_step)
    # 9000 or more indices: the chunk was refilled with a leftover
    assert 0 < len(st_.ahead) < estimators._DRAW_CHUNK
    stream = np.random.default_rng(8)
    for batch in drawn:
        assert np.array_equal(batch, stream.integers(0, 50, size=len(batch)))


def test_only_saga_and_hsgd_on_finite_sums_draw_ahead():
    prob = linear_toy(n=8, dim=3, seed=1)
    for kind in KINDS:
        st_ = make_estimator(kind, params_for(kind, 8, b=3), prob,
                             np.zeros(3), seed=0)
        assert (st_.ahead is not None) == (kind in ("saga", "hsgd")), kind
    oracle = dataclasses.replace(prob, forward=SampledOperator(
        dim=3, sampler=lambda rng, size: rng.integers(0, 8, size=size),
        batch_components=lambda x, xi: prob.forward.batch_components(x, xi)))
    st_ = make_estimator("hsgd", EstimatorParams(b=3, omega=0.5,
                                                 mega_batch=4),
                         oracle, np.zeros(3), seed=0)
    assert st_.ahead is None


def test_clone_starts_with_nothing_drawn_ahead():
    prob = strongly_monotone_affine(dim=3, n_components=50, seed=3)
    st_ = make_estimator("saga", EstimatorParams(b=5), prob, np.zeros(3),
                         seed=2)
    x = np.ones(3)
    estimator_step(st_, x, np.zeros(3), np.zeros(3))
    left = st_.ahead.copy()
    assert len(left) == estimators._DRAW_CHUNK - 5
    twin = st_.clone(np.random.default_rng(9))
    assert twin.ahead is not None and len(twin.ahead) == 0
    assert np.array_equal(st_.ahead, left)
    estimators._make_draws(twin, x, x, x)
    assert len(twin.ahead) == estimators._DRAW_CHUNK - 5


@pytest.mark.parametrize("kind", KINDS)
def test_a_clones_steps_charge_only_the_clone(kind):
    prob = linear_toy(n=8, dim=3, seed=1)
    st_ = make_estimator(kind, params_for(kind, 8, b=3), prob, np.zeros(3),
                         seed=0)
    x = np.ones(3)
    estimator_step(st_, x, np.zeros(3), np.zeros(3))
    calls, init_calls = st_.calls, st_.init_calls
    twin = st_.clone(np.random.default_rng(9))
    assert twin.calls == calls
    for _ in range(3):
        before = twin.calls
        _, charged = estimator_step(twin, 2.0 * x, x, np.zeros(3))
        assert charged > 0 and twin.calls == before + charged
    assert (st_.calls, st_.init_calls) == (calls, init_calls)


def test_saga_running_mean_stays_synced():
    prob = components_only_problem(n=8)
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal(3)
    st_ = make_estimator("saga", EstimatorParams(b=3), prob, x0, seed=1)
    pts = [x0]
    for _ in range(200):
        pts.append(pts[-1] + 0.1 * rng.standard_normal(3))
    for k in range(1, 201):
        estimator_step(st_, pts[k], pts[k - 1], pts[max(k - 2, 0)])
        exact = st_.table.mean(axis=0)
        err = np.linalg.norm(st_.table_mean - exact)
        assert err <= 1e-8 * (1 + np.linalg.norm(exact))


def test_saga_resyncs_its_running_mean_at_multiples_of_512():
    """At steps k = 512 and 1024 the running table mean is recomputed from
    the table, bit for bit; in between it is updated from the rows."""
    prob = components_only_problem(n=8)
    rng = np.random.default_rng(4)
    x2 = x1 = np.zeros(3)
    st_ = make_estimator("saga", EstimatorParams(b=3), prob, x1, seed=2)
    synced = []
    for k in range(1, 1025):
        x = x1 + 0.1 * rng.standard_normal(3)
        estimator_step(st_, x, x1, x2)
        x2, x1 = x1, x
        assert st_.k == k
        if np.array_equal(st_.table_mean, st_.table.mean(axis=0)):
            synced.append(k)
    # the running updates drift in the last bits, so the steps just
    # before a resync differ from the recomputed mean
    assert {512, 1024} <= set(synced)
    assert not {511, 1023} & set(synced)


def test_sarah_always_switch_is_exact():
    prob = components_only_problem()
    x0 = np.zeros(3)
    st_ = make_estimator("sarah", EstimatorParams(b=1, p_switch=1.0), prob,
                         x0, seed=0)
    x1 = np.array([1.0, -1.0, 0.5])
    value, _ = estimator_step(st_, x1, x0, x0)
    assert np.allclose(value, true_direction(prob, x1, x0), atol=1e-15)


def test_sarah_exact_resets_charge_n_per_step():
    # p_switch = 1 resets every step; G(x_{k-1}) is the value kept from the
    # previous reset (from initialization at the first step), so each step
    # evaluates only G(x_k)
    base = components_only_problem(n=4)
    prob, wrapped = instrumented_problem(base)
    x0 = np.zeros(3)
    st_ = make_estimator("sarah", EstimatorParams(b=1, p_switch=1.0), prob,
                         x0, seed=0)
    assert st_.init_calls == wrapped.observed == 4
    rng = np.random.default_rng(2)
    pts = [x0]
    for _ in range(6):
        pts.append(pts[-1] + 0.3 * rng.standard_normal(3))
    for k in range(1, 7):
        before = wrapped.observed
        value, calls = estimator_step(st_, pts[k], pts[k - 1],
                                      pts[max(k - 2, 0)])
        assert calls == wrapped.observed - before == 4, k
        assert np.array_equal(value, true_direction(base, pts[k], pts[k - 1]))


def test_hsgd_omega_one_is_plain_minibatch():
    prob = components_only_problem(n=4)
    x0 = np.zeros(3)
    st_ = make_estimator("hsgd", EstimatorParams(b=2, omega=1.0), prob,
                         x0, seed=0)
    from vrfrbs.estimators import _apply_step
    st_.k += 1
    x1 = np.ones(3)
    batch = np.array([0, 2])
    value, _ = _apply_step(st_, x1, x0, x0,
                           {"batch": batch, "batch_hat": batch})
    expected = 2.0 * prob.forward.batch_mean(x1, batch) \
        - prob.forward.batch_mean(x0, batch)
    assert np.allclose(value, expected, atol=1e-15)


def test_sgd_two_outcomes_enumerated_by_hand():
    # n = 2, b = 1: the two possible draws and their mean
    prob = components_only_problem(n=2)
    op = prob.forward
    x0 = np.zeros(3)
    x1 = np.array([0.4, -0.2, 0.1])
    outcomes = []
    from vrfrbs.estimators import _apply_step
    for i in (0, 1):
        st_ = make_estimator("sgd", EstimatorParams(b=1), prob, x0, seed=0)
        st_.k += 1
        value, _ = _apply_step(st_, x1, x0, x0, {"batch": np.array([i])})
        hand = 2.0 * op.batch_components(x1, np.array([i]))[0] \
            - op.batch_components(x0, np.array([i]))[0]
        assert np.allclose(value, hand, atol=1e-15)
        outcomes.append(value)
    mean = 0.5 * (outcomes[0] + outcomes[1])
    assert np.allclose(mean, true_direction(prob, x1, x0), atol=1e-14)


@pytest.mark.parametrize("kind", KINDS)
def test_full_index_collapse_reproduces_direction(kind):
    """With sampling replaced by the full index set and switching at its
    deterministic extreme, every estimator reproduces the exact direction."""
    from vrfrbs.estimators import _apply_step
    n = 4
    prob = components_only_problem(n=n)
    x0 = np.array([0.3, -0.2, 0.1])
    if kind == "full":
        params = EstimatorParams()
    elif kind in ("sgd", "saga"):
        params = EstimatorParams(b=n)
    elif kind == "svrg":
        params = EstimatorParams(b=n, p_switch=1.0)
    elif kind == "sarah":
        params = EstimatorParams(b=n, p_switch=1.0)
    elif kind == "hsgd":
        params = EstimatorParams(b=n, omega=0.4)
    else:
        params = EstimatorParams(b=n, p_switch=1.0, omega=0.4)
    st_ = make_estimator(kind, params, prob, x0, seed=0)
    full_idx = np.arange(n)
    rng = np.random.default_rng(9)
    pts = [x0, x0 + 0.5 * rng.standard_normal(3)]
    pts.append(pts[-1] + 0.5 * rng.standard_normal(3))
    for k in (1, 2):
        draws = {}
        if kind in ("svrg", "sarah", "hsvrg"):
            draws["coin"] = True
        if not (kind == "full" or (kind == "sarah")):
            draws["batch"] = full_idx
        if kind in ("hsgd", "hsvrg"):
            draws["batch_hat"] = full_idx
        st_.k += 1
        value, _ = _apply_step(st_, pts[k], pts[k - 1], pts[max(k - 2, 0)],
                               draws)
        st_.s_tilde = value
        expected = 2.0 * prob.forward.batch_mean(pts[k], full_idx) \
            - prob.forward.batch_mean(pts[k - 1], full_idx)
        assert np.allclose(value, expected, atol=1e-13), kind


_ACCOUNTING_VARIANTS = (
    [(kind, {}, kind) for kind in KINDS]
    + [(kind, {"share_batches": False}, f"{kind}-unshared")
       for kind in ("hsgd", "hsvrg")]
    + [(kind, {"mega_batch": 5}, f"{kind}-mega")
       for kind in ("svrg", "sarah", "hsgd", "hsvrg")])
# every variant on the toy, a SampledOperator, and on a RowOperator, whose
# batch_mean evaluates a step's points in one stacked call
_ACCOUNTING_CASES = (
    [pytest.param(kind, extra, lambda: linear_toy(n=8, dim=3, seed=11),
                  id=name) for kind, extra, name in _ACCOUNTING_VARIANTS]
    + [pytest.param(kind, extra,
                    lambda: strongly_monotone_affine(dim=3, n_components=8,
                                                     seed=11),
                    id=f"{name}-row-operator")
       for kind, extra, name in _ACCOUNTING_VARIANTS])


@pytest.mark.parametrize("kind, extra, build", _ACCOUNTING_CASES)
def test_call_accounting_matches_instrumented_operator(kind, extra, build):
    prob, wrapped = instrumented_problem(build())
    params = dataclasses.replace(params_for(kind, 8, b=3), **extra)
    x0 = np.zeros(3)
    st_ = make_estimator(kind, params, prob, x0, seed=4)
    assert st_.init_calls == wrapped.observed
    rng = np.random.default_rng(21)
    pts = [x0]
    for _ in range(12):
        pts.append(pts[-1] + 0.3 * rng.standard_normal(3))
    for k in range(1, 13):
        before = wrapped.observed
        _, calls = estimator_step(st_, pts[k], pts[k - 1], pts[max(k - 2, 0)])
        assert calls == wrapped.observed - before, (kind, k)
    assert st_.calls == wrapped.observed


# (iterations, oracle_calls, final_rel_residual) of every cell of a 10-epoch
# affine-toy matrix (n = 30, budget 300 calls).  The call audit above passes
# when a shared batch mean is evaluated and charged twice; these counts do
# not.  The residuals are written at 17 digits and compared within 1e-9
# relative, so a change to any step formula fails here.
STEP_MATRIX = {
    "full": ("full", {}, (6, 330, 0.49138345035377251)),
    "sgd": ("sgd", {"sgd_coeff": 0.05}, (20, 321, 0.45979771248003071)),
    "saga": ("saga", {"b": 4}, (35, 302, 0.032287211429997562)),
    "svrg": ("svrg", {"b": 4, "p_switch": 0.3},
             (17, 322, 0.13715754583918485)),
    "svrg-mega": ("svrg", {"b": 4, "p_switch": 0.3, "mega_batch": 10},
                  (21, 300, 0.63745666525775402)),
    "sarah": ("sarah", {"b": 4, "p_switch": 0.3},
              (12, 342, 0.24513471454108485)),
    "sarah-p1": ("sarah", {"b": 4, "p_switch": 1.0},
                 (10, 300, 0.30905963606593151)),
    "sarah-mega": ("sarah", {"b": 4, "p_switch": 0.3, "mega_batch": 10},
                   (22, 302, 0.6250074723718273)),
    "hsgd": ("hsgd", {"b": 4, "omega": 0.5},
             (24, 306, 0.56875541053135448)),
    "hsgd-unshared": ("hsgd", {"b": 4, "omega": 0.5, "share_batches": False},
                      (15, 310, 0.22447683016635608)),
    "hsgd-mega": ("hsgd", {"b": 4, "omega": 0.5, "mega_batch": 10},
                  (26, 310, 0.44564163071999069)),
    "hsvrg": ("hsvrg", {"b": 4, "p_switch": 0.3, "omega": 0.5},
              (13, 322, 0.21847278161371991)),
    "hsvrg-unshared": ("hsvrg", {"b": 4, "p_switch": 0.3, "omega": 0.5,
                                 "share_batches": False},
                       (11, 318, 0.27523425709140226)),
    "hsvrg-mega": ("hsvrg", {"b": 4, "p_switch": 0.3, "omega": 0.5,
                             "mega_batch": 10},
                   (17, 304, 1.601697498473859)),
    "hsvrg-mega-unshared": ("hsvrg", {"b": 4, "p_switch": 0.3, "omega": 0.5,
                                      "mega_batch": 10,
                                      "share_batches": False},
                            (12, 306, 0.41006641693927831)),
}


def _pinned(cells, key):
    """key(cell) -> (iterations, oracle_calls, residual), the residual
    wrapped in approx so that it compares within 1e-9 relative."""
    return {key(c): (c["iterations"], c["oracle_calls"],
                     pytest.approx(c["final_rel_residual"], rel=1e-9, abs=0))
            for c in cells}


def test_step_matrix_iterations_and_calls(tmp_path):
    config = {
        "experiment_id": "step-matrix",
        "problem": {"family": "affine-toy", "dim": 4, "components": 30,
                    "seed": 5},
        "algorithms": [{"name": name, "estimator": kind, "params": params,
                        "eta": "1/8L"}
                       for name, (kind, params, _) in STEP_MATRIX.items()],
        "run": {"epochs": 10, "record_every_epochs": 5.0, "seeds": [0]},
    }
    cells = run_experiment(config, tmp_path)
    got = _pinned(cells, key=lambda c: c["algorithm"])
    assert got == {name: cell[2] for name, cell in STEP_MATRIX.items()}


# (iterations, oracle_calls, final_rel_residual) per (algorithm, seed) of the
# six algorithms of each desk config on a small instance, 2 seeds, 8 epochs:
# the RowOperator gather and dense paths, with the soft-threshold (policy
# evaluation) and ball-box (AUC) resolvents.
DESK_MATRICES = {
    "policy_eval_desk": ({"states": 20, "actions": 4, "transitions": 200}, {
        ("svrg", 0): (21, 1752, 0.072286495894847994),
        ("svrg", 1): (18, 1782, 0.0672965744122445),
        ("saga", 0): (43, 1628, 0.068693587083250837),
        ("saga", 1): (43, 1628, 0.070519317478747748),
        ("sgd", 0): (25, 1627, 0.086942587389065629),
        ("sgd", 1): (25, 1627, 0.066222700369048662),
        ("sarah", 0): (28, 1614, 0.085995063632511234),
        ("sarah", 1): (9, 1917, 0.35155550549089476),
        ("hsgd", 0): (37, 1604, 0.079668357886224644),
        ("hsgd", 1): (37, 1604, 0.081949826978992821),
        ("hsvrg", 0): (19, 1684, 0.13747832936298077),
        ("hsvrg", 1): (18, 1819, 0.13763696453703309),
    }),
    "auc_desk": ({"n": 300, "d": 5}, {
        ("svrg", 0): (25, 2418, 0.29381710222514607),
        ("svrg", 1): (17, 2446, 0.3865678523510227),
        ("saga", 0): (49, 2412, 0.43622798279537733),
        ("saga", 1): (49, 2412, 0.34896799919222715),
        ("sgd", 0): (43, 2485, 0.08497951041047544),
        ("sgd", 1): (43, 2485, 0.12454475939651675),
        ("sarah", 0): (20, 2664, 0.24268290785895602),
        ("sarah", 1): (15, 2940, 0.32304691409146358),
        ("hsgd", 0): (40, 2406, 0.40688654668248758),
        ("hsgd", 1): (40, 2406, 0.11321221021989576),
        ("hsvrg", 0): (20, 2496, 0.35503686788727951),
        ("hsvrg", 1): (19, 2424, 0.36827609495289904),
    }),
}


@pytest.mark.parametrize("name", list(DESK_MATRICES))
def test_desk_matrix_iterations_calls_and_residuals(name, tmp_path):
    size, pinned = DESK_MATRICES[name]
    config = json.loads(
        (REPO / "scripts" / "configs" / f"{name}.json").read_text())
    config["problem"].update(size)
    config["run"] = {"epochs": 8, "record_every_epochs": 4.0, "seeds": [0, 1]}
    cells = run_experiment(config, tmp_path)
    got = _pinned(cells, key=lambda c: (c["algorithm"], c["seed"]))
    assert got == pinned


@pytest.mark.parametrize("kind", KINDS)
def test_step_sequence_deterministic_under_seed(kind):
    prob = linear_toy(n=6, dim=3, seed=2)
    params = params_for(kind, 6, b=2)
    rng = np.random.default_rng(33)
    pts = [np.zeros(3)]
    for _ in range(6):
        pts.append(pts[-1] + 0.2 * rng.standard_normal(3))

    def run_once():
        st_ = make_estimator(kind, params, prob, pts[0], seed=99)
        seq = [st_.s_tilde.copy()]
        for k in range(1, 7):
            v, _ = estimator_step(st_, pts[k], pts[k - 1], pts[max(k - 2, 0)])
            seq.append(v.copy())
        return seq

    a, b_ = run_once(), run_once()
    for u, v in zip(a, b_):
        assert np.array_equal(u, v)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=1, max_value=4))
def test_sgd_schedule_clamped(n, k):
    from vrfrbs.estimators import increasing_batch_schedule
    sched = increasing_batch_schedule(n, coeff=10.0)
    assert 1 <= sched(k) <= n


@pytest.mark.parametrize("kind", ["svrg", "sarah", "hsgd", "hsvrg"])
def test_mega_batch_above_n_rejected_on_a_finite_sum(kind):
    prob = components_only_problem(n=4)
    params = EstimatorParams(b=1, p_switch=0.5, omega=0.5, mega_batch=5)
    with pytest.raises(ValueError,
                       match=r"^mega_batch = 5 must be <= n = 4; use 'exact'$"):
        make_estimator(kind, params, prob, np.zeros(3), seed=0)
    st_ = make_estimator(kind, dataclasses.replace(params, mega_batch=4),
                         prob, np.zeros(3), seed=0)
    assert st_.init_calls == 4
