"""Empirical certification of the estimator contracts.

Every estimator kind promises, conditionally on the frozen past, either a
zero-mean error (unbiased kinds) or a geometrically shrinking conditional
mean (biased kinds), together with a variance recursion driven by iterate
differences.  This module realizes those conditional statements by freezing
an estimator state and a short iterate history, then randomizing only the
next step's draws:

* Monte-Carlo mode draws every trial's randomness from one stream per check
  and evaluates the step for a chunk of trials at once (the production
  step, batched along a trial axis), then reports the margin in
  standard errors.
* Enumeration mode (tiny instances: n <= 6 components, batches <= 2) sums
  over every outcome of the step's declared draws (switch coins, mega
  samples and batches) and checks the identity exactly.

Reports serialize to one line per check:
    name, trials, mean_norm, se, target_norm, margin_sigmas, pass
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import InclusionProblem, UnsupportedConfigError
from .estimators import (BIASED_KINDS, SAGA, SARAH, SGD, SVRG, HSGD, HSVRG,
                         UNBIASED_KINDS, EstimatorParams, EstimatorState,
                         _apply_step, _hybrid_c, _make_draws, _plan_draws,
                         _sgd_batch_size, estimator_step, make_estimator,
                         theory_card)

DEFAULT_SIGMA_THRESHOLD = 4.0
WARMUP = 3
STEP_SCALE = 0.5
ENUM_TOL = 1e-12
# Trials evaluated per batched step; bounds memory at any trial count.
MC_CHUNK = 4096


@dataclass
class McReport:
    """Outcome of one certification check."""

    name: str
    trials: int
    sample_mean: np.ndarray  # vector (mean error) or 1-element array (scalar)
    std_error: float
    target: np.ndarray
    margin_sigmas: float
    passed: bool
    exact: bool = False

    def to_line(self) -> str:
        mean_norm = float(np.linalg.norm(self.sample_mean))
        target_norm = float(np.linalg.norm(self.target))
        return (f"{self.name}, {self.trials}, {mean_norm:.17g}, "
                f"{self.std_error:.17g}, {target_norm:.17g}, "
                f"{self.margin_sigmas:.17g}, {'pass' if self.passed else 'fail'}")


# ---------------------------------------------------------------------------
# Frozen histories
# ---------------------------------------------------------------------------

@dataclass
class FrozenHistory:
    """An estimator state frozen after a short warm-up, plus the rolling
    points (x_k, x_{k-1}, x_{k-2}) for the randomized step and the realized
    recursion quantities of the warmed-up state."""

    state: EstimatorState
    x_k: np.ndarray
    x_km1: np.ndarray
    x_km2: np.ndarray
    e_prev: Optional[np.ndarray] = None      # e_{k-1}, biased kinds
    delta_prev: float = 0.0                  # realized Delta_{k-1}
    delta_k: float = 0.0                     # realized delta_k slack

    @property
    def problem(self) -> InclusionProblem:
        return self.state.problem


def _next_step(state: EstimatorState, rng=None) -> EstimatorState:
    """Copy of a frozen state, positioned at the step under test."""
    probe = state.clone(np.random.default_rng(0) if rng is None else rng)
    probe.k += 1
    return probe


def _component_values(problem: InclusionProblem, x: np.ndarray) -> np.ndarray:
    op = problem.forward
    return op.batch_components(np.asarray(x, float), np.arange(op.n))


def _exact_direction_value(problem, x, x1):
    op = problem.forward
    return 2.0 * op.full(np.asarray(x, float)) - op.full(np.asarray(x1, float))


def _per_sample_deviation(problem, x, x1, anchor_point, b) -> float:
    """(1/b) mean_i ||2 G_i(x) - G_i(x1) - G_i(anchor)||^2."""
    vals = 2.0 * _component_values(problem, x) \
        - _component_values(problem, x1) \
        - _component_values(problem, anchor_point)
    return float(np.einsum("ij,ij->i", vals, vals).mean()) / b


def _direction_variance(problem, x, x1) -> float:
    """Var_i(2 G_i(x) - G_i(x1)) for a single uniform draw."""
    vals = 2.0 * _component_values(problem, x) - _component_values(problem, x1)
    mean = vals.mean(axis=0)
    dev = vals - mean
    return float(np.einsum("ij,ij->i", dev, dev).mean())


def build_history(kind: str, params: EstimatorParams,
                  problem: InclusionProblem, seed) -> FrozenHistory:
    """Warm an estimator along a synthetic trajectory and freeze it.

    The trajectory is x_{j+1} = x_j + STEP_SCALE * z_j with Gaussian z_j;
    WARMUP estimator steps populate tables, snapshots, and recursion
    state.  The realized recursion quantities follow each kind's own
    bookkeeping: per-sample anchor deviations for svrg-style kinds (the
    frozen snapshot is the pre-step one), the squared previous error for
    the recursion kinds, their combination for hsvrg, and the table-based
    deviation for saga (captured against the table entering the last
    warm-up step).  Every kind but sarah needs a finite sum (component sums
    or full's exact mean), so on an oracle only sarah builds a history.
    """
    if kind != SARAH and not problem.is_finite_sum:
        raise UnsupportedConfigError(
            f"a {kind} history needs a finite-sum operator")
    dim = problem.dim
    rng = np.random.default_rng(np.random.SeedSequence([0xA11CE, seed]))
    points = [rng.standard_normal(dim)]
    for _ in range(WARMUP + 1):
        points.append(points[-1] + STEP_SCALE * rng.standard_normal(dim))

    state = make_estimator(kind, params, problem, points[0], seed=(0xBEE, seed))
    pre_table = None
    for j in range(1, WARMUP + 1):
        if kind == SAGA and j == WARMUP:
            pre_table = state.table.copy()
        estimator_step(state, points[j], points[j - 1], points[max(j - 2, 0)])

    x_k, x_km1, x_km2 = points[WARMUP + 1], points[WARMUP], points[WARMUP - 1]
    hist = FrozenHistory(state=state, x_k=x_k, x_km1=x_km1, x_km2=x_km2)

    if kind in BIASED_KINDS:
        hist.e_prev = state.s_tilde - _exact_direction_value(problem, x_km1, x_km2)

    b = int(params.b)
    if kind == SVRG:
        hist.delta_prev = _per_sample_deviation(problem, x_km1, x_km2,
                                                state.snapshot, b)
    elif kind == SAGA:
        vals = 2.0 * _component_values(problem, x_km1) \
            - _component_values(problem, x_km2) - pre_table
        hist.delta_prev = float(np.einsum("ij,ij->i", vals, vals).mean()) / b
    elif kind in (SARAH, HSGD):
        hist.delta_prev = float(np.dot(hist.e_prev, hist.e_prev))
    elif kind == HSVRG:
        d_prev = _per_sample_deviation(problem, x_km1, x_km2, state.snapshot, b)
        p = params.p_switch
        hist.delta_prev = float(np.dot(hist.e_prev, hist.e_prev)) \
            + (4.0 / p - 1.0) * params.omega ** 2 * d_prev
    elif kind == SGD:
        # kappa = 1: Delta_{k-1} does not enter the recursion bound
        hist.delta_prev = 0.0

    # realized slack delta_k for the step under test
    if kind == SGD:
        b_k = _sgd_batch_size(_next_step(state), x_k, x_km1, x_km2)
        hist.delta_k = _direction_variance(problem, x_k, x_km1) / b_k
    elif kind == HSGD:
        sigma_k2 = _direction_variance(problem, x_k, x_km1) / b
        hist.delta_k = _hybrid_c(params) * params.omega ** 2 * sigma_k2
    return hist


# ---------------------------------------------------------------------------
# Exact enumeration of step outcomes
# ---------------------------------------------------------------------------

def _step_outcomes(history: FrozenHistory):
    """Yield (probability, fresh copy of the frozen state, draws) for each
    outcome of the next step.  Drives `_plan_draws` depth first: a pass
    replays a path of choices, takes the first option of each new draw and
    queues the others, so outcomes come in lexicographic order.  A coin
    offers (p, True) and (1 - p, False), a batch every index tuple."""
    n = history.problem.forward.n
    if n is None:
        raise ValueError("enumeration needs a finite-sum operator")
    pending = [()]
    while pending:
        path, taken = pending.pop(), []

        def choose(options):
            if len(taken) < len(path):
                pick = path[len(taken)]
            else:
                pick = options[0]
                pending.extend(tuple(taken) + (alt,)
                               for alt in reversed(options[1:]))
            taken.append(pick)
            return pick[1]

        probe = _next_step(history.state)
        draws = _plan_draws(
            probe, history.x_k, history.x_km1, history.x_km2,
            lambda st, p: choose([(q, up) for q, up in
                                  ((p, True), (1.0 - p, False)) if q > 0.0]),
            lambda st, size: choose([
                (1.0 / n ** int(size), np.array(combo, dtype=int))
                for combo in itertools.product(range(n), repeat=int(size))]))
        yield math.prod(q for q, _ in taken), probe, draws


def enumerate_step_mean(history: FrozenHistory):
    """Exact E[S_tilde_k | frozen past] and the number of outcomes."""
    mean = np.zeros(history.problem.dim)
    total, outcomes = 0.0, 0
    for prob, probe, draws in _step_outcomes(history):
        value, _ = _apply_step(probe, history.x_k, history.x_km1,
                               history.x_km2, draws)
        mean += prob * value
        total += prob
        outcomes += 1
    if abs(total - 1.0) > 1e-12:
        raise AssertionError(f"branch probabilities sum to {total}")
    return mean, outcomes


# ---------------------------------------------------------------------------
# Monte-Carlo engine
# ---------------------------------------------------------------------------

def _mc_error_chunks(history: FrozenHistory, trials: int, seed):
    """Yield the errors e_k = S_tilde_k - S_k of `trials` independent draws
    of the next step, MC_CHUNK trials at a time, as (chunk, dim) arrays.

    One generator per check feeds every chunk's draws in the fixed order of
    `_make_draws`; each chunk steps a fresh copy of the frozen state.
    """
    x, x1, x2 = history.x_k, history.x_km1, history.x_km2
    s_true = _exact_direction_value(history.problem, x, x1)
    rng = np.random.default_rng(np.random.SeedSequence([0xC0FFEE, seed]))
    for start in range(0, trials, MC_CHUNK):
        size = min(MC_CHUNK, trials - start)
        state = _next_step(history.state, rng)
        draws = _make_draws(state, x, x1, x2, trials=size)
        values, _ = _apply_step(state, x, x1, x2, draws, trials=size)
        yield values - s_true


@dataclass
class _Moments:
    """Count, mean and sum of squared deviations (M2) of a sample stream,
    merged chunk by chunk with Chan et al.'s pairwise update."""

    count: int = 0
    mean: object = 0.0
    m2: object = 0.0

    def add(self, chunk: np.ndarray) -> None:
        size = len(chunk)
        if chunk.ndim == 2 and chunk.shape[1] > 1:
            # column sums of a (T, dim) chunk in one einsum loop, where
            # add.reduce runs one length-dim loop per row; both add the
            # rows in order, so the bits are the same
            mean = np.einsum("ij->j", chunk) / size
            dev = chunk - mean
            m2 = np.einsum("ij,ij->j", dev, dev)
        else:
            # add.reduce: the bits of .mean and .sum without their
            # wrappers; a 1-D or one-column stream is summed pairwise,
            # which einsum does not reproduce
            mean = np.add.reduce(chunk, axis=0) / size
            m2 = np.add.reduce((chunk - mean) ** 2, axis=0)
        total = self.count + size
        delta = mean - self.mean
        self.mean = self.mean + delta * (size / total)
        self.m2 = self.m2 + m2 + delta * delta * (self.count * size / total)
        self.count = total


def _mc_moments(history: FrozenHistory, trials: int, seed,
                squared: bool = False) -> _Moments:
    """Moments of the error vectors e_k, or of ||e_k||^2 when `squared`.
    A standard error needs at least two trials."""
    if trials < 2:
        raise ValueError(f"Monte-Carlo checks need trials >= 2, not {trials}")
    moments = _Moments()
    for err in _mc_error_chunks(history, trials, seed):
        moments.add(np.einsum("ij,ij->i", err, err) if squared else err)
    return moments


def _check_mean(history: FrozenHistory, name: str, target: np.ndarray,
                trials: int, seed, mode: str) -> McReport:
    """Certify E[e_k | frozen past] = target.

    mode="enumerate" sums all outcomes on tiny instances and requires the
    mean error to match to 1e-12 (relative to the direction's size);
    otherwise ||mean - target|| may be at most DEFAULT_SIGMA_THRESHOLD
    standard errors of the Monte-Carlo mean.
    """
    if mode == "enumerate":
        s_true = _exact_direction_value(history.problem, history.x_k,
                                        history.x_km1)
        mean, outcomes = enumerate_step_mean(history)
        err = mean - s_true
        tol = ENUM_TOL * (1.0 + float(np.linalg.norm(s_true)))
        dn = float(np.linalg.norm(err - target))
        return McReport(name=name, trials=outcomes, sample_mean=err,
                        std_error=0.0, target=target,
                        margin_sigmas=0.0 if dn <= tol else math.inf,
                        passed=dn <= tol, exact=True)
    mom = _mc_moments(history, trials, seed)
    count = mom.count
    se = math.sqrt(float(mom.m2.sum()) / (count - 1) / count)
    gap = mom.mean - target
    dn = math.sqrt(float(np.dot(gap, gap)))  # np.linalg.norm's bits
    if se == 0.0:
        margin = 0.0 if dn == 0.0 else math.inf
    else:
        margin = dn / se
    return McReport(name=name, trials=count, sample_mean=mom.mean,
                    std_error=se, target=target, margin_sigmas=margin,
                    passed=margin <= DEFAULT_SIGMA_THRESHOLD)


def check_unbiased(history: FrozenHistory, trials: int = 100_000, seed: int = 0,
                   mode: str = "mc") -> McReport:
    """Certify E[S_tilde_k | frozen past] = S_k for an unbiased kind."""
    kind = history.state.kind
    if kind not in UNBIASED_KINDS:
        raise ValueError(f"{kind} is not an unbiased estimator kind")
    return _check_mean(history, f"unbiased/{kind}",
                       np.zeros(history.problem.dim), trials, seed, mode)


def check_bias_recursion(history: FrozenHistory, trials: int = 100_000,
                         seed: int = 0, mode: str = "mc") -> McReport:
    """Certify E[e_k | frozen past] = (1 - tau) e_{k-1} for a biased kind."""
    kind = history.state.kind
    if kind not in BIASED_KINDS:
        raise ValueError(f"{kind} is not a biased estimator kind")
    if history.e_prev is None:
        raise ValueError("history does not carry e_{k-1}")
    card = theory_card(kind, history.state.params, history.problem.lipschitz,
                       n=history.problem.forward.n)
    return _check_mean(history, f"bias-recursion/{kind}",
                       (1.0 - card.tau) * history.e_prev, trials, seed, mode)


def check_variance_recursion(history: FrozenHistory, trials: int = 100_000,
                             seed: int = 0) -> McReport:
    """One-sided check of the variance recursion at the theory-card
    constants: the Monte-Carlo mean of ||e_k||^2 must not exceed

        (1 - kappa) Delta_{k-1} + Theta ||dx||^2 + Theta_hat ||dx'||^2
            + delta_k

    by more than DEFAULT_SIGMA_THRESHOLD standard errors, with Delta_{k-1}
    and delta_k realized by `build_history`.
    """
    state = history.state
    card = theory_card(state.kind, state.params, state.problem.lipschitz,
                       n=state.problem.forward.n)
    dx = history.x_k - history.x_km1
    dxp = history.x_km1 - history.x_km2
    rhs = (1.0 - card.kappa) * history.delta_prev \
        + card.theta * float(np.dot(dx, dx)) \
        + card.theta_hat * float(np.dot(dxp, dxp)) \
        + history.delta_k
    mom = _mc_moments(history, trials, seed, squared=True)
    count, mean = mom.count, float(mom.mean)
    se = math.sqrt(float(mom.m2) / (count - 1) / count)
    if se == 0.0:
        margin = -math.inf if mean <= rhs else math.inf
    else:
        margin = (mean - rhs) / se
    return McReport(name=f"variance-recursion/{state.kind}", trials=count,
                    sample_mean=np.array([mean]), std_error=se,
                    target=np.array([rhs]), margin_sigmas=margin,
                    passed=mean <= rhs + DEFAULT_SIGMA_THRESHOLD * se)
