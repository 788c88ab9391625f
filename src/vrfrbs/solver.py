"""Forward-reflected-backward iteration with variance-reduced directions.

The update is

    x_{k+1} = J(x_k - eta * S_tilde_k),    x_{-1} = x_0,

where J is the resolvent of eta*T and S_tilde_k estimates the
forward-reflected direction 2 G(x_k) - G(x_{k-1}).  A run records the
forward-backward residual along the way and keeps a single-slot uniform
reservoir so one iterate, uniformly distributed over the visited history,
is available at the end.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .core import InclusionProblem, InfeasibleParametersError, apply_resolvent, fb_residual
from .estimators import EstimatorState, TheoryCard, estimator_step

UNBIASED_STEP_DENOM = 3.0 * math.sqrt(2.0)   # eta < 1/(3 sqrt(2) L)
BIASED_STEP_DENOM = math.sqrt(134.0)         # eta < 1/(sqrt(134) L)
BIASED_CONDITION_FACTOR = 22.0               # 4 L^2 tau^2 kappa >= 22 (Theta + Theta_hat)
DIVERGENCE_NORM = 1e12                       # iterates beyond this norm diverged


class DivergenceError(RuntimeError):
    """Iterates left the finite range; carries the last finite trace."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


def theory_stepsize(L: float, rho: float = 0.0,
                    estimator_class: str = "unbiased",
                    safety: float = 0.99) -> float:
    """Admissible step size from the convergence conditions.

    Unbiased estimators require 8 rho <= eta < 1/(3 sqrt(2) L); biased ones
    require 32 rho <= eta < 1/(sqrt(134) L).  Returns safety * upper bound,
    raised to the lower bound when needed.

    Raises:
        InfeasibleParametersError: when no admissible eta exists (rho too
            large relative to 1/L).
    """
    if L <= 0:
        raise ValueError("L must be positive")
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    if not (0.0 < safety < 1.0):
        raise ValueError("safety must lie in (0, 1)")
    if estimator_class == "unbiased":
        upper = 1.0 / (UNBIASED_STEP_DENOM * L)
        lower = 8.0 * rho
        bound_name = "8*rho < 1/(3*sqrt(2)*L)"
    elif estimator_class == "biased":
        upper = 1.0 / (BIASED_STEP_DENOM * L)
        lower = 32.0 * rho
        bound_name = "32*rho < 1/(sqrt(134)*L)"
    else:
        raise ValueError("estimator_class must be 'unbiased' or 'biased'")
    if lower >= upper:
        raise InfeasibleParametersError(
            f"no admissible step size: {bound_name} is violated "
            f"(L={L:g}, rho={rho:g})")
    return max(lower, safety * upper)


@dataclass
class ConditionCheck:
    name: str
    lhs: float
    rhs: float

    @property
    def margin(self) -> float:
        return self.lhs - self.rhs

    @property
    def passed(self) -> bool:
        return self.lhs >= self.rhs


@dataclass
class ValidationReport:
    """Per-condition pass/fail with numeric margins.  Advisory only: the
    benchmark settings deliberately exceed these thresholds."""

    checks: List[ConditionCheck]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def __str__(self):
        lines = [f"{'PASS' if c.passed else 'WARN'} {c.name}: "
                 f"lhs={c.lhs:.6g} rhs={c.rhs:.6g} margin={c.margin:.6g}"
                 for c in self.checks]
        return "\n".join(lines)


def validate_rates(card: TheoryCard, L: float, eta: float) -> ValidationReport:
    """Check the step size and the variance condition for a theory card.

    Never blocks a run; callers decide what to do with warnings.
    """
    checks = []
    if card.biased:
        checks.append(ConditionCheck(
            "step size eta < 1/(sqrt(134) L)", 1.0 / (BIASED_STEP_DENOM * L), eta))
        checks.append(ConditionCheck(
            "4 L^2 tau^2 kappa >= 22 (Theta + Theta_hat)",
            4.0 * L * L * card.tau ** 2 * card.kappa,
            BIASED_CONDITION_FACTOR * (card.theta + card.theta_hat)))
    else:
        checks.append(ConditionCheck(
            "step size eta < 1/(3 sqrt(2) L)", 1.0 / (UNBIASED_STEP_DENOM * L), eta))
        checks.append(ConditionCheck(
            "kappa L^2 >= Theta + Theta_hat",
            card.kappa * L * L, card.theta + card.theta_hat))
    return ValidationReport(checks)


@dataclass
class SolverConfig:
    """Run parameters.

    record_every counts iterations; record_calls, when set, additionally
    records whenever the cumulative evaluation count crosses the next
    multiple (the harness uses this for epoch-based cadence).  stop_tol = 0
    disables early stopping.  max_calls stops the loop once the estimator's
    counter reaches the budget (the iteration in flight completes).
    """

    eta: float
    max_iters: int
    seed: int = 0
    record_every: int = 1
    record_calls: Optional[float] = None
    stop_tol: float = 0.0
    meter_residuals: bool = False
    max_calls: Optional[int] = None


@dataclass
class TraceRecord:
    iteration: int
    oracle_calls: int
    abs_residual: float
    rel_residual: float
    wall_ms: float


@dataclass
class RunTrace:
    records: List[TraceRecord]
    final_x: np.ndarray
    best_iterate: np.ndarray
    iterations_run: int
    oracle_calls: int


def run(problem: InclusionProblem, estimator: EstimatorState,
        config: SolverConfig) -> RunTrace:
    """Run the iteration from the estimator's x0.

    Deterministic given (problem, estimator kind/params/seed, config): the
    reservoir uses its own stream derived from config.seed.  Raises
    DivergenceError (with the partial trace attached) if an iterate goes
    non-finite or its norm exceeds DIVERGENCE_NORM.
    """
    if config.eta <= 0:
        raise ValueError("eta must be positive")
    if config.max_iters < 0:
        raise ValueError("max_iters must be >= 0")
    if estimator.k != 0:
        raise ValueError("estimator state was already advanced; make a fresh one")

    eta = config.eta
    counter = estimator.counter
    res_counter = counter if config.meter_residuals else None
    reservoir_rng = np.random.default_rng(
        np.random.SeedSequence([0x5E1EC7, config.seed]))

    x = estimator.x0.copy()
    x1 = x.copy()
    x2 = x.copy()
    s_tilde = estimator.s_tilde
    reservoir = x.copy()

    t0 = time.perf_counter()

    def residual_at(point):
        _, nrm = fb_residual(problem, eta, point, counter=res_counter)
        return nrm

    records: List[TraceRecord] = []
    abs0 = residual_at(x)
    rel0 = 0.0 if abs0 == 0.0 else 1.0
    records.append(TraceRecord(0, counter.count, abs0, rel0, 0.0))
    next_call_mark = None
    if config.record_calls is not None:
        next_call_mark = counter.count + config.record_calls

    iterations = 0
    for k in range(config.max_iters):
        x_next = apply_resolvent(problem.resolvent, x - eta * s_tilde, eta)
        if not np.all(np.isfinite(x_next)) or \
                float(np.linalg.norm(x_next)) > DIVERGENCE_NORM:
            trace = RunTrace(records, x, reservoir, iterations, counter.count)
            raise DivergenceError(
                f"divergence at iteration {k + 1}", trace=trace)
        iterations = k + 1
        x2, x1, x = x1, x, x_next
        # single-slot uniform reservoir over {x_0, ..., x_{k+1}}
        if reservoir_rng.random() < 1.0 / (iterations + 1):
            reservoir = x.copy()

        due = iterations % config.record_every == 0
        if next_call_mark is not None and counter.count >= next_call_mark:
            due = True
        stopping = False
        if due:
            a = residual_at(x)
            rel = 0.0 if abs0 == 0.0 else a / abs0
            wall = (time.perf_counter() - t0) * 1e3
            records.append(TraceRecord(iterations, counter.count, a, rel, wall))
            if next_call_mark is not None and counter.count >= next_call_mark:
                # pass every crossed mark at once: adding a record_calls
                # below the mark's float spacing would never pass one.  The
                # cap holds if the quotient overflows to inf.
                crossed = (counter.count - next_call_mark) \
                    // config.record_calls + 1
                next_call_mark = min(
                    next_call_mark + crossed * config.record_calls,
                    counter.count + config.record_calls)
            if config.stop_tol > 0.0 and rel <= config.stop_tol:
                stopping = True
        if stopping or iterations >= config.max_iters:
            break
        if config.max_calls is not None and counter.count >= config.max_calls:
            break
        s_tilde, _ = estimator_step(estimator, x, x1, x2)

    if records[-1].iteration != iterations:
        a = residual_at(x)
        rel = 0.0 if abs0 == 0.0 else a / abs0
        wall = (time.perf_counter() - t0) * 1e3
        records.append(TraceRecord(iterations, counter.count, a, rel, wall))

    return RunTrace(records, x.copy(), reservoir, iterations, counter.count)


def best_iterate(trace: RunTrace) -> np.ndarray:
    """The reservoir sample: uniform over the visited iterates."""
    return trace.best_iterate
