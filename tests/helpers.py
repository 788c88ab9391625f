"""Shared test fixtures: instrumented operators and an independently coded
deterministic forward-reflected-backward reference loop."""

import dataclasses

import numpy as np

from vrfrbs.core import apply_resolvent


class InstrumentedOperator:
    """Wraps a finite-sum operator (a SampledOperator with n set, or a
    RowOperator) and counts logical component evaluations:
    full -> n, batch access -> len(batch), which for a stack of P points
    is P times their one batch.  Used to audit the estimators'
    self-reported call counts, and that every stacked batch_mean call
    repeats one batch, as the operators' stack contract requires."""

    def __init__(self, op):
        self._op = op
        self.observed = 0
        self.n = op.n
        self.dim = op.dim

    def draw(self, rng, size):
        return self._op.draw(rng, size)

    def batch_components(self, x, idx):
        self.observed += len(idx)
        return self._op.batch_components(x, idx)

    def batch_mean(self, x, idx):
        if x.ndim == 2:
            parts = np.asarray(idx).reshape((len(x), -1) + np.shape(idx)[1:])
            assert (parts == parts[0]).all(), \
                "a stacked batch_mean call must repeat one batch per point"
        self.observed += len(idx)
        return self._op.batch_mean(x, idx)

    def full(self, x):
        self.observed += self._op.n
        return self._op.full(x)


def instrumented_problem(problem):
    """Problem copy whose forward operator records every evaluation."""
    wrapped = InstrumentedOperator(problem.forward)
    return dataclasses.replace(problem, forward=wrapped), wrapped


def frbs_reference(problem, eta, x0, iters):
    """Plain deterministic forward-reflected-backward loop:

        x_{k+1} = J(x_k - eta * (2 G(x_k) - G(x_{k-1}))),  x_{-1} = x_0.

    Independent of the solver module; returns the list [x_0, ..., x_K].
    """
    op = problem.forward
    x_prev = np.asarray(x0, dtype=float).copy()
    x_cur = x_prev.copy()
    path = [x_cur.copy()]
    for _ in range(iters):
        direction = 2.0 * op.full(x_cur) - op.full(x_prev)
        x_next = apply_resolvent(problem.resolvent, x_cur - eta * direction, eta)
        x_prev, x_cur = x_cur, x_next
        path.append(x_cur.copy())
    return path
