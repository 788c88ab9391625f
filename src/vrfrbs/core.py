"""Composite-inclusion problems: forward operators, resolvents, residuals.

The target problem is to find x with 0 in G(x) + T(x), where G is a
single-valued operator available either as a finite sum (1/n) sum_i G_i(x)
or through a sampling oracle E_xi[G(x, xi)], and T is a possibly multivalued
operator accessed only through its resolvent J(z) = (I + eta*T)^{-1}(z).

Operators and resolvents are immutable after construction and safe to share
between concurrent runs; evaluation counters are owned by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

import numpy as np


class UnsupportedConfigError(ValueError):
    """An estimator/problem combination that cannot work (e.g. SAGA on a
    pure sampling oracle, which has no component table to maintain)."""


class InfeasibleParametersError(ValueError):
    """Step-size feasibility violated (the weak-Minty radius is too large
    relative to the Lipschitz constant)."""


@dataclass
class CallCounter:
    """Counts component/oracle evaluations.  One counter per run."""

    count: int = 0

    def add(self, k: int) -> None:
        self.count += int(k)


def _charge(counter: Optional[CallCounter], k: int) -> None:
    if counter is not None:
        counter.add(k)


# ---------------------------------------------------------------------------
# Forward operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteSumOperator:
    """G(x) = (1/n) sum_i G_i(x) with vectorized component access.

    Args:
        n: number of components.
        dim: dimension of the variable (and of every component value).
        batch_components: (x, idx) -> (len(idx), dim) array of G_i(x) for
            i in idx (duplicates allowed, order preserved).
        full_eval: optional closed form for the exact mean (affine fast
            path).  Epoch accounting still charges n per full evaluation.
    """

    n: int
    dim: int
    batch_components: Callable[[np.ndarray, np.ndarray], np.ndarray]
    full_eval: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """I.i.d. uniform component indices, sampled with replacement."""
        return rng.integers(0, self.n, size=size)

    def batch_mean(self, x: np.ndarray, idx: np.ndarray) -> np.ndarray:
        return self.batch_components(x, idx).mean(axis=0)

    def full(self, x: np.ndarray) -> np.ndarray:
        if self.full_eval is not None:
            return self.full_eval(x)
        return self.batch_mean(x, np.arange(self.n))


@dataclass(frozen=True)
class RowOperator:
    """Finite sum whose components are data rows scaled by coefficients.

    G_i(x) = common(x) + sum_k coef_k(x, i) * R_k[i], where block k writes
    row i of its (n, width) data block R_k, scaled by a scalar coefficient,
    into out[slot_k].  A block without rows (R_k = None) writes the
    coefficient itself into the single coordinate slot_k.  Blocks may share
    slots; their contributions add.

    Args:
        n: number of components.
        dim: dimension of the variable.
        blocks: (slot, rows) pairs; slot is a slice, or an int for a block
            without rows.
        coefficients: (x, rows, sel) -> one length-m coefficient vector per
            block, where rows holds each block's selected rows (None for a
            block without rows) and sel is the index array or slice that
            selected them, for per-sample data such as labels.
        full_eval: closed form for the exact mean.  Epoch accounting still
            charges n per full evaluation.
        common: optional term shared by every component.
    """

    n: int
    dim: int
    blocks: Tuple[Tuple[Union[slice, int], Optional[np.ndarray]], ...]
    coefficients: Callable[..., Tuple[np.ndarray, ...]]
    full_eval: Callable[[np.ndarray], np.ndarray]
    common: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """I.i.d. uniform component indices, sampled with replacement."""
        return rng.integers(0, self.n, size=size)

    def _select(self, x, sel):
        rows = tuple(None if R is None else R[sel] for _, R in self.blocks)
        return rows, self.coefficients(x, rows, sel)

    def batch_components(self, x: np.ndarray, idx: np.ndarray) -> np.ndarray:
        rows, coefs = self._select(x, idx)
        out = np.zeros((len(idx), self.dim))
        if self.common is not None:
            out += self.common(x)
        for (slot, _), R, c in zip(self.blocks, rows, coefs):
            out[:, slot] += c if R is None else c[:, None] * R
        return out

    def batch_mean(self, x: np.ndarray, idx: np.ndarray) -> np.ndarray:
        m = len(idx)
        if m < self.n // 4:
            # small batches: gathered rows, one matrix-vector product each
            rows, coefs = self._select(x, idx)
        else:
            # large batches: every row weighted by its multiplicity, which
            # reads the blocks sequentially instead of gathering rows
            counts = np.bincount(idx, minlength=self.n).astype(float)
            rows, coefs = self._select(x, slice(None))
            coefs = tuple(counts * c for c in coefs)
        out = np.zeros(self.dim)
        if self.common is not None:
            out += self.common(x)
        for (slot, _), R, c in zip(self.blocks, rows, coefs):
            out[slot] += (c.sum() if R is None else R.T @ c) / m
        return out

    def full(self, x: np.ndarray) -> np.ndarray:
        return self.full_eval(x)


@dataclass(frozen=True)
class StochasticOracle:
    """G(x) = E_xi[G(x, xi)] accessed through seed-driven samples.

    The evaluator must be deterministic given (x, xi); all randomness lives
    in the sampler.  `exact_mean`, when available (synthetic problems),
    gives the true mean for diagnostics such as residual evaluation.
    """

    dim: int
    sampler: Callable[[np.random.Generator, int], np.ndarray]
    evaluator: Callable[[np.ndarray, np.ndarray], np.ndarray]  # (x, xi_batch) -> (m, dim)
    exact_mean: Optional[Callable[[np.ndarray], np.ndarray]] = None

    n = None  # no component table

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.sampler(rng, size)

    def batch_components(self, x: np.ndarray, xi: np.ndarray) -> np.ndarray:
        return self.evaluator(x, xi)

    def batch_mean(self, x: np.ndarray, xi: np.ndarray) -> np.ndarray:
        return self.evaluator(x, xi).mean(axis=0)

    def full(self, x: np.ndarray) -> np.ndarray:
        if self.exact_mean is None:
            raise UnsupportedConfigError(
                "exact mean evaluation is not available for this oracle")
        return self.exact_mean(x)


ForwardOperator = Union[FiniteSumOperator, RowOperator, StochasticOracle]


def eval_full(op: ForwardOperator, x: np.ndarray,
              counter: Optional[CallCounter] = None) -> np.ndarray:
    """Exact mean (1/n) sum_i G_i(x).

    Charges n component evaluations to `counter` when one is passed; without
    a counter the evaluation is free (closed-form diagnostics).
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (op.dim,):
        raise ValueError(f"dimension mismatch: expected ({op.dim},), got {x.shape}")
    value = op.full(x)
    if getattr(op, "n", None) is not None:
        _charge(counter, op.n)
    return value


# ---------------------------------------------------------------------------
# Resolvents
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Resolvent:
    """Resolvent J(z) = (I + eta*T)^{-1}(z) for the supported T kinds.

    kind is one of:
        "identity"       T = 0, J(z) = z.
        "ball-box"       projection onto {||w|| <= radius} x box, where the
                         box clamps the trailing len(box_bounds) coordinates
                         to [-box_bounds[j], box_bounds[j]].
        "soft-threshold" componentwise shrinkage by eta*weight on the first
                         theta_dim coordinates, identity elsewhere.

    All kinds are nonexpansive projections/proximal maps.
    """

    kind: str
    radius: float = np.inf
    box_bounds: Optional[np.ndarray] = None
    weight: float = 0.0
    theta_dim: int = 0


def identity_resolvent() -> Resolvent:
    return Resolvent(kind="identity")


def ball_box_resolvent(radius: float, box_bounds) -> Resolvent:
    bounds = np.asarray(box_bounds, dtype=float)
    if np.any(bounds <= 0):
        raise ValueError("box bounds must be positive")
    if not (radius > 0):
        raise ValueError("ball radius must be positive")
    return Resolvent(kind="ball-box", radius=float(radius), box_bounds=bounds)


def soft_threshold_resolvent(weight: float, theta_dim: int) -> Resolvent:
    if weight < 0:
        raise ValueError("soft-threshold weight must be nonnegative")
    return Resolvent(kind="soft-threshold", weight=float(weight),
                     theta_dim=int(theta_dim))


def apply_resolvent(res: Resolvent, z: np.ndarray, eta: float = 1.0) -> np.ndarray:
    """Evaluate J(z) = (I + eta*T)^{-1}(z).

    eta only matters for proximal kinds (soft-threshold shrinks by
    eta*weight); projections ignore it.
    """
    z = np.asarray(z, dtype=float)
    if res.kind == "identity":
        return z.copy()
    if res.kind == "ball-box":
        out = z.copy()
        nb = len(res.box_bounds)
        head = out[: z.size - nb]
        if np.isfinite(res.radius):
            nrm = float(np.linalg.norm(head))
            if nrm > res.radius:
                head *= res.radius / nrm
        tail = out[z.size - nb:]
        np.clip(tail, -res.box_bounds, res.box_bounds, out=tail)
        return out
    if res.kind == "soft-threshold":
        out = z.copy()
        lam = eta * res.weight
        if lam > 0:
            th = out[: res.theta_dim]
            out[: res.theta_dim] = np.sign(th) * np.maximum(np.abs(th) - lam, 0.0)
        return out
    raise ValueError(f"unknown resolvent kind {res.kind!r}")


# ---------------------------------------------------------------------------
# Problem bundle and the forward-backward residual
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InclusionProblem:
    """Bundles a forward operator, a resolvent for T, and the stepping
    Lipschitz constant L that step sizes and theory cards read."""

    forward: ForwardOperator
    resolvent: Resolvent
    lipschitz: float
    known_solution: Optional[np.ndarray] = None

    @property
    def dim(self) -> int:
        return self.forward.dim

    @property
    def is_finite_sum(self) -> bool:
        return getattr(self.forward, "n", None) is not None

    @property
    def n_components(self) -> int:
        if not self.is_finite_sum:
            raise UnsupportedConfigError("operator is not a finite sum")
        return self.forward.n


def fb_residual(problem: InclusionProblem, eta: float, x: np.ndarray,
                counter: Optional[CallCounter] = None):
    """Forward-backward residual r = (x - J(x - eta*G(x))) / eta.

    x solves the inclusion iff r = 0, which makes ||r|| the convergence
    certificate reported by all runs.  Uses the exact full-batch G, charged
    n to `counter` when one is passed and unmetered otherwise.

    Returns:
        (r, ||r||)
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    x = np.asarray(x, dtype=float)
    gx = eval_full(problem.forward, x, counter=counter)
    r = (x - apply_resolvent(problem.resolvent, x - eta * gx, eta)) / eta
    return r, float(np.linalg.norm(r))
