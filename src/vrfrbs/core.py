"""Composite-inclusion problems: forward operators, resolvents, residuals.

The target problem is to find x with 0 in G(x) + T(x), where G is a
single-valued operator available either as a finite sum (1/n) sum_i G_i(x)
or through a sampling oracle E_xi[G(x, xi)], and T is a possibly multivalued
operator accessed only through its resolvent J(z) = (I + eta*T)^{-1}(z).

Operators and resolvents are immutable after construction and safe to share
between concurrent runs; evaluation counters are owned by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
#
# Every operator's batch_mean(x, idx) takes one point, x of shape (dim,), or
# a stack of P points, x of shape (P, dim).  For a stack, idx holds P
# equal-length batches back to back, batch p belonging to point p, and the
# result is the (P, dim) array of the P batch means.  Either way the cost is
# len(idx) component evaluations.
# ---------------------------------------------------------------------------

def _part_means(batch_mean, x, idx):
    """Batch means of a stack of points, one call per point on its part."""
    m = len(idx) // len(x)
    out = np.empty(x.shape)
    for p, point in enumerate(x):
        out[p] = batch_mean(point, idx[p * m:(p + 1) * m])
    return out


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
        """Mean of the components in `idx` at `x`; for a (P, dim) stack of
        points, one mean per point over its own part of `idx`."""
        if x.ndim == 2:
            return _part_means(self.batch_mean, x, idx)
        # the bits of .mean(axis=0) without its Python-level wrapper
        return np.add.reduce(self.batch_components(x, idx), axis=0) / len(idx)

    def full(self, x: np.ndarray) -> np.ndarray:
        if self.full_eval is not None:
            return self.full_eval(x)
        return self.batch_mean(x, np.arange(self.n))


@dataclass(frozen=True)
class RowOperator:
    """Finite sum whose components are data rows scaled by coefficients.

    G_i(x) = common(x) + sum_k coef_k(x, i) * rows[i, cols_k], where block
    k writes the columns cols_k of row i of the (n, W) data matrix, scaled
    by a scalar coefficient, into out[slot_k].  A block without rows
    (cols_k = None) writes the coefficient itself into the single
    coordinate slot_k.  Blocks may share slots; their contributions add.
    An evaluation gathers the selected rows once, for all blocks and, for a
    stack of points, for all points.

    Args:
        dim: dimension of the variable.
        rows: (n, W) data matrix, one row per component.
        blocks: (slot, cols) pairs; slot is a slice, or an int for a block
            without rows; cols is a column slice of `rows`, or None.
        coefficients: (x, rows, sel) -> one coefficient array per block,
            where rows holds a view of each block's columns of the selected
            rows (None for a block without rows) and sel is the index array
            or slice that selected them, for per-sample data such as
            labels.  For one point x is (dim,), rows (m, w) and each
            coefficient array (m,); for a (P, dim) stack of points rows
            are (P, m, w), sel (P, m) and each coefficient array (P, m).
        full_eval: closed form for the exact mean.  Epoch accounting still
            charges n per full evaluation.
        common: optional term shared by every component; maps a point or a
            stack of points to an array of the same shape.
    """

    dim: int
    rows: np.ndarray
    blocks: Tuple[Tuple[Union[slice, int], Optional[slice]], ...]
    coefficients: Callable[..., Tuple[np.ndarray, ...]]
    full_eval: Callable[[np.ndarray], np.ndarray]
    common: Optional[Callable[[np.ndarray], np.ndarray]] = None
    n: int = field(init=False)   # number of components, len(rows)
    # per block: no common term and no earlier block writes its slot, so
    # an evaluation may write its contribution instead of adding it
    _writes_first: Tuple[bool, ...] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "n", len(self.rows))
        taken = np.zeros(self.dim, dtype=bool)
        if self.common is not None:
            taken[:] = True
        first = []
        for slot, _ in self.blocks:
            first.append(not taken[slot].any())
            taken[slot] = True
        object.__setattr__(self, "_writes_first", tuple(first))

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """I.i.d. uniform component indices, sampled with replacement."""
        return rng.integers(0, self.n, size=size)

    def _select(self, x, sel):
        # take copies the same rows as fancy indexing, with less overhead;
        # a slice stays a view
        picked = self.rows[sel] if isinstance(sel, slice) \
            else self.rows.take(sel, axis=0)
        rows = tuple([None if cols is None else picked[..., cols]
                      for _, cols in self.blocks])
        return rows, self.coefficients(x, rows, sel)

    def batch_components(self, x: np.ndarray, idx: np.ndarray) -> np.ndarray:
        rows, coefs = self._select(x, idx)
        out = np.zeros((len(idx), self.dim))
        if self.common is not None:
            out += self.common(x)
        for (slot, _), R, c, first in zip(self.blocks, rows, coefs,
                                          self._writes_first):
            if R is None:
                out[:, slot] += c
            elif first:
                np.multiply(c[:, None], R, out=out[:, slot])
            else:
                out[:, slot] += c[:, None] * R
        return out

    def batch_mean(self, x: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Mean of the components in `idx` at `x`; for a (P, dim) stack of
        points, one mean per point over its own part of `idx`.

        Every product is one matrix-vector product per point and block, so
        a point's mean has the same bits in a stack as on its own.
        """
        stacked = x.ndim == 2
        m = len(idx) // len(x) if stacked else len(idx)
        if m < self.n // 4:
            # small batches: gathered rows, one matrix-vector product each;
            # a stack gathers its P batches at once as (P, m, W)
            rows, coefs = self._select(
                x, idx.reshape(len(x), m) if stacked else idx)
        elif stacked:
            # one point at a time: the products read all n rows for every
            # point either way, and a stack's (P, n) temporaries measured
            # no faster at n = 2000 and up to 40% slower at n = 125000
            return _part_means(self.batch_mean, x, idx)
        else:
            # large batches: every row weighted by its multiplicity, which
            # reads the blocks sequentially instead of gathering rows
            counts = np.bincount(idx, minlength=self.n).astype(float)
            rows, coefs = self._select(x, slice(None))
            coefs = tuple(counts * c for c in coefs)
        out = np.zeros(x.shape)
        if self.common is not None:
            out += self.common(x)
        for (slot, _), R, c, first in zip(self.blocks, rows, coefs,
                                          self._writes_first):
            if R is None:
                total = c.sum(axis=-1)
            elif stacked:
                # c_p^T R_p for each point p: a (P, 1, m) @ (P, m, w) stack
                # of vector-matrix products
                total = (c[:, None, :] @ R)[:, 0]
            else:
                total = R.T @ c
            if first:
                np.divide(total, m, out=out[..., slot])
            else:
                out[..., slot] += total / m
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
        """Mean over the samples `xi` at `x`; for a (P, dim) stack of
        points, one mean per point over its own part of `xi`."""
        if x.ndim == 2:
            return _part_means(self.batch_mean, x, xi)
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
            # th - clip(th) is sign(th) * max(|th| - lam, 0), up to the
            # sign of zero entries
            th = out[: res.theta_dim]
            th -= th.clip(-lam, lam)
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
