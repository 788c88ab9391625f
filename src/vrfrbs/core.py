"""Composite-inclusion problems: forward operators, resolvents, residuals.

The target problem is to find x with 0 in G(x) + T(x), where G is a
single-valued operator available either as a finite sum (1/n) sum_i G_i(x)
or through a sampling oracle E_xi[G(x, xi)], and T is a possibly multivalued
operator accessed only through its resolvent J(z) = (I + eta*T)^{-1}(z).

Operators and resolvents are immutable after construction and safe to share
between concurrent runs.  Nothing here charges oracle calls: the estimators
charge every evaluation they make, and the residual diagnostic is free.
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
class SampledOperator:
    """G(x) = (1/n) sum_i G_i(x) or G(x) = E_xi[G(x, xi)], evaluated on
    drawn samples: component indices of a finite sum, or oracle samples xi.
    Exactly one of `n` and `sampler` is given.

    Args:
        dim: dimension of the variable (and of every component value).
        batch_components: (x, samples) -> (len(samples), dim) array of the
            component values (duplicates allowed, order preserved).  It is
            deterministic given (x, xi); all randomness lives in the draws.
        n: number of components of a finite sum, drawn i.i.d. uniformly
            with replacement.
        sampler: (rng, size) -> `size` oracle samples.
        full_eval: optional closed form for the exact mean.  Without it a
            finite sum averages all n components and an oracle has no
            exact mean.  Epoch accounting still charges n per full
            evaluation of a finite sum.
    """

    dim: int
    batch_components: Callable[[np.ndarray, np.ndarray], np.ndarray]
    n: Optional[int] = None
    sampler: Optional[Callable[[np.random.Generator, int], np.ndarray]] = None
    full_eval: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if (self.n is None) == (self.sampler is None):
            raise ValueError("a SampledOperator takes exactly one of n "
                             "(finite sum) and sampler (oracle)")

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.sampler is None:
            return rng.integers(0, self.n, size=size)
        return self.sampler(rng, size)

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
        if self.n is None:
            raise UnsupportedConfigError(
                "exact mean evaluation is not available for this oracle")
        return self.batch_mean(x, np.arange(self.n))


@dataclass(frozen=True)
class RowOperator:
    """Finite sum whose components are data rows scaled by coefficients.

    G_i(x) = common(x) + sum_k coef_k(x, i) * rows[i, cols_k], where block
    k writes the columns cols_k of row i of the (n, W) data matrix, scaled
    by a scalar coefficient, into out[slot_k].  The coefficients are
    functions of x and of the scores rows[i, cols_k] . x[part_k] of the
    scored blocks.  A block without rows (cols_k = None) writes the
    coefficient itself into the single coordinate slot_k.  Blocks may
    share slots; their contributions add.  An evaluation gathers the
    selected rows once, for all blocks and, for a stack of points, for
    all points, or reads all n rows in place on the dense path of
    `batch_mean`.  It scores every point with its own matrix-vector
    product, so a point's scores have the same bits in a stack as on
    their own.

    Args:
        dim: dimension of the variable.
        rows: (n, W) data matrix, one row per component.
        blocks: (slot, cols, part) triples; slot is a slice, or an int for
            a block without rows; cols is a column slice of `rows`, or
            None; part is the slice of x that the block's rows are dotted
            with, or None for a block without a score.
        coefficients: (scores, x, sel) -> one coefficient array per block,
            where scores holds each block's scores of the selected rows
            (None for a block without a score) and sel is the index array
            or slice that selected them, for per-sample data such as
            labels.  For one point x is (dim,) and each score and
            coefficient array (m,).  For a (P, dim) stack of points x is
            handed over coordinate-major as (dim, P, 1), so that x[k] is
            a (P, 1) column; sel is (P, m) and each score and coefficient
            array (P, m).  On the dense path sel is slice(None) and m is
            n, for one point and for a stack.  An elementwise formula
            serves all of these.
        full_eval: closed form for the exact mean.  Epoch accounting still
            charges n per full evaluation.
        common: optional term shared by every component; maps a point or a
            stack of points to an array of the same shape.
    """

    dim: int
    rows: np.ndarray
    blocks: Tuple[Tuple[Union[slice, int], Optional[slice], Optional[slice]],
                  ...]
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
        for slot, _, _ in self.blocks:
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
        stacked = x.ndim == 2
        rows, scores = [], []
        for _, cols, part in self.blocks:
            R = None if cols is None else picked[..., cols]
            rows.append(R)
            if part is None:
                scores.append(None)
            elif stacked:
                # (P, m, w) @ (P, w, 1), or the dense path's (n, w) rows
                # against it: one matrix-vector product per point
                scores.append((R @ x[:, part, None])[..., 0])
            else:
                scores.append(R @ x[part])
        # a stack coordinate-major, (dim, P, 1): x[k] is then a (P, 1)
        # column against (P, m) scores, as it is a number for one point
        # (a (1,) or 0-d array there would cost a ufunc call per use)
        return rows, self.coefficients(
            scores, x.T[..., None] if stacked else x, sel)

    def batch_components(self, x: np.ndarray, idx: np.ndarray) -> np.ndarray:
        rows, coefs = self._select(x, idx)
        out = np.zeros((len(idx), self.dim))
        if self.common is not None:
            out += self.common(x)
        for (slot, _, _), R, c, first in zip(self.blocks, rows, coefs,
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

        Scores are one matrix-vector product per point and block.  So are
        the weighted sums on the gather path (m < n // 4), where a point's
        mean has the same bits in a stack as on its own; a dense stack
        sums each block in one (P, n) @ (n, w) product, which moves the
        bits of its means at rounding level.
        """
        stacked = x.ndim == 2
        m = len(idx) // len(x) if stacked else len(idx)
        if m < self.n // 4:
            # small batches: gathered rows, one matrix-vector product each;
            # a stack gathers its P batches at once as (P, m, W)
            rows, coefs = self._select(
                x, idx.reshape(len(x), m) if stacked else idx)
        else:
            # large batches: every row weighted by its multiplicity in each
            # point's part, which reads the blocks sequentially instead of
            # gathering rows; one bincount per part, as the parts may differ
            parts = idx.reshape(len(x), m) if stacked else idx[None]
            counts = np.empty((len(parts), self.n))
            for p, part in enumerate(parts):
                counts[p] = np.bincount(part, minlength=self.n)
            rows, coefs = self._select(x, slice(None))
            coefs = tuple((counts if stacked else counts[0]) * c
                          for c in coefs)
        out = np.zeros(x.shape)
        if self.common is not None:
            out += self.common(x)
        for (slot, _, _), R, c, first in zip(self.blocks, rows, coefs,
                                             self._writes_first):
            if R is None:
                total = c.sum(axis=-1)
            elif R.ndim == 3:
                # a gathered stack: c_p^T R_p for each point p, a
                # (P, 1, m) @ (P, m, w) stack of vector-matrix products
                total = (c[:, None, :] @ R)[:, 0]
            else:
                # (P, n) @ (n, w) for a dense stack; for one point the
                # vector-matrix product R.T @ c, with the same bits
                total = c @ R
            if first:
                np.divide(total, m, out=out[..., slot])
            else:
                out[..., slot] += total / m
        return out

    def full(self, x: np.ndarray) -> np.ndarray:
        return self.full_eval(x)


ForwardOperator = Union[SampledOperator, RowOperator]


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
        return self.forward.n is not None

    @property
    def n_components(self) -> int:
        if not self.is_finite_sum:
            raise UnsupportedConfigError("operator is not a finite sum")
        return self.forward.n


def fb_residual(problem: InclusionProblem, eta: float, x: np.ndarray):
    """Forward-backward residual r = (x - J(x - eta*G(x))) / eta.

    x solves the inclusion iff r = 0, which makes ||r|| the convergence
    certificate reported by all runs.  Uses the exact full-batch G, which
    is a diagnostic and charged to no run.

    Returns:
        (r, ||r||)
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.dim,):
        raise ValueError(f"dimension mismatch: expected ({problem.dim},), "
                         f"got {x.shape}")
    gx = problem.forward.full(x)
    r = (x - apply_resolvent(problem.resolvent, x - eta * gx, eta)) / eta
    return r, float(np.linalg.norm(r))
