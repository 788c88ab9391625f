"""Stochastic estimators of the forward-reflected direction.

The solver needs, at iteration k, an estimate of

    S_k = 2 G(x_k) - G(x_{k-1})

(with the convention x_{-1} = x_{-2} = x_0).  Seven constructions are
provided through one uniform step interface:

    full   exact evaluation (no randomness)
    sgd    plain mini-batch on both points, optionally with an increasing
           or adaptively chosen batch size
    svrg   loopless SVRG: a cached anchor value at a snapshot point that is
           refreshed with probability p_switch, corrected by mini-batches
    saga   per-component table of stored values, refreshed b rows per step
    sarah  recursive difference estimator, reset to an exact/mega-batch
           evaluation with probability p_switch (biased)
    hsgd   convex blend of the sarah recursion with a plain mini-batch
           term, weight omega (biased)
    hsvrg  convex blend of the sarah recursion with an svrg term (biased)

Every estimator reports the exact number of component/oracle evaluations it
performs; values computed once inside a single step formula are reused
within that formula but never across iterations (batches differ), except
the exact G(x_k) an exact sarah reset keeps for a reset at the next step.

`theory_card` returns the contraction/variance constants (tau, kappa,
Theta, Theta_hat, delta_k) each construction is known to satisfy, consumed
by the step-size validators in `solver`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Union

import numpy as np

from .core import (InclusionProblem, UnsupportedConfigError, _check_positive,
                   _finite_positive)

FULL = "full"
SGD = "sgd"
SVRG = "svrg"
SAGA = "saga"
SARAH = "sarah"
HSGD = "hsgd"
HSVRG = "hsvrg"

KINDS = (FULL, SGD, SVRG, SAGA, SARAH, HSGD, HSVRG)
UNBIASED_KINDS = (FULL, SGD, SVRG, SAGA)
BIASED_KINDS = (SARAH, HSGD, HSVRG)

_NEEDS_SWITCH = (SVRG, SARAH, HSVRG)
_NEEDS_OMEGA = (HSGD, HSVRG)


@dataclass
class EstimatorParams:
    """Knobs shared by all estimator kinds; unused fields are ignored.

    b: mini-batch size (>= 1; <= n on finite sums; may be fractional when
        only the theory-card formulas are evaluated).
    b_schedule: k -> b_k for the increasing-batch sgd variant.
    p_switch: snapshot/reset probability in (0, 1]; 1 is the deterministic
        extreme (refresh every step).
    omega: blend weight in (0, 1] for the hybrid variants.
    mega_batch: "exact" for full-batch anchor evaluations (finite sums), or
        an integer sample size for mega-batch anchors (oracles; at most n
        on a finite sum).
    share_batches: hybrids reuse the recursion batch for the blended term
        (True, the default) or draw an independent one.
    sigma2: oracle variance bound, used by the adaptive sgd rule and by the
        theory-card delta_k formulas.
    """

    b: Union[int, float] = 1
    b_schedule: Optional[Callable[[int], int]] = None
    p_switch: Optional[float] = None
    omega: Optional[float] = None
    mega_batch: Union[int, str] = "exact"
    share_batches: bool = True
    sigma2: float = 0.0


@dataclass
class TheoryCard:
    """Constants certifying the variance-reduction recursion of a kind.

    Unbiased kinds satisfy  E[e_k | F_k] = 0  and
        E[Delta_k | F_k] <= (1 - kappa) Delta_{k-1}
            + Theta ||x_k - x_{k-1}||^2 + Theta_hat ||x_{k-1} - x_{k-2}||^2
            + delta_k,
    with E[||e_k||^2 | F_k] <= E[Delta_k | F_k].  Biased kinds replace the
    first line by E[e_k | F_k] = (1 - tau) e_{k-1}.
    """

    tau: float
    kappa: float
    theta: float
    theta_hat: float
    delta_k: Callable[[int], float]
    biased: bool


@dataclass
class EstimatorState:
    """Mutable per-run state; exclusively owned by a single run.  `calls`
    is the run's oracle-call count: every evaluation the estimator makes
    is charged to it, and nothing else is."""

    kind: str
    params: EstimatorParams
    problem: InclusionProblem
    x0: np.ndarray
    rng: np.random.Generator
    k: int = 0
    s_tilde: Optional[np.ndarray] = None
    calls: int = 0
    init_calls: int = 0
    # svrg-style snapshot (svrg, hsvrg)
    snapshot: Optional[np.ndarray] = None
    snapshot_tag: int = -10  # iterate index the snapshot copies, -10 = x0
    anchor_value: Optional[np.ndarray] = None
    # saga table
    table: Optional[np.ndarray] = None
    table_mean: Optional[np.ndarray] = None
    # exact value kept between sarah's exact resets: (iterate index, value)
    last_full: Optional[tuple] = None
    # indices drawn but not yet used, for the kinds that draw ahead (see
    # `_draw_batch`); None for the kinds that draw per step
    ahead: Optional[np.ndarray] = None

    def clone(self, rng: np.random.Generator) -> "EstimatorState":
        """Independent copy with its own RNG stream (Monte-Carlo trials).
        A step rebinds every array it changes except the saga table, which
        it writes in place, so only the table is copied."""
        return replace(
            self, rng=rng,
            table=None if self.table is None else self.table.copy(),
            # the clone draws from its own generator
            ahead=None if self.ahead is None else _NOTHING_AHEAD)


_SAGA_RESYNC_EVERY = 512

# saga and hsgd on finite sums draw nothing but batch indices, so they draw
# them _DRAW_CHUNK at a time (see `_draw_batch`)
_DRAWS_AHEAD = (SAGA, HSGD)
_DRAW_CHUNK = 4096
_NOTHING_AHEAD = np.empty(0, dtype=np.int64)


def _check_n(n) -> None:
    """n is None (an oracle) or a component count."""
    if n is not None and not (isinstance(n, (int, np.integer))
                              and _finite_positive(n)):
        raise ValueError(f"n = {n!r} must be None or an integer >= 1")


def _check_rates(kind: str, params: EstimatorParams) -> None:
    """The parameters the theory formulas read: b > 0 for every kind but
    full (they divide by it), p_switch and omega, for the kinds that read
    them, in (0, 1], mega_batch 'exact' or an integer >= 1, and sigma2 a
    finite number >= 0."""
    if kind != FULL and not _finite_positive(params.b):
        raise ValueError(f"b = {params.b!r} must be > 0 for {kind}")
    for name in ("p_switch",) * (kind in _NEEDS_SWITCH) \
            + ("omega",) * (kind in _NEEDS_OMEGA):
        value = getattr(params, name)
        if not (_finite_positive(value) and value <= 1.0):
            raise ValueError(f"{name} = {value!r} must be in (0, 1] "
                             f"for {kind}")
    mega = params.mega_batch
    if not (mega == "exact" or (isinstance(mega, (int, np.integer))
                                and not isinstance(mega, bool) and mega >= 1)):
        raise ValueError(
            f"mega_batch = {mega!r} must be 'exact' or an integer >= 1")
    s2 = params.sigma2
    if not (s2 == 0 or _finite_positive(s2)):
        raise ValueError(f"sigma2 = {s2!r} must be a finite number >= 0")


def _over(num: float, den: float) -> float:
    """num / den in a theory formula, whose denominator is a product of
    positive parameters: one that underflows to 0 is an infinite bound."""
    return num / den if den else math.inf


def _check_card_args(kind: str, params: EstimatorParams, L, n) -> None:
    _check_rates(kind, params)
    _check_positive("L", L)
    _check_n(n)


def check_params(kind: str, params: EstimatorParams,
                 n: Optional[int]) -> None:
    """The one check of estimator parameters, on a finite sum of `n`
    components or on an oracle (`n` None).  A ValueError's message starts
    with the field it names; a kind that needs a finite sum raises
    UnsupportedConfigError on an oracle."""
    if kind not in KINDS:
        raise ValueError(f"unknown estimator kind {kind!r}")
    b, mega = params.b, params.mega_batch
    if not (_finite_positive(b) and b >= 1):
        raise ValueError(f"b = {b!r} must be >= 1")
    if n is not None and b > n:
        raise ValueError(f"b = {b!r} must be <= n = {n}")
    _check_rates(kind, params)
    if kind == SAGA and n is None:
        raise UnsupportedConfigError(
            "saga needs a finite-sum operator (no table for oracles)")
    if kind == FULL and n is None:
        raise UnsupportedConfigError(
            "full needs a finite-sum operator (an exact mean costs n calls)")
    if mega == "exact":
        if kind in (SVRG, SARAH, HSGD, HSVRG) and n is None:
            raise UnsupportedConfigError(
                f"{kind} with an exact anchor needs a finite-sum operator; "
                "set mega_batch to an integer for oracles")
    elif n is not None and mega > n:
        raise ValueError(f"mega_batch = {mega} must be <= n = {n}; "
                         "use 'exact'")


# ---------------------------------------------------------------------------
# Step evaluation.  `_plan_draws` materializes a step's randomness in `draws`
# first, so one deterministic core serves the RNG path, the verification
# module's exact enumeration of every outcome, and its Monte-Carlo checks,
# which evaluate many independent draws of one step along a trial axis.
# ---------------------------------------------------------------------------

class _StepEval:
    """The one route from a step formula to the forward operator.

    Every evaluation is charged as it is made: one call per sample for
    batch values, n for an exact mean.  `trials` is None for one step with
    1-D draws, or the number T of trials whose samples are batch-major
    (b, T, ...) arrays (see `_draw_batch`); batch values are then
    (b, T, dim) and batch means (T, dim).  A mean reduces the leading batch
    axis, which numpy sums row after row, in the same order as a reduction
    over the middle axis of (T, b, dim) and several times faster; a
    one-sample batch's mean is its sample row, which is what the reduction
    and the division by 1 would give.
    """

    def __init__(self, state: EstimatorState, trials: Optional[int] = None):
        self.st = state
        self.op = state.problem.forward
        self.calls = 0
        self.trials = trials

    def mean(self, point: np.ndarray, idx) -> np.ndarray:
        """Batch mean at `point`, charged one call per sample."""
        if self.trials is None:
            self.calls += len(idx)
            return self.op.batch_mean(point, idx)
        rows = self.components(point, idx)
        if len(idx) == 1:
            return rows[0]
        total = np.add.reduce(rows, axis=0)
        total /= len(idx)
        return total

    def means(self, points, idx):
        """Batch means at each of `points` on the same batch, charged one
        call per point and sample.  One step asks the operator for all of
        them in one stacked call and gets a (P, dim) array; with trials
        each point is evaluated as `mean` does."""
        if self.trials is not None:
            return [self.mean(point, idx) for point in points]
        self.calls += len(points) * len(idx)
        return self.op.batch_mean(np.array(points),
                                  np.concatenate((idx,) * len(points)))

    def components(self, point: np.ndarray, idx) -> np.ndarray:
        """Per-sample values at `point`, charged one call per sample; with
        trials, one evaluation of the flattened (b, T) batch reshaped to
        (b, T, dim)."""
        if self.trials is None:
            self.calls += len(idx)
            return self.op.batch_components(point, idx)
        flat = idx.reshape((-1,) + idx.shape[2:])
        self.calls += len(flat)
        rows = self.op.batch_components(point, flat)
        return rows.reshape(idx.shape[:2] + rows.shape[1:])

    def full(self, point: np.ndarray, tag: Optional[int] = None) -> np.ndarray:
        """Exact mean at `point`, charged n.  `tag` is the index of the
        iterate `point` is: the value is then kept in the state, and a value
        already kept under the same tag is returned without evaluating."""
        st = self.st
        if tag is not None and st.last_full is not None \
                and st.last_full[0] == tag:
            return st.last_full[1]
        value = self.op.full(point)
        self.calls += self.op.n
        if tag is not None:
            st.last_full = (tag, value)
        return value


def _draw_batch(state: EstimatorState, size: int,
                trials: Optional[int] = None):
    """`size` samples, or `size * trials` samples drawn in one call, of which
    trial t owns rows [t * size, (t + 1) * size) of the stream, returned as
    a batch-major (size, trials, ...) view: column t is trial t's batch.

    A state that draws ahead serves one step's samples from indices it drew
    earlier, refilled at least _DRAW_CHUNK at a time.  Consecutive
    `Generator.integers(0, n, size=m)` calls give the same stream as one
    call of their summed size, so the batches are those of per-step draws.
    """
    size = int(size)
    op = state.problem.forward
    if trials is not None:
        sample = op.draw(state.rng, trials * size)
        return sample.reshape((trials, size) + sample.shape[1:]).swapaxes(0, 1)
    ahead = state.ahead
    if ahead is None:
        return op.draw(state.rng, size)
    if len(ahead) < size:
        ahead = np.concatenate(
            (ahead, op.draw(state.rng, max(size, _DRAW_CHUNK))))
    state.ahead = ahead[size:]
    return ahead[:size]


def _sgd_batch_size(state: EstimatorState, x, x1, x2) -> int:
    pm = state.params
    if pm.b_schedule is not None:
        b = int(pm.b_schedule(state.k))
    elif pm.sigma2 > 0.0:
        # adaptive rule: b_k >= sigma^2 / (L^2/2 dx^2 + L^2/2 dx'^2 + delta_k)
        L2 = state.problem.lipschitz ** 2
        delta = L2 / (state.k + 1) ** 2
        denom = 0.5 * L2 * float(np.dot(x - x1, x - x1)) \
            + 0.5 * L2 * float(np.dot(x1 - x2, x1 - x2)) + delta
        b = math.ceil(pm.sigma2 / denom) if denom > 0 else int(pm.b)
    else:
        b = int(pm.b)
    b = max(1, b)
    if state.problem.is_finite_sum:
        b = min(b, state.problem.n_components)
    return b


def _plan_draws(state: EstimatorState, x, x1, x2, coin, batch) -> dict:
    """The one declaration of each kind's draws, in a fixed order: switch
    coin, mega sample, recursion batch, blended batch.  Each is asked of
    `coin(state, p)` (a Bernoulli(p) outcome) or `batch(state, size)`.  A
    draw that depends on the coin is made unless it came out False, so a
    trial-batched step, whose coins are an array, makes every draw."""
    kind, pm = state.kind, state.params
    draws: dict = {}
    if kind in _NEEDS_SWITCH:
        up = draws["coin"] = coin(state, pm.p_switch)
        if pm.mega_batch != "exact" and up is not False:
            draws["mega"] = batch(state, pm.mega_batch)
    if kind == FULL:
        return draws
    if kind == SGD:
        draws["batch"] = batch(state, _sgd_batch_size(state, x, x1, x2))
        return draws
    if kind == SARAH and draws["coin"] is True:
        return draws
    draws["batch"] = batch(state, int(pm.b))
    if kind in (HSGD, HSVRG):
        draws["batch_hat"] = draws["batch"] if pm.share_batches \
            else batch(state, int(pm.b))
    return draws


def _coin(state: EstimatorState, p: float) -> bool:
    return bool(state.rng.random() < p)


def _make_draws(state: EstimatorState, x, x1, x2,
                trials: Optional[int] = None) -> dict:
    """This step's draws from the state's stream.  With `trials` = T every
    draw gets a trial axis: coins are (T,) and samples batch-major
    (size, T, ...), so trial t's draws are `coin[t]` and `batch[:, t]`, each
    one call on the stream for all T trials."""
    if trials is None:
        return _plan_draws(state, x, x1, x2, _coin, _draw_batch)
    return _plan_draws(state, x, x1, x2,
                       lambda st, p: st.rng.random(trials) < p,
                       lambda st, size: _draw_batch(st, size, trials))


def _anchor_at(ev: _StepEval, point: np.ndarray, draws: dict) -> np.ndarray:
    """Anchor value of a snapshot taken at x_{k-1} (`point`)."""
    if ev.st.params.mega_batch == "exact":
        return ev.full(point)
    return ev.mean(point, draws["mega"])


def _select(coin, on_coin, otherwise):
    """Per-trial choice between the two branch values of a coin; None marks
    a branch no trial takes."""
    if on_coin is None:
        return otherwise
    if otherwise is None:
        return on_coin
    return np.where(coin[:, None], on_coin, otherwise)


def _snapshot_coin(ev: _StepEval, x1: np.ndarray, draws: dict):
    """Apply the snapshot coin.

    One step moves the state's snapshot to x_{k-1} when its coin comes up
    and returns None.  A trial-batched step leaves the state alone and
    returns (coin, anchor value at x_{k-1}) for `_svrg_term`, or None when
    no trial refreshes.
    """
    coin = draws["coin"]
    st = ev.st
    if ev.trials is None:
        if coin:
            st.snapshot = np.array(x1, copy=True)
            st.snapshot_tag = st.k - 1
            st.anchor_value = _anchor_at(ev, st.snapshot, draws)
        return None
    if not coin.any():
        return None
    return coin, _anchor_at(ev, x1, draws)


def _snapshot_points(st: EstimatorState) -> tuple:
    """The snapshot w as a point to evaluate on the step's batch, or no
    point when it was taken at x_{k-1}: G_B(w) is then G_B(x_{k-1})."""
    return () if st.snapshot_tag == st.k - 1 else (st.snapshot,)


def _svrg_term(ev: _StepEval, two_gx, gx1, gw, refresh=None) -> np.ndarray:
    """anchor - G_B(w) + 2 G_B(x_k) - G_B(x_{k-1}) at the snapshot w, from
    `two_gx` = 2 G_B(x_k), the batch mean `gx1` at x_{k-1} and `gw` at w (a
    list with the batch mean of `_snapshot_points`, or empty when
    w = x_{k-1}).

    `refresh` is what `_snapshot_coin` returned: in a trial-batched step
    the trials whose coin came up use w = x_{k-1} and its new anchor value.
    """
    st = ev.st
    gw = gw[0] if gw else gx1
    anchor = st.anchor_value
    if refresh is not None:
        coin, new_anchor = refresh
        anchor = _select(coin, new_anchor, anchor)
        gw = _select(coin, gx1, gw)
    return anchor - gw + two_gx - gx1


def _exact_direction(ev: _StepEval, x, x1) -> np.ndarray:
    """2 G(x_k) - G(x_{k-1}) for sarah's exact resets, keeping G(x_k) for
    the next step."""
    k = ev.st.k
    if np.array_equal(x, x1):
        return ev.full(x, tag=k)
    # x1 first: it may hit the value kept at the previous step; the kept
    # slot then ends up holding the newest iterate's value
    gx1 = ev.full(x1, tag=k - 1)
    gx = ev.full(x, tag=k)
    return 2.0 * gx - gx1


def _first_occurrences(idx):
    """The sorted distinct indices of a non-empty batch and each one's
    first position in it, as np.unique(idx, return_index=True) gives them
    but without its per-call overhead.  saga stores the first occurrence's
    row: rows of a repeated index may differ in the last bit by position.
    """
    order = idx.argsort(kind="stable")
    srt = idx.take(order)
    keep = np.empty(len(srt), dtype=bool)
    keep[0] = True
    np.not_equal(srt[1:], srt[:-1], out=keep[1:])
    return srt[keep], order[keep]


def _weighted_sums(W, rows):
    """W @ rows over the leading batch axis of (b, dim) rows, or of a
    trial-batched (b, T, dim) array in one matrix product for all trials."""
    if rows.ndim == 2:
        return W @ rows
    sums = W @ rows.reshape(len(rows), -1)
    return sums.reshape((len(W),) + rows.shape[1:])


def _apply_step(state: EstimatorState, x, x1, x2, draws: dict,
                trials: Optional[int] = None):
    """Evaluate S_tilde at step state.k from materialized draws.

    Returns (value, calls).  With 1-D draws (`trials` None) this is one
    step: it mutates snapshot/table/kept-value state.  With draws from
    `_make_draws(..., trials=T)` it evaluates T independent outcomes of the
    same step and returns a (T, dim) value: every batch-major (b, T) batch
    is evaluated for all trials in one oracle call and averaged over its
    leading axis, coin branches become per-trial selections,
    and an exact evaluation (snapshot refresh, sarah reset) runs once for
    all trials.  The trials' futures differ, so a batched step leaves the
    snapshot and the saga table as they were.

    Each batch mean is evaluated once and held in a local: the snapshot
    term reuses G_B(x_{k-1}) right after a refresh, and shared hybrid
    batches reuse the recursion's G_B(x_k) and G_B(x_{k-1}).  The points
    evaluated on one batch go to the operator in one stacked call.

    saga's table bookkeeping is two matrix products, W @ old on the table's
    gathered rows and W @ comp on the new component rows, whose row 0
    (weights 1/b) gives the batch means and row 1 (1/n at each index's
    first position) the running mean's change; a trial-batched step takes
    row 0 only.  BLAS sums in its own order, so these match the
    np.add.reduce sums only to rounding (3e-15 relative over 2000 pe-desk
    steps); the running mean is recomputed from the table every
    _SAGA_RESYNC_EVERY steps.
    """
    kind, pm = state.kind, state.params
    ev = _StepEval(state, trials)

    if kind == FULL:
        gx = ev.full(x)
        gx1 = ev.full(x1)
        value = 2.0 * gx - gx1

    elif kind == SGD:
        gx, gx1 = ev.means((x, x1), draws["batch"])
        value = 2.0 * gx - gx1

    elif kind == SVRG:
        refresh = _snapshot_coin(ev, x1, draws)
        gx, gx1, *gw = ev.means((x, x1) + _snapshot_points(state),
                                draws["batch"])
        value = _svrg_term(ev, 2.0 * gx, gx1, gw, refresh)

    elif kind == SAGA:
        idx = draws["batch"]
        comp_x1 = ev.components(x1, idx)
        gx = ev.mean(x, idx)
        b = len(idx)
        old = state.table.take(idx, axis=0)
        # W's row 0 averages a batch; in one step its row 1 puts 1/n at each
        # index's first position, whose rows replace table[uniq] = old[first]
        W = np.zeros((2 if trials is None else 1, b))
        W[0] = 1.0 / b
        if trials is None:
            uniq, first = _first_occurrences(idx)
            W[1, first] = 1.0 / state.problem.n_components
        O, C = _weighted_sums(W, old), _weighted_sums(W, comp_x1)
        value = state.table_mean - O[0] + 2.0 * gx - C[0]
        if trials is None:
            state.table_mean = state.table_mean + (C[1] - O[1])
            state.table[uniq] = comp_x1.take(first, axis=0)
            if state.k % _SAGA_RESYNC_EVERY == 0:
                state.table_mean = state.table.mean(axis=0)

    elif kind == SARAH:
        coin = draws["coin"]
        if trials is None:
            some_reset, some_stay = coin, not coin
        else:
            some_reset, some_stay = coin.any(), not coin.all()
        reset = stay = None
        if some_reset:
            if pm.mega_batch == "exact":
                reset = _exact_direction(ev, x, x1)
            else:
                gx, gx1 = ev.means((x, x1), draws["mega"])
                reset = 2.0 * gx - gx1
        if some_stay:
            gx, gx1, gx2 = ev.means((x, x1, x2), draws["batch"])
            stay = state.s_tilde + (2.0 * gx - 3.0 * gx1 + gx2)
        value = _select(coin, reset, stay)

    elif kind in (HSGD, HSVRG):
        refresh = _snapshot_coin(ev, x1, draws) if kind == HSVRG else None
        w_points = _snapshot_points(state) if kind == HSVRG else ()
        shared = pm.share_batches
        # a shared batch serves the blended term too: G_B(w) joins the
        # recursion's call, and G_B(x_k), G_B(x_{k-1}) are reused
        gx, gx1, gx2, *gw = ev.means(
            (x, x1, x2) + (w_points if shared else ()), draws["batch"])
        two_gx = 2.0 * gx
        rec = state.s_tilde + (two_gx - 3.0 * gx1 + gx2)
        if not shared:
            gx, gx1, *gw = ev.means((x, x1) + w_points, draws["batch_hat"])
            two_gx = 2.0 * gx
        if kind == HSGD:
            blend = two_gx - gx1
        else:
            blend = _svrg_term(ev, two_gx, gx1, gw, refresh)
        w = pm.omega
        value = (1.0 - w) * rec + w * blend

    if trials is not None and value.ndim == 1:
        # full and all-reset sarah values are shared by every trial
        value = np.broadcast_to(value, (trials, state.problem.dim))
    return value, ev.calls


def make_estimator(kind: str, params: EstimatorParams,
                   problem: InclusionProblem, x0, seed) -> EstimatorState:
    """Build estimator state and the initial direction estimate.

    With x_{-1} = x_{-2} = x_0 the true initial direction is S_0 = G(x_0);
    finite-sum/exact configurations compute it exactly (n calls: table fill
    for saga, anchor evaluation for the svrg family, one full evaluation
    otherwise), mega-batch configurations estimate it from mega_batch
    samples, and plain sgd uses its first mini-batch.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (problem.dim,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({problem.dim},)")
    check_params(kind, params, problem.forward.n)
    rng = np.random.default_rng(seed)
    st = EstimatorState(kind=kind, params=params, problem=problem,
                        x0=x0.copy(), rng=rng)
    if kind in _DRAWS_AHEAD and problem.is_finite_sum:
        st.ahead = _NOTHING_AHEAD
    ev = _StepEval(st)
    exact = params.mega_batch == "exact"

    if kind == SAGA:
        rows = ev.components(x0, np.arange(problem.forward.n))
        st.table = np.array(rows, dtype=float)
        st.table_mean = st.table.mean(axis=0)
        st.s_tilde = st.table_mean.copy()
    elif kind == SGD:
        b0 = _sgd_batch_size(st, x0, x0, x0)
        st.s_tilde = ev.mean(x0, _draw_batch(st, b0))
    else:  # G(x0) exactly or from a mega-batch sample
        st.s_tilde = ev.full(x0, tag=0) if kind == FULL or exact \
            else ev.mean(x0, _draw_batch(st, params.mega_batch))
        if kind in (SVRG, HSVRG):
            st.snapshot, st.snapshot_tag = x0.copy(), 0
            st.anchor_value = st.s_tilde.copy()

    st.calls = st.init_calls = ev.calls
    return st


def estimator_step(state: EstimatorState, x_k, x_km1, x_km2):
    """Advance one iteration: return (S_tilde_k, calls made this step).

    The three points must be the solver's rolling (x_k, x_{k-1}, x_{k-2});
    randomness is drawn from the state's own stream in a fixed order, so a
    run is reproducible from its seed.
    """
    x_k = np.asarray(x_k, dtype=float)
    x_km1 = np.asarray(x_km1, dtype=float)
    x_km2 = np.asarray(x_km2, dtype=float)
    state.k += 1
    draws = _make_draws(state, x_k, x_km1, x_km2)
    value, calls = _apply_step(state, x_k, x_km1, x_km2, draws)
    state.s_tilde = value
    state.calls += calls
    return value, calls


# ---------------------------------------------------------------------------
# Theory cards, parameter defaults, sizing rules
# ---------------------------------------------------------------------------

def _hybrid_c(params: EstimatorParams) -> float:
    return 2.0 if params.share_batches else 1.0


def theory_card(kind: str, params: EstimatorParams, L: float,
                n: Optional[int] = None) -> TheoryCard:
    """Variance-reduction constants for the given kind and parameters.

    Mega-batch anchors use the balance weight mu = 1 in their constants.
    delta_k formulas rely on params.sigma2 (0 when no bound is supplied).
    """
    _check_card_args(kind, params, L, n)
    L2 = L * L
    b = params.b
    s2 = params.sigma2
    zero = (lambda k: 0.0)

    if kind == FULL:
        return TheoryCard(1.0, 1.0, 0.0, 0.0, zero, biased=False)

    if kind == SGD:
        if params.b_schedule is not None and s2 > 0:
            delta = (lambda k: s2 / params.b_schedule(k))
        else:
            delta = (lambda k: s2 / b if s2 > 0 else 0.0)
        return TheoryCard(1.0, 1.0, 0.5 * L2, 0.5 * L2, delta, biased=False)

    if kind == SVRG:
        p = params.p_switch
        if params.mega_batch == "exact":
            return TheoryCard(1.0, p / 2.0, _over(16.0 * L2, b * p),
                              _over(4.0 * L2, b * p), zero, biased=False)
        nk = int(params.mega_batch)
        return TheoryCard(1.0, p / 2.0, _over(32.0 * L2, b * p),
                          _over(8.0 * L2, b * p), (lambda k: p * s2 / nk),
                          biased=False)

    if kind == SAGA:
        if n is None:
            raise ValueError("saga theory card needs n")
        return TheoryCard(1.0, b / (2.0 * n), _over(16.0 * L2 * n, b * b),
                          _over(4.0 * L2 * n, b * b), zero, biased=False)

    if kind == SARAH:
        p = params.p_switch
        theta = 8.0 * (1.0 - p) * L2 / b
        theta_hat = 2.0 * (1.0 - p) * L2 / b
        if params.mega_batch == "exact":
            delta = zero
        else:
            nk = int(params.mega_batch)
            delta = (lambda k: p * s2 / nk)
        return TheoryCard(p, p, theta, theta_hat, delta, biased=True)

    if kind == HSGD:
        w = params.omega
        C = _hybrid_c(params)
        theta = 8.0 * C * (1.0 - w) ** 2 * L2 / b
        theta_hat = 2.0 * C * (1.0 - w) ** 2 * L2 / b
        # blended mini-batch term has per-sample variance at most 10 sigma^2
        delta = (lambda k: C * w * w * 10.0 * s2 / b if s2 > 0 else 0.0)
        return TheoryCard(w, w * (2.0 - w), theta, theta_hat, delta, biased=True)

    if kind == HSVRG:
        w = params.omega
        p = params.p_switch
        C = _hybrid_c(params)
        b_hat = b  # blended batch has the same size
        mu = 0.0 if params.mega_batch == "exact" else 1.0
        # p^2 underflows below p ~ 1e-162
        inner = C * (1.0 - w) ** 2 / b \
            + _over(8.0 * (1.0 + mu) * w * w, b_hat * p * p)
        if params.mega_batch == "exact":
            delta = zero
        else:
            nk = int(params.mega_batch)
            delta = (lambda k: 2.0 * (1.0 + mu) * w * w * s2 / (mu * nk))
        return TheoryCard(w, min(w * (2.0 - w), p / 4.0),
                          8.0 * L2 * inner, 2.0 * L2 * inner, delta, biased=True)

    raise ValueError(f"unknown estimator kind {kind!r}")


def sizing_rule_sides(kind: str, params: EstimatorParams, L: float,
                      n: Optional[int] = None):
    """(lhs, rhs) of the conservative inequality used to size parameters.

    This is the design rule behind `default_params(profile="theory")`: the
    step-size condition with the bookkeeping simplifications used when the
    batch sizes were derived (kappa halved for sarah, (1-p) and (1-omega)^2
    factors dropped).  lhs >= rhs means the sized parameters are admissible.
    The rule is tight (lhs/rhs = 1 up to the ceiling of b) at the theory
    profile's unclamped batches for svrg, saga and sarah only.  hsgd's
    batch keeps the (1-omega)^2 factor that the rule drops, so there
    lhs/rhs = (1-omega)^2 (0.988785 at n = 10^9).  hsvrg's batch
    112640 n^{3/4} is clamped to n for every n below about 1.6e20, and
    the rule fails there.
    """
    _check_card_args(kind, params, L, n)
    L2 = L * L
    b = params.b
    if kind == FULL:
        return L2, 0.0
    if kind == SGD:
        return L2, L2
    if kind == SVRG:
        p = params.p_switch
        scale = 1.0 if params.mega_batch == "exact" else 2.0
        return (p / 2.0) * L2, _over(scale * 20.0 * L2, b * p)
    if kind == SAGA:
        if n is None:
            raise ValueError("saga sizing rule needs n")
        return (b / (2.0 * n)) * L2, _over(20.0 * L2 * n, b * b)
    if kind == SARAH:
        p = params.p_switch
        return 2.0 * L2 * p ** 3, 220.0 * L2 / b
    if kind == HSGD:
        w = params.omega
        return 4.0 * L2 * w ** 3 * (2.0 - w), 220.0 * _hybrid_c(params) * L2 / b
    if kind == HSVRG:
        w = params.omega
        p = params.p_switch
        return (4.0 * L2 * w ** 3 * (2.0 - w),
                440.0 * L2 * (1.0 / b + _over(4.0 * w * w, b * p * p)))
    raise ValueError(f"unknown estimator kind {kind!r}")


def increasing_batch_schedule(n: int,
                              coeff: float = 0.01) -> Callable[[int], int]:
    """b_k = min(n, max(1, floor(coeff * n * (k+1)^0.75)))."""
    def schedule(k: int) -> int:
        return int(min(n, max(1, math.floor(coeff * n * (k + 1) ** 0.75))))
    return schedule


def default_params(kind: str, n: Optional[int] = None,
                   epsilon: Optional[float] = None,
                   profile: str = "experiment") -> EstimatorParams:
    """Stock parameter choices on a finite sum of `n` components, or on an
    oracle (the expectation setting) when `n` is None.

    profile="experiment" reproduces the benchmark settings (b = floor(0.5
    n^{2/3}) with p = n^{-1/3} for svrg/saga, b = floor(0.25 n^{3/4}) with
    p = n^{-1/4} for the biased family, every b at least 1, omega = 0.5,
    and the polynomial increasing-batch schedule for sgd).  profile="theory"
    sizes parameters so the step-size conditions hold, clamping batch sizes
    to [1, n]: b = 40/p^2 (svrg), b = 40^{1/3} n^{2/3} (saga), b = 110/p^3
    (sarah), with the analogous constants for the hybrids.  Oracle sizes
    are powers of epsilon; an epsilon for which they are not finite numbers
    is a ValueError.
    """
    _check_n(n)
    if n is None and profile == "theory":
        _check_positive("epsilon", epsilon)

    if profile == "experiment":
        if n is None:
            raise ValueError("experiment profile needs n")
        b_unbiased = max(1, int(0.5 * n ** (2.0 / 3.0)))
        b_biased = max(1, int(0.25 * n ** 0.75))
        if kind == FULL:
            return EstimatorParams()
        if kind == SGD:
            return EstimatorParams(b_schedule=increasing_batch_schedule(n))
        if kind == SVRG:
            return EstimatorParams(b=b_unbiased, p_switch=n ** (-1.0 / 3.0))
        if kind == SAGA:
            return EstimatorParams(b=b_unbiased)
        if kind == SARAH:
            return EstimatorParams(b=b_biased, p_switch=n ** (-0.25))
        if kind == HSGD:
            return EstimatorParams(b=b_biased, omega=0.5)
        if kind == HSVRG:
            return EstimatorParams(b=b_biased, p_switch=n ** (-1.0 / 3.0),
                                   omega=0.5)
        raise ValueError(f"unknown estimator kind {kind!r}")

    if profile != "theory":
        raise ValueError("profile must be 'experiment' or 'theory'")

    if kind in (FULL, SAGA):  # neither runs on an oracle
        check_params(kind, EstimatorParams(), n)
    try:
        return _theory_params(kind, n, epsilon)
    except (OverflowError, ZeroDivisionError):
        raise ValueError(f"epsilon = {epsilon!r} is out of range: {kind}'s "
                         "theory sizes are not finite numbers") from None


def _theory_params(kind, n, epsilon) -> EstimatorParams:
    """default_params(profile="theory") past its argument checks."""
    def clamp(b):
        b = max(1, int(math.ceil(b)))
        return b if n is None else min(b, n)

    if kind == FULL:
        return EstimatorParams()
    if kind == SGD:
        return EstimatorParams(
            b_schedule=lambda k: k + 1 if n is None else min(n, k + 1))
    if kind == SVRG:
        if n is not None:
            p = n ** (-1.0 / 3.0)
            return EstimatorParams(b=clamp(40.0 / p ** 2), p_switch=p)
        p = epsilon ** (2.0 / 3.0)
        return EstimatorParams(b=clamp(80.0 / p ** 2), p_switch=p,
                               mega_batch=int(math.ceil(epsilon ** -2)))
    if kind == SAGA:
        return EstimatorParams(b=clamp(40.0 ** (1.0 / 3.0) * n ** (2.0 / 3.0)))
    if kind == SARAH:
        if n is not None:
            p = n ** (-0.25)
            return EstimatorParams(b=clamp(110.0 / p ** 3), p_switch=p)
        p = min(1.0, epsilon)
        return EstimatorParams(b=clamp(110.0 / p ** 3), p_switch=p,
                               mega_batch=int(math.ceil(epsilon ** -4)))
    if kind == HSGD:
        w = n ** (-0.25) if n is not None else min(1.0, epsilon)
        C = 2.0
        b = 55.0 * C * (1.0 - w) ** 2 / (w ** 3 * (2.0 - w))
        mega: Union[int, str] = "exact" if n is not None \
            else int(math.ceil(epsilon ** -3))
        return EstimatorParams(b=clamp(b), omega=w, mega_batch=mega)
    if kind == HSVRG:
        if n is not None:
            p = n ** (-0.25)
            w = p / 8.0
        else:
            w = min(1.0, epsilon)
            p = min(1.0, 8.0 * w)
        b = max(220.0 / w ** 3, 880.0 / (w * p * p))
        mega = "exact" if n is not None else int(math.ceil(epsilon ** -3))
        return EstimatorParams(b=clamp(b), p_switch=p, omega=w,
                               mega_batch=mega)
    raise ValueError(f"unknown estimator kind {kind!r}")
