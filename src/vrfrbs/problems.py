"""Benchmark problem builders.

Two application families and synthetic test problems:

* AUC maximization with the square-loss saddle reformulation on an
  imbalanced synthetic dataset.  The variable is z = (w, a, b, alpha) in
  R^{d+3}; the mean operator is affine, G(z) = Q z + q, and the constraint
  sets are a ball on w and boxes on (a, b, alpha).

* Policy evaluation for a random MDP with linear value approximation.  The
  empirical projected-Bellman-error saddle problem has variable x =
  (theta, w) in R^{2d}, per-transition operators built from rank-one
  feature products, and an l1 regularizer on theta handled by a
  soft-threshold resolvent.

* Random affine monotone/bilinear toys used by tests and the verification
  suite, with exactly computable average-Lipschitz constants.

All generators are deterministic under a fixed seed.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (InclusionProblem, RowOperator, SampledOperator,
                   ball_box_resolvent, identity_resolvent,
                   soft_threshold_resolvent)


# ---------------------------------------------------------------------------
# AUC maximization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AucDataset:
    """Synthetic imbalanced binary dataset.

    X: (n, d) features; y: labels in {+1, -1}; p_pos: empirical positive
    fraction; kappa_feat: max feature-row norm (bounds the box constraints).
    """

    X: np.ndarray
    y: np.ndarray
    p_pos: float
    kappa_feat: float

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


def gen_auc_dataset(n: int, d: int, p_pos: float, noise_sigma: float,
                    seed) -> AucDataset:
    """Gaussian features, noisy linear scores, labels by score thresholding.

    Scores s = X w* + eps with unit-norm w*; the top p_pos fraction
    (strictly above the empirical (1 - p_pos)-quantile) is labeled +1.
    """
    if n < 2 or d < 1:
        raise ValueError("need n >= 2 and d >= 1")
    if not (0.0 < p_pos < 1.0):
        raise ValueError("p_pos must lie in (0, 1)")
    if p_pos * n < 1:
        raise ValueError("p_pos * n < 1: no positive sample would exist")
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be nonnegative")
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    w_star = rng.standard_normal(d)
    w_star /= np.linalg.norm(w_star)
    scores = X @ w_star + noise_sigma * rng.standard_normal(n)
    threshold = np.quantile(scores, 1.0 - p_pos)
    y = np.where(scores > threshold, 1.0, -1.0)
    if not (y > 0).any() or not (y < 0).any():
        raise ValueError("degenerate labeling: one class is empty")
    p_emp = float((y > 0).mean())
    kappa = float(np.linalg.norm(X, axis=1).max())
    return AucDataset(X=X, y=y, p_pos=p_emp, kappa_feat=kappa)


def build_auc_problem(dataset: AucDataset,
                      radius: Optional[float] = None) -> InclusionProblem:
    """Assemble the AUC operator and the ball-box resolvent.

    The mean operator is G(z) = Q z + q with

        Q = 2 p (1-p) [[S+ + S-,  -mu+,  -mu-,  mu- - mu+],
                       [-mu+^T,     1,     0,       0    ],
                       [-mu-^T,     0,     1,       0    ],
                       [-(mu- - mu+)^T, 0, 0,       1    ]]

    built from the class means mu+/- and second-moment matrices S+/-, and
    q = 2 p (1-p) (mu- - mu+, 0, 0, 0), which `forward.full` evaluates;
    lipschitz = ||Q||_2.  The constraints are ||w|| <= R, |a|, |b| <= R kappa
    and |alpha| <= 2 R kappa; R defaults to 100 (inactive in practice).
    """
    X, y = dataset.X, dataset.y
    n, d = X.shape
    pos = y > 0
    n_pos = int(pos.sum())
    n_neg = n - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("both classes must be nonempty")
    p = n_pos / n
    Xp, Xm = X[pos], X[~pos]
    mu_p = Xp.mean(axis=0)
    mu_m = Xm.mean(axis=0)
    S_p = Xp.T @ Xp / n_pos
    S_m = Xm.T @ Xm / n_neg
    scale = 2.0 * p * (1.0 - p)

    dim = d + 3
    Q = np.zeros((dim, dim))
    Q[:d, :d] = S_p + S_m
    Q[:d, d] = -mu_p
    Q[:d, d + 1] = -mu_m
    Q[:d, d + 2] = mu_m - mu_p
    Q[d, :d] = -mu_p
    Q[d + 1, :d] = -mu_m
    Q[d + 2, :d] = -(mu_m - mu_p)
    Q[d, d] = Q[d + 1, d + 1] = Q[d + 2, d + 2] = 1.0
    Q *= scale
    q = np.zeros(dim)
    q[:d] = scale * (mu_m - mu_p)

    def coefficients(scores, z, sel):
        """Per-sample coefficients of the feature row and the three scalar
        slots, given labels and scores s = X w.  The scalars (a, b, alpha)
        are numbers for one point and (P, 1) columns for a stack."""
        s = scores[0]
        pos_i = pos[sel]
        a, bb, al = z[d:]
        cw = np.where(pos_i,
                      2.0 * (1 - p) * (s - a) - 2.0 * (1 + al) * (1 - p),
                      2.0 * p * (s - bb) + 2.0 * (1 + al) * p)
        ga = np.where(pos_i, -2.0 * (1 - p) * (s - a), 0.0)
        gb = np.where(pos_i, 0.0, -2.0 * p * (s - bb))
        gal = np.where(pos_i, 2.0 * (1 - p) * s, -2.0 * p * s) \
            + 2.0 * p * (1 - p) * al
        return cw, ga, gb, gal

    op = RowOperator(dim=dim, rows=X,
                     blocks=((slice(0, d), slice(None), slice(0, d)),
                             (d, None, None), (d + 1, None, None),
                             (d + 2, None, None)),
                     coefficients=coefficients, full_eval=lambda z: Q @ z + q)
    L = float(np.linalg.norm(Q, 2))
    R = 100.0 if radius is None else float(radius)
    kappa = dataset.kappa_feat
    if np.isfinite(R):
        resolvent = ball_box_resolvent(
            R, [R * kappa, R * kappa, 2.0 * R * kappa])
    else:
        resolvent = identity_resolvent()
    return InclusionProblem(forward=op, resolvent=resolvent, lipschitz=L)


# ---------------------------------------------------------------------------
# Random MDP and policy evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Mdp:
    """Tabular MDP with a fixed behavior policy.

    P: (S, A, S) transition probabilities; R: (S, A) rewards; pi: (S, A)
    policy; init: (S,) initial state distribution; gamma: discount.
    """

    P: np.ndarray
    R: np.ndarray
    pi: np.ndarray
    init: np.ndarray
    gamma: float

    @property
    def n_states(self) -> int:
        return self.P.shape[0]

    @property
    def n_actions(self) -> int:
        return self.P.shape[1]


_MDP_SMOOTHING = 1e-5


def gen_random_mdp(n_states: int, n_actions: int, seed,
                   gamma: float = 0.95) -> Mdp:
    """Random MDP: every probability row is U[0,1] + 1e-5, normalized.

    The policy and the initial distribution are generated the same way;
    rewards are U[0,1].
    """
    if n_states < 2 or n_actions < 1:
        raise ValueError("need n_states >= 2 and n_actions >= 1")
    rng = np.random.default_rng(seed)
    P = rng.uniform(size=(n_states, n_actions, n_states)) + _MDP_SMOOTHING
    P /= P.sum(axis=2, keepdims=True)
    pi = rng.uniform(size=(n_states, n_actions)) + _MDP_SMOOTHING
    pi /= pi.sum(axis=1, keepdims=True)
    init = rng.uniform(size=n_states) + _MDP_SMOOTHING
    init /= init.sum()
    R = rng.uniform(size=(n_states, n_actions))
    return Mdp(P=P, R=R, pi=pi, init=init, gamma=gamma)


def uniform_features(n_states: int, d: int, seed) -> np.ndarray:
    """Per-state features: d-1 coordinates U[0,1] plus a constant-1 bias."""
    if d < 2:
        raise ValueError("need d >= 2 (one slot is the bias)")
    rng = np.random.default_rng(seed)
    F = np.empty((n_states, d))
    F[:, : d - 1] = rng.uniform(size=(n_states, d - 1))
    F[:, d - 1] = 1.0
    return F


@dataclass(frozen=True)
class Transitions:
    """One simulated trajectory in feature space: (phi_t, phi_{t+1}, r_t)."""

    phi: np.ndarray       # (n, d)
    phi_next: np.ndarray  # (n, d)
    r: np.ndarray         # (n,)

    @property
    def n(self) -> int:
        return self.phi.shape[0]

    @property
    def d(self) -> int:
        return self.phi.shape[1]


def sample_transitions(mdp: Mdp, n: int, features: np.ndarray,
                       seed) -> Transitions:
    """Simulate one n-step trajectory from the initial distribution;
    features is the (S, d) per-state feature matrix.

    The 2n + 1 uniforms come from one draw, in the order of a step-by-step
    simulation: the initial state, then each step's action and next state.
    A uniform u picks the first entry whose cumulative probability is >= u
    (numpy's searchsorted, side="left"); the last entry of a row takes
    every u above the boundary before it, so rounding in a row's total
    never carries a draw past the row.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    F = np.asarray(features, dtype=float)
    S, A = mdp.n_states, mdp.n_actions
    if F.ndim != 2 or F.shape[0] != S:
        raise ValueError(f"features must be an (S, d) matrix with S = {S} "
                         f"rows, not shape {F.shape}")
    for name in ("init", "pi", "P"):
        probs = getattr(mdp, name)
        if not (np.all(probs >= 0)
                and np.all(np.abs(probs.sum(axis=-1) - 1.0) <= 1e-9)):
            raise ValueError(f"every row of mdp.{name} must be nonnegative "
                             "and sum to 1 within 1e-9")
    u = np.random.default_rng(seed).random(2 * n + 1).tolist()
    # flat cumulative tables: the row of state s starts at s * A in cum_pi,
    # the row of (s, a) at (s * A + a) * S in cum_P
    cum_init = memoryview(np.cumsum(mdp.init))
    cum_pi = memoryview(np.cumsum(mdp.pi, axis=1).ravel())
    cum_P = memoryview(np.cumsum(mdp.P, axis=2).ravel())

    s = bisect_left(cum_init, u[0], 0, S - 1)
    states, actions = [s], []
    for t in range(1, 2 * n, 2):
        lo = s * A
        a = bisect_left(cum_pi, u[t], lo, lo + A - 1) - lo
        lo = (lo + a) * S
        s = bisect_left(cum_P, u[t + 1], lo, lo + S - 1) - lo
        actions.append(a)
        states.append(s)
    states = np.array(states)
    rewards = np.asarray(mdp.R, dtype=float)[states[:-1], actions]
    return Transitions(phi=F[states[:-1]], phi_next=F[states[1:]], r=rewards)


def build_pe_problem(transitions: Transitions, gamma: float,
                     tau_reg: float) -> InclusionProblem:
    """Per-transition operators G_t(x) = (-A_t^T w, A_t theta + C_t w - b_t)
    with A_t = phi_t (phi_t - gamma phi_t')^T, b_t = r_t phi_t,
    C_t = phi_t phi_t^T, applied as rank-one products (no d x d matrices per
    sample); `forward.full` evaluates the assembled mean map.  The l1
    regularizer on theta yields a soft-threshold resolvent with weight
    tau_reg (shrinkage eta * tau_reg at step size eta).
    """
    if not (0.0 < gamma < 1.0):
        raise ValueError("gamma must lie in (0, 1)")
    if tau_reg < 0:
        raise ValueError("tau_reg must be nonnegative")
    phi, phi2, r = transitions.phi, transitions.phi_next, transitions.r
    n, d = phi.shape
    # rows [psi | phi] with psi = phi - gamma phi', built in place
    rows = np.empty((n, 2 * d))
    psi = rows[:, :d]
    np.multiply(phi2, -gamma, out=psi)
    psi += phi
    rows[:, d:] = phi
    A_hat = phi.T @ psi / n
    C_hat = phi.T @ phi / n
    b_hat = phi.T @ r / n

    dim = 2 * d
    G_mat = np.zeros((dim, dim))
    G_mat[:d, d:] = -A_hat.T
    G_mat[d:, :d] = A_hat
    G_mat[d:, d:] = C_hat
    g_vec = np.zeros(dim)
    g_vec[d:] = -b_hat

    def coefficients(scores, x, sel):
        s_ps, s_pw = scores      # psi_t . theta, phi_t . w
        return -s_pw, s_ps + s_pw - r[sel]

    op = RowOperator(dim=dim, rows=rows,
                     blocks=((slice(0, d), slice(0, d), slice(0, d)),
                             (slice(d, dim), slice(d, dim), slice(d, dim))),
                     coefficients=coefficients,
                     full_eval=lambda x: G_mat @ x + g_vec)
    L = float(np.linalg.norm(G_mat, 2))
    resolvent = soft_threshold_resolvent(tau_reg, d) if tau_reg > 0 \
        else identity_resolvent()
    return InclusionProblem(forward=op, resolvent=resolvent, lipschitz=L)


# ---------------------------------------------------------------------------
# Synthetic affine problems
# ---------------------------------------------------------------------------

def affine_problem_from_components(B: np.ndarray,
                                   c: np.ndarray) -> InclusionProblem:
    """Finite sum of dense affine components G_i(x) = B_i x + c_i, T = 0.

    The average-Lipschitz constant is computed exactly from
    lambda_max((1/n) sum_i B_i^T B_i).  Intended for small test problems:
    a batch evaluates all n components once at its point and takes the
    requested rows, so a large batch of repeated indices (Monte-Carlo
    trials) costs n matrix-vector products, not one per sample.  Each row
    is the same product as B[i] @ x + c[i], bit for bit.
    """
    B = np.asarray(B, dtype=float)
    c = np.asarray(c, dtype=float)
    n, dim = c.shape
    B_mean = B.mean(axis=0)
    c_mean = c.mean(axis=0)
    gram = np.einsum("kji,kjl->il", B, B) / n
    L = math.sqrt(max(float(np.linalg.eigvalsh(gram).max()), 0.0))

    def batch_components(x, idx):
        return (B @ x + c).take(idx, axis=0)

    def full_eval(x):
        return B_mean @ x + c_mean

    op = SampledOperator(dim=dim, batch_components=batch_components, n=n,
                         full_eval=full_eval)
    solution = None
    try:
        solution = np.linalg.solve(B_mean, -c_mean)
    except np.linalg.LinAlgError:
        pass
    return InclusionProblem(forward=op, resolvent=identity_resolvent(),
                            lipschitz=L, known_solution=solution)


def linear_toy(n: int = 10, dim: int = 4, seed=0) -> InclusionProblem:
    """Small random affine finite sum around the identity; the workhorse of
    the Monte-Carlo verification suite."""
    rng = np.random.default_rng(np.random.SeedSequence([0x70F, seed]))
    B = np.stack([np.eye(dim) + 0.5 * rng.standard_normal((dim, dim)) / math.sqrt(dim)
                  for _ in range(n)])
    c = rng.standard_normal((n, dim))
    return affine_problem_from_components(B, c)


def bilinear_problem(d_half: int = 1) -> InclusionProblem:
    """G(u, v) = (v, -u): the rotation field, monotone with L = 1."""
    dim = 2 * d_half
    B = np.zeros((1, dim, dim))
    B[0, :d_half, d_half:] = np.eye(d_half)
    B[0, d_half:, :d_half] = -np.eye(d_half)
    c = np.zeros((1, dim))
    return affine_problem_from_components(B, c)


def strongly_monotone_affine(dim: int, n_components: int, seed,
                             mu: float = 1.0, slope_scale: float = 0.1,
                             offset_scale: float = 1.0) -> InclusionProblem:
    """Random strongly monotone affine finite sum with cheap batch access.

    Components are G_i(x) = (mu I + u_i u_i^T) x + c_i with small random
    rank-one slopes, so the symmetric part of the mean Jacobian dominates
    mu I.  Batch means cost O(|batch| d) and the exact mean is a cached
    matrix (full evaluations still charge n).  The average-Lipschitz
    constant and the solution of the mean system are computed exactly.
    """
    rng = np.random.default_rng(np.random.SeedSequence([0x57A6, seed]))
    n, d = int(n_components), int(dim)
    U = (slope_scale / math.sqrt(d)) * rng.standard_normal((n, d))
    c = offset_scale * rng.standard_normal((n, d))
    c_mean = c.mean(axis=0)
    M_mean = mu * np.eye(d) + U.T @ U / n
    # exact average-Lipschitz: (1/n) sum_i B_i^T B_i with B_i = mu I + u_i u_i^T
    row_sq = np.einsum("ij,ij->i", U, U)
    gram = mu * mu * np.eye(d) + (2.0 * mu) * (U.T @ U) / n \
        + (U * row_sq[:, None]).T @ U / n
    L = math.sqrt(float(np.linalg.eigvalsh(gram).max()))
    solution = np.linalg.solve(M_mean, -c_mean)

    def coefficients(scores, x, sel):
        # slope rows scaled by u_i . x, offset rows by one
        s = scores[0]
        return s, np.ones(s.shape)

    op = RowOperator(dim=d, rows=np.hstack([U, c]),
                     blocks=((slice(0, d), slice(0, d), slice(0, d)),
                             (slice(0, d), slice(d, 2 * d), None)),
                     coefficients=coefficients,
                     full_eval=lambda x: M_mean @ x + c_mean,
                     common=lambda x: mu * x)
    return InclusionProblem(forward=op, resolvent=identity_resolvent(),
                            lipschitz=L, known_solution=solution)
