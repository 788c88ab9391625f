import dataclasses

import numpy as np
import pytest

from vrfrbs import bench, problems
from vrfrbs.core import (InclusionProblem, RowOperator, SampledOperator,
                         apply_resolvent)
from vrfrbs.problems import (AucDataset, Transitions, bilinear_problem,
                             build_auc_problem, build_pe_problem,
                             gen_auc_dataset, gen_random_mdp,
                             sample_transitions, strongly_monotone_affine,
                             uniform_features)
from vrfrbs.verification import MC_CHUNK


def mean_map(op):
    """(M, g) of an affine mean map G(x) = M x + g, rebuilt from op.full
    column by column."""
    g = op.full(np.zeros(op.dim))
    return np.column_stack([op.full(e) - g for e in np.eye(op.dim)]), g


# --- AUC dataset ------------------------------------------------------------

def test_auc_dataset_exact_positive_count():
    ds = gen_auc_dataset(1000, 5, 0.1, 0.1, seed=0)
    assert int((ds.y > 0).sum()) == 100
    assert ds.p_pos == pytest.approx(0.1)


def test_auc_dataset_noise_free_labels_follow_score():
    ds = gen_auc_dataset(200, 1, 0.2, 0.0, seed=3)
    # single feature, unit w*: labels must be the top 20% of the column,
    # up to the sign of w*
    col = ds.X[:, 0]
    order = np.argsort(col)
    top = set(order[-40:]) if (ds.y[order[-1]] > 0) else set(order[:40])
    assert set(np.flatnonzero(ds.y > 0)) == top


def test_auc_dataset_deterministic():
    a = gen_auc_dataset(50, 3, 0.2, 0.5, seed=9)
    b = gen_auc_dataset(50, 3, 0.2, 0.5, seed=9)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)


def test_auc_dataset_rejects_bad_args():
    with pytest.raises(ValueError):
        gen_auc_dataset(5, 2, 0.1, 0.1, seed=0)  # p_pos * n < 1
    with pytest.raises(ValueError):
        gen_auc_dataset(10, 2, 1.5, 0.1, seed=0)


def test_auc_kappa_is_max_row_norm():
    ds = gen_auc_dataset(30, 4, 0.2, 0.1, seed=1)
    assert ds.kappa_feat == pytest.approx(np.linalg.norm(ds.X, axis=1).max())


# --- AUC operator -----------------------------------------------------------

def _auc_loss(w, a, b, alpha, x, y, p):
    """Scalar per-sample saddle loss; the test-side oracle for gradients."""
    pos = y > 0
    val = 0.0
    s = float(w @ x)
    if pos:
        val += (1 - p) * (s - a) ** 2
        val += 2 * (1 + alpha) * (-(1 - p) * s)
    else:
        val += p * (s - b) ** 2
        val += 2 * (1 + alpha) * (p * s)
    val -= p * (1 - p) * alpha ** 2
    return val


def _auc_numeric_component(X, y, p, z, i, h=1e-6):
    """Central finite differences of the per-sample loss: the gradient in
    (w, a, b) stacked with the negated alpha-gradient."""
    d = X.shape[1]

    def loss(zv):
        return _auc_loss(zv[:d], zv[d], zv[d + 1], zv[d + 2], X[i], y[i], p)

    g = np.zeros(d + 3)
    for j in range(d + 3):
        e = np.zeros(d + 3)
        e[j] = h
        g[j] = (loss(z + e) - loss(z - e)) / (2 * h)
    g[d + 2] = -g[d + 2]
    return g


def hand_dataset():
    X = np.array([[1.0, 0.0],
                  [0.0, 2.0],
                  [-1.0, 1.0],
                  [0.5, -0.5]])
    y = np.array([1.0, 1.0, -1.0, -1.0])
    return AucDataset(X=X, y=y, p_pos=0.5,
                      kappa_feat=float(np.linalg.norm(X, axis=1).max()))


def test_auc_components_match_finite_differences():
    ds = hand_dataset()
    auc = build_auc_problem(ds, radius=10.0)
    p = 0.5
    rng = np.random.default_rng(5)
    z = rng.standard_normal(5)
    comps = auc.forward.batch_components(z, np.arange(4))
    for i in range(4):
        numeric = _auc_numeric_component(ds.X, ds.y, p, z, i)
        assert np.allclose(comps[i], numeric, atol=1e-5), i


def test_auc_q_matrix_hand_blocks():
    ds = hand_dataset()
    Q, q = mean_map(build_auc_problem(ds, radius=10.0).forward)
    p = 0.5
    scale = 2 * p * (1 - p)
    Xp, Xm = ds.X[:2], ds.X[2:]
    S = Xp.T @ Xp / 2 + Xm.T @ Xm / 2
    mu_p, mu_m = Xp.mean(axis=0), Xm.mean(axis=0)
    assert np.allclose(Q[:2, :2], scale * S)
    assert np.allclose(Q[:2, 2], -scale * mu_p)
    assert np.allclose(Q[:2, 3], -scale * mu_m)
    assert np.allclose(Q[:2, 4], scale * (mu_m - mu_p))
    assert np.allclose(np.diag(Q)[2:], scale)
    assert np.allclose(q[:2], scale * (mu_m - mu_p))
    assert np.allclose(q[2:], 0.0)


def test_auc_full_eval_matches_assembled_form():
    ds = gen_auc_dataset(200, 6, 0.15, 0.3, seed=2)
    op = build_auc_problem(ds).forward
    Q, q = mean_map(op)
    rng = np.random.default_rng(7)
    for _ in range(5):
        z = rng.standard_normal(9)
        per_sample = op.batch_components(z, np.arange(200)).mean(axis=0)
        affine = Q @ z + q
        assert np.linalg.norm(per_sample - affine) <= \
            1e-8 * (1 + np.linalg.norm(affine))
        assert np.allclose(op.full(z), affine)


def test_auc_eval_at_zero_is_offset():
    ds = gen_auc_dataset(100, 4, 0.2, 0.2, seed=11)
    op = build_auc_problem(ds).forward
    z = np.zeros(7)
    per_sample = op.batch_components(z, np.arange(100)).mean(axis=0)
    assert np.allclose(per_sample, mean_map(op)[1])


def test_auc_symmetric_part_psd():
    for seed in range(3):
        ds = gen_auc_dataset(300, 8, 0.1, 0.2, seed=seed)
        Q, _ = mean_map(build_auc_problem(ds).forward)
        sym = 0.5 * (Q + Q.T)
        assert np.linalg.eigvalsh(sym).min() >= -1e-8


def test_auc_single_class_rejected():
    X = np.ones((3, 2))
    y = np.ones(3)
    ds = AucDataset(X=X, y=y, p_pos=1.0, kappa_feat=np.sqrt(2.0))
    with pytest.raises(ValueError):
        build_auc_problem(ds)


def test_auc_resolvent_bounds():
    ds = hand_dataset()
    auc = build_auc_problem(ds, radius=2.0)
    kappa = ds.kappa_feat
    z = np.array([10.0, 0.0, 100.0, -100.0, 100.0])
    out = apply_resolvent(auc.resolvent, z)
    assert np.linalg.norm(out[:2]) <= 2.0 + 1e-12
    assert abs(out[2]) <= 2.0 * kappa + 1e-12
    assert abs(out[3]) <= 2.0 * kappa + 1e-12
    assert abs(out[4]) <= 4.0 * kappa + 1e-12


# --- MDP / policy evaluation -----------------------------------------------

def test_mdp_rows_stochastic_and_positive():
    mdp = gen_random_mdp(20, 4, seed=0)
    assert np.allclose(mdp.P.sum(axis=2), 1.0, atol=1e-12)
    assert np.all(mdp.P > 0)
    assert np.allclose(mdp.pi.sum(axis=1), 1.0, atol=1e-12)
    assert mdp.init.sum() == pytest.approx(1.0)


def test_mdp_deterministic():
    a = gen_random_mdp(5, 2, seed=42)
    b = gen_random_mdp(5, 2, seed=42)
    assert np.array_equal(a.P, b.P) and np.array_equal(a.R, b.R)
    assert np.array_equal(a.pi, b.pi) and np.array_equal(a.init, b.init)


def test_policy_induced_chain_row_stochastic():
    mdp = gen_random_mdp(12, 3, seed=4)
    # oracle: P_pi(s, s') = sum_a pi(a|s) P(s'|s, a) computed directly
    P_pi = np.einsum("sa,sat->st", mdp.pi, mdp.P)
    assert np.allclose(P_pi.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(P_pi >= 0)


def _replay_transitions(mdp, n, F, seed):
    """The trajectory by a per-step simulation: one scalar uniform and one
    searchsorted per draw, initial state first, then action and next
    state for each step."""
    rng = np.random.default_rng(seed)
    cum_init = np.cumsum(mdp.init)
    cum_pi = np.cumsum(mdp.pi, axis=1)
    cum_P = np.cumsum(mdp.P, axis=2)
    s = int(np.searchsorted(cum_init, rng.random()))
    phis, phis2, rews = [], [], []
    for _ in range(n):
        a = int(np.searchsorted(cum_pi[s], rng.random()))
        rews.append(mdp.R[s, a])
        s2 = int(np.searchsorted(cum_P[s, a], rng.random()))
        phis.append(F[s])
        phis2.append(F[s2])
        s = s2
    return np.array(phis), np.array(phis2), np.array(rews)


def test_sample_transitions_replays_rng_stream():
    """Same bytes as the per-step simulation over a grid of sizes, two
    (MDP, trajectory) seed pairs each."""
    for S, A, n in ((2, 1, 1), (2, 2, 3), (7, 3, 500), (100, 10, 2000)):
        for mdp_seed, seed in ((1, 123), (S + A, (n, 2))):
            mdp = gen_random_mdp(S, A, seed=mdp_seed)
            F = np.eye(S) if S == 2 else uniform_features(S, 4, seed=seed)
            trans = sample_transitions(mdp, n, F, seed=seed)
            phis, phis2, rews = _replay_transitions(mdp, n, F, seed)
            assert np.array_equal(trans.phi, phis)
            assert np.array_equal(trans.phi_next, phis2)
            assert np.array_equal(trans.r, rews)
            for got, want in zip((trans.phi, trans.phi_next, trans.r),
                                 (phis, phis2, rews)):
                assert (got.dtype, got.shape) == (want.dtype, want.shape)
                assert got.tobytes() == want.tobytes(), (S, A, n, seed)


def _constant_uniforms(value):
    """A generator whose uniforms all equal `value`."""
    class Constant(np.random.Generator):
        def random(self, size=None):
            return np.full(size, value)
    return Constant(np.random.PCG64())


def _mdp_of_rows(row):
    """Every distribution of the MDP is `row`; R[s, a] = s * A + a."""
    k = len(row)
    return problems.Mdp(P=np.tile(row, (k, k, 1)),
                        R=np.arange(k * k, dtype=float).reshape(k, k),
                        pi=np.tile(row, (k, 1)), init=np.array(row),
                        gamma=0.9)


def test_sample_transitions_last_boundary_below_one_picks_last_entry():
    # every row sums to 1 - 1e-12, inside the tolerance but below the draws
    mdp = _mdp_of_rows([0.5, 0.5 - 1e-12])
    trans = sample_transitions(mdp, 4, np.eye(2),
                               seed=_constant_uniforms(1.0 - 1e-13))
    assert np.array_equal(trans.phi, np.tile([0.0, 1.0], (4, 1)))
    assert np.array_equal(trans.phi_next, np.tile([0.0, 1.0], (4, 1)))
    assert np.array_equal(trans.r, [3.0] * 4)


def test_sample_transitions_uniform_on_a_boundary_picks_its_entry():
    # searchsorted side="left": u = 0.5 on the boundaries [0.5, 0.5, 1]
    # picks entry 0, not the zero-probability entry 1 or entry 2
    mdp = _mdp_of_rows([0.5, 0.0, 0.5])
    trans = sample_transitions(mdp, 3, np.eye(3),
                               seed=_constant_uniforms(0.5))
    assert np.array_equal(trans.phi, np.tile([1.0, 0.0, 0.0], (3, 1)))
    assert np.array_equal(trans.r, [0.0] * 3)


def test_sample_transitions_rejects_features_of_other_state_count():
    mdp = gen_random_mdp(5, 2, seed=0)
    for F in (np.ones((4, 3)), np.ones((6, 3)), np.ones(5)):
        with pytest.raises(ValueError, match="features"):
            sample_transitions(mdp, 3, F, seed=0)


@pytest.mark.parametrize("name", ["init", "pi", "P"])
@pytest.mark.parametrize("defect", ["negative", "sum"])
def test_sample_transitions_rejects_non_distribution_rows(name, defect):
    mdp = gen_random_mdp(4, 3, seed=2)
    probs = getattr(mdp, name).copy()
    row = probs.reshape(-1, probs.shape[-1])[-1]   # a view of the last row
    if defect == "negative":
        row[:2] = row[0] + row[1] + 1e-3, -1e-3   # the same sum
    else:
        row[0] += 2e-9
    bad = dataclasses.replace(mdp, **{name: probs})
    with pytest.raises(ValueError, match=f"mdp.{name}"):
        sample_transitions(bad, 3, np.eye(4), seed=0)


def test_sample_transitions_one_hot_features():
    mdp = gen_random_mdp(4, 2, seed=7)
    trans = sample_transitions(mdp, 10, np.eye(4), seed=0)
    assert np.all(trans.phi.sum(axis=1) == 1.0)
    assert np.all((trans.phi == 0) | (trans.phi == 1))


def test_sample_transitions_deterministic_chain():
    # degenerate transitions: a 3-cycle regardless of action
    S = 3
    P = np.zeros((S, 1, S))
    for s in range(S):
        P[s, 0, (s + 1) % S] = 1.0
    mdp_cycle = gen_random_mdp(S, 1, seed=0)
    mdp_cycle = mdp_cycle.__class__(P=P, R=mdp_cycle.R, pi=np.ones((S, 1)),
                                    init=np.array([1.0, 0.0, 0.0]),
                                    gamma=0.9)
    trans = sample_transitions(mdp_cycle, 6, np.eye(S), seed=5)
    states = trans.phi.argmax(axis=1)
    assert list(states) == [0, 1, 2, 0, 1, 2]


def test_uniform_features_bias_column():
    F = uniform_features(10, 5, seed=0)
    assert np.all(F[:, -1] == 1.0)
    assert np.all((F[:, :-1] >= 0) & (F[:, :-1] <= 1))


def test_pe_single_transition_hand_values():
    trans = Transitions(phi=np.array([[1.0]]), phi_next=np.array([[1.0]]),
                        r=np.array([1.0]))
    pe = build_pe_problem(trans, gamma=0.5, tau_reg=0.0)
    # A = 0.5, C = 1, b = 1: G(theta, w) = (-0.5 w, 0.5 theta + w - 1)
    x = np.array([2.0, 3.0])
    g = pe.forward.full(x)
    assert g == pytest.approx([-1.5, 3.0])
    comp = pe.forward.batch_components(x, np.array([0]))[0]
    assert comp == pytest.approx([-1.5, 3.0])


def test_pe_per_sample_mean_matches_assembled():
    mdp = gen_random_mdp(30, 3, seed=2)
    F = uniform_features(30, 6, seed=3)
    trans = sample_transitions(mdp, 100, F, seed=4)
    op = build_pe_problem(trans, gamma=0.95, tau_reg=1e-3).forward
    G, g = mean_map(op)
    rng = np.random.default_rng(5)
    for _ in range(4):
        x = rng.standard_normal(12)
        per_sample = op.batch_components(x, np.arange(100)).mean(axis=0)
        assembled = G @ x + g
        assert np.allclose(per_sample, assembled, atol=1e-12)


def test_pe_monotone_inner_product():
    mdp = gen_random_mdp(20, 2, seed=8)
    F = uniform_features(20, 4, seed=9)
    trans = sample_transitions(mdp, 60, F, seed=10)
    op = build_pe_problem(trans, gamma=0.9, tau_reg=0.0).forward
    rng = np.random.default_rng(11)
    for _ in range(50):
        x, y_ = rng.standard_normal(8), rng.standard_normal(8)
        inner = float((op.full(x) - op.full(y_)) @ (x - y_))
        assert inner >= -1e-10


def test_pe_zero_reg_identity_resolvent():
    trans = Transitions(phi=np.array([[1.0, 0.5]]),
                        phi_next=np.array([[0.0, 1.0]]), r=np.array([0.3]))
    pe = build_pe_problem(trans, gamma=0.5, tau_reg=0.0)
    z = np.array([5.0, -3.0, 2.0, 1.0])
    assert np.array_equal(apply_resolvent(pe.resolvent, z, 0.1), z)


def test_pe_feature_rescaling_lipschitz_bound():
    mdp = gen_random_mdp(15, 2, seed=12)
    F = uniform_features(15, 4, seed=13)
    trans = sample_transitions(mdp, 50, F, seed=14)
    L1 = build_pe_problem(trans, gamma=0.9, tau_reg=0.0).lipschitz
    for c in (0.5, 2.0):
        scaled = Transitions(phi=c * trans.phi, phi_next=c * trans.phi_next,
                             r=trans.r)
        Lc = build_pe_problem(scaled, gamma=0.9, tau_reg=0.0).lipschitz
        lo, hi = min(c, c * c), max(c, c * c)
        # rank-one blocks scale between c (offset part) and c^2 (quadratic)
        assert lo * L1 * 0.99 <= Lc <= hi * L1 * 1.01


# --- Lipschitz constant of the mean map ------------------------------------

def _small_auc():
    return build_auc_problem(gen_auc_dataset(200, 6, 0.15, 0.3, seed=2))


def _small_pe():
    mdp = gen_random_mdp(30, 3, seed=2)
    trans = sample_transitions(mdp, 100, uniform_features(30, 6, seed=3),
                               seed=4)
    return build_pe_problem(trans, gamma=0.95, tau_reg=1e-3)


@pytest.mark.parametrize("build", [_small_auc, _small_pe],
                         ids=["auc", "policy-eval"])
def test_lipschitz_is_two_norm_of_operator_mean_map(build):
    """L = ||M||_2 for the affine mean map G(x) = M x + g, with M rebuilt
    from the operator column by column and its top eigenvalue of M^T M
    taken by another LAPACK routine than the builders' norm."""
    problem = build()
    M, _ = mean_map(problem.forward)
    top = float(np.linalg.eigvalsh(M.T @ M).max())
    assert problem.lipschitz ** 2 == pytest.approx(top, rel=1e-12)


# --- the builders' contract ------------------------------------------------

_BUILDS = {
    "build_auc_problem": _small_auc,
    "build_pe_problem": _small_pe,
    "strongly_monotone_affine":
        lambda: strongly_monotone_affine(dim=4, n_components=6, seed=0),
    "linear_toy": problems.linear_toy,
    "bilinear_problem": bilinear_problem,
    "build_problem[auc]": lambda: bench.build_problem(
        {"family": "auc", "n": 40, "d": 3}, 0, False),
    "build_problem[policy-eval]": lambda: bench.build_problem(
        {"family": "policy-eval", "states": 5, "actions": 2,
         "transitions": 20, "features": 3}, 0, False),
    "build_problem[affine-toy]": lambda: bench.build_problem(
        {"family": "affine-toy", "dim": 4, "components": 6}, 0, False),
}


@pytest.mark.parametrize("name", list(_BUILDS))
def test_every_builder_returns_an_inclusion_problem(name):
    assert type(_BUILDS[name]()) is InclusionProblem


# --- synthetic problems ------------------------------------------------------

def test_strongly_monotone_solution_and_lipschitz():
    prob = strongly_monotone_affine(dim=20, n_components=50, seed=1)
    x_star = prob.known_solution
    assert np.linalg.norm(prob.forward.full(x_star)) <= 1e-10
    # exact average-Lipschitz: audit on random pairs
    rng = np.random.default_rng(2)
    idx = np.arange(50)
    L2 = prob.lipschitz ** 2
    for _ in range(100):
        x, y_ = rng.standard_normal(20), rng.standard_normal(20)
        vals = prob.forward.batch_components(x, idx) \
            - prob.forward.batch_components(y_, idx)
        avg = np.einsum("ij,ij->i", vals, vals).mean()
        assert avg <= (1 + 1e-6) * L2 * np.dot(x - y_, x - y_)


# --- shared row operator ----------------------------------------------------

def _row_operator(family):
    if family == "auc":
        ds = gen_auc_dataset(40, 5, 0.2, 0.3, seed=6)
        return build_auc_problem(ds).forward
    if family == "pe":
        mdp = gen_random_mdp(10, 2, seed=5)
        trans = sample_transitions(mdp, 30, uniform_features(10, 4, seed=6),
                                   seed=7)
        return build_pe_problem(trans, gamma=0.9, tau_reg=0.0).forward
    return strongly_monotone_affine(dim=8, n_components=30, seed=3).forward


@pytest.mark.parametrize("family", ["auc", "pe", "affine-toy"])
def test_row_operator_batch_mean_matches_components(family):
    op = _row_operator(family)
    n = op.n
    rng = np.random.default_rng(9)
    x = rng.standard_normal(op.dim)
    # both sides of the n // 4 switch between the gather and dense paths
    for m in (1, n // 4 - 1, n // 4, n, 3 * n // 2):
        idx = rng.integers(0, n, size=m)
        idx[-1] = idx[0]  # a duplicate index whenever m > 1
        direct = op.batch_components(x, idx).mean(axis=0)
        got = op.batch_mean(x, idx)
        assert np.linalg.norm(got - direct) <= 1e-12 * np.linalg.norm(direct), m
    direct = op.batch_components(x, np.arange(n)).mean(axis=0)
    assert np.linalg.norm(op.full(x) - direct) <= 1e-12 * np.linalg.norm(direct)


def _row_operator_and_blocks(family):
    """A row operator and its blocks as separate contiguous arrays, in the
    order of op.blocks (None for a block without rows)."""
    if family == "auc":
        ds = gen_auc_dataset(40, 5, 0.2, 0.3, seed=6)
        op = build_auc_problem(ds).forward
        return op, (ds.X.copy(), None, None, None)
    if family in ("pe", "pe-desk"):
        S, A, n, d = (10, 2, 30, 4) if family == "pe" else (100, 10, 2000, 21)
        trans = sample_transitions(gen_random_mdp(S, A, seed=5), n,
                                   uniform_features(S, d, seed=6), seed=7)
        op = build_pe_problem(trans, gamma=0.95, tau_reg=0.0).forward
        psi = trans.phi - 0.95 * trans.phi_next
        return op, (psi, trans.phi.copy())
    op = strongly_monotone_affine(dim=8, n_components=30, seed=3).forward
    return op, (op.rows[:, :8].copy(), op.rows[:, 8:].copy())


def _per_block_scores(op, rows, x):
    """Each block's scores from the given rows (None for a block without a
    score), one matrix-vector product per block."""
    return tuple(None if part is None else R @ x[part]
                 for (_, _, part), R in zip(op.blocks, rows))


def _per_block_components(op, blocks, x, idx):
    rows = tuple(None if B is None else B[idx] for B in blocks)
    out = np.zeros((len(idx), op.dim))
    if op.common is not None:
        out += op.common(x)
    coefs = op.coefficients(_per_block_scores(op, rows, x), x, idx)
    for (slot, _, _), R, c in zip(op.blocks, rows, coefs):
        out[:, slot] += c if R is None else c[:, None] * R
    return out


def _per_block_mean(op, blocks, x, idx):
    m = len(idx)
    if m < op.n // 4:
        rows = tuple(None if B is None else B[idx] for B in blocks)
        coefs = op.coefficients(_per_block_scores(op, rows, x), x, idx)
    else:
        counts = np.bincount(idx, minlength=op.n).astype(float)
        rows = blocks
        coefs = tuple(counts * c for c in op.coefficients(
            _per_block_scores(op, rows, x), x, slice(None)))
    out = np.zeros(op.dim)
    if op.common is not None:
        out += op.common(x)
    for (slot, _, _), R, c in zip(op.blocks, rows, coefs):
        out[slot] += (c.sum() if R is None else R.T @ c) / m
    return out


@pytest.mark.parametrize("family", ["auc", "pe", "pe-desk", "affine-toy"])
def test_row_operator_matches_per_block_evaluation_bitwise(family):
    """One gather of the row matrix, handed out as column views, gives the
    same bits as gathering each block from its own contiguous array."""
    op, blocks = _row_operator_and_blocks(family)
    for (_, cols, _), B in zip(op.blocks, blocks):
        if cols is not None:
            assert np.array_equal(op.rows[:, cols], B)
    n = op.n
    rng = np.random.default_rng(9)
    x = rng.standard_normal(op.dim)
    # both sides of the n // 4 switch between the gather and dense paths
    for m in (1, 2, n // 4 - 1, n // 4, n, 3 * n // 2):
        idx = rng.integers(0, n, size=m)
        idx[-1] = idx[0]  # a duplicate index whenever m > 1
        assert np.array_equal(op.batch_components(x, idx),
                              _per_block_components(op, blocks, x, idx)), m
        assert np.array_equal(op.batch_mean(x, idx),
                              _per_block_mean(op, blocks, x, idx)), m


def _minimal_row_operator():
    """One scored block, one unscored block, a per-sample weight read
    through sel and a coordinate of the point; the coefficient formula is
    elementwise, so one point and a stack of points take the same code."""
    rng = np.random.default_rng(11)
    n = 24
    weight = rng.uniform(0.5, 2.0, size=n)

    def coefficients(scores, x, sel):
        s = scores[0]
        return weight[sel] * s - x[0], 1.0 - s

    def full_eval(x):
        return op.batch_mean(x, np.arange(n))

    # block 0 scores rows[:, 0:2] against x[1:3] and writes them into
    # slots 0:2; block 1 writes rows[:, 2:5] into slots 0:3
    op = RowOperator(dim=3, rows=rng.standard_normal((n, 5)),
                     blocks=((slice(0, 2), slice(0, 2), slice(1, 3)),
                             (slice(0, 3), slice(2, 5), None)),
                     coefficients=coefficients, full_eval=full_eval)
    return op


def _stack_operator(family):
    if family == "minimal":
        return _minimal_row_operator()
    if family == "linear-toy":
        return problems.linear_toy(n=10, dim=4, seed=2).forward
    if family == "oracle":
        A = np.eye(3) + 0.2 * np.arange(9.0).reshape(3, 3)
        return SampledOperator(
            dim=3, sampler=lambda r, size: r.standard_normal((size, 3)),
            batch_components=lambda x, xi: (A @ x)[None, :] + 0.5 * xi)
    return _row_operator(family)


@pytest.mark.parametrize("family", ["auc", "pe", "affine-toy", "minimal",
                                    "linear-toy", "oracle"])
def test_stacked_batch_mean_equals_per_point_calls(family):
    """A (P, dim) stack of points with their one batch repeated P times
    gives each point's own mean on that batch, bit for bit on the gather
    path and for P = 1.

    A RowOperator's dense path (m >= n // 4) sums a stack of P >= 2 points
    in one (P, n) @ (n, w) product where a one-point call makes a
    vector-matrix product, and the two add the n terms in different
    orders; at these sizes (n <= 40) that moves a mean by at most a few
    ulps of its largest entry, so those means must agree to within
    1e-12 * max|mean|."""
    op = _stack_operator(family)
    n = op.n
    rng = np.random.default_rng(4)
    # both sides of the n // 4 switch between the gather and dense paths
    sizes = (1, 2, 9) if n is None else (1, 2, n // 4 - 1, n // 4, n,
                                         3 * n // 2)
    for m in sizes:
        for P in (1, 2, 3, 4):
            X = rng.standard_normal((P, op.dim))
            batch = op.draw(rng, m)
            batch[-1] = batch[0]  # a repeated sample whenever m > 1
            got = op.batch_mean(X, np.concatenate((batch,) * P))
            assert got.shape == (P, op.dim)
            want = np.array([op.batch_mean(X[p], batch) for p in range(P)])
            if P > 1 and isinstance(op, RowOperator) and m >= n // 4:
                bound = 1e-12 * np.abs(want).max()
                assert np.abs(got - want).max() <= bound, (m, P)
            else:
                assert np.array_equal(got, want), (m, P)


# --- dense affine toys -------------------------------------------------------

@pytest.mark.parametrize("build", [
    lambda: problems.linear_toy(n=10, dim=4, seed=2),
    lambda: problems.linear_toy(n=50, dim=7, seed=3),
    lambda: problems.bilinear_problem(2),
], ids=["linear-toy", "linear-toy-50", "bilinear"])
def test_affine_toy_components_match_per_sample_products(build, monkeypatch):
    """Evaluating all n components and gathering with take is bit-identical
    to one product B[i] @ x + c[i] per requested sample, and to fancy
    indexing, up to a trial chunk's 2 * MC_CHUNK indices with repeats."""
    given = {}
    make = problems.affine_problem_from_components

    def spy(B, c, *args, **kwargs):
        given["B"], given["c"] = np.asarray(B, float), np.asarray(c, float)
        return make(B, c, *args, **kwargs)

    monkeypatch.setattr(problems, "affine_problem_from_components", spy)
    op = build().forward
    B, c, n = given["B"], given["c"], op.n
    rng = np.random.default_rng(4)
    # the last: what one Monte-Carlo chunk of a b = 2 svrg step asks for
    batches = [rng.integers(0, n, size=n // 2), np.arange(n),
               rng.integers(0, n, size=40 * n), np.array([0, 0, n - 1, 0]),
               np.zeros(0, dtype=int), rng.integers(0, n, size=2 * MC_CHUNK)]
    for idx in batches:
        for scale in (1e-8, 1.0, 1e8):
            x = scale * rng.standard_normal(op.dim)
            got = op.batch_components(x, idx)
            assert got.shape == (len(idx), op.dim)
            np.testing.assert_array_equal(got, B[idx] @ x + c[idx])
            np.testing.assert_array_equal(got, (B @ x + c)[idx])


def test_bilinear_problem_rotation():
    prob = bilinear_problem(2)
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert prob.forward.full(x) == pytest.approx([3.0, 4.0, -1.0, -2.0])
    assert prob.lipschitz == pytest.approx(1.0)


def test_pe_antisymmetric_part_is_coupling_block():
    mdp = gen_random_mdp(15, 3, seed=20)
    trans = sample_transitions(mdp, 40, uniform_features(15, 5, seed=21),
                               seed=22)
    d = trans.d
    G, _ = mean_map(build_pe_problem(trans, gamma=0.9, tau_reg=0.0).forward)
    sym = 0.5 * (G + G.T)
    anti = 0.5 * (G - G.T)
    # symmetric part lives entirely in the w-block (PSD C-hat)
    assert np.allclose(sym[:d, :], 0.0, atol=1e-14)
    assert np.allclose(sym[d:, :d], 0.0, atol=1e-14)
    assert np.linalg.eigvalsh(sym[d:, d:]).min() >= -1e-12
    # antisymmetric part is exactly the coupling block
    assert np.allclose(anti[:d, d:], G[:d, d:], atol=1e-14)
    assert np.allclose(anti[d:, d:], 0.0, atol=1e-14)
