import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vrfrbs.core import (CallCounter, apply_resolvent,
                         ball_box_resolvent, eval_full,
                         fb_residual, identity_resolvent,
                         soft_threshold_resolvent)
from vrfrbs.problems import (affine_problem_from_components, linear_toy,
                             strongly_monotone_affine)

from helpers import instrumented_problem


def two_component_op():
    # G_1(x) = x, G_2(x) = 3x
    B = np.stack([np.eye(1), 3.0 * np.eye(1)])
    c = np.zeros((2, 1))
    return affine_problem_from_components(B, c).forward


def test_eval_full_mean_of_components():
    op = two_component_op()
    assert eval_full(op, np.array([1.0])) == pytest.approx([2.0])


def test_eval_full_linear_at_zero():
    op = two_component_op()
    assert eval_full(op, np.array([0.0])) == pytest.approx([0.0])


def test_eval_full_dimension_mismatch():
    op = two_component_op()
    with pytest.raises(ValueError, match="dimension"):
        eval_full(op, np.zeros(3))


def test_eval_full_counter_and_free_mode():
    op = two_component_op()
    counter = CallCounter()
    eval_full(op, np.array([1.0]), counter=counter)
    assert counter.count == 2
    # free mode: no counter, nothing charged anywhere
    eval_full(op, np.array([1.0]))
    assert counter.count == 2


def test_eval_batch_full_set_matches_full():
    prob = linear_toy(n=7, dim=3, seed=5)
    x = np.array([0.3, -1.0, 2.0])
    full = eval_full(prob.forward, x)
    batch = prob.forward.batch_mean(x, np.arange(7))
    assert np.linalg.norm(full - batch) <= 1e-10 * (1 + np.linalg.norm(full))


def test_eval_batch_duplicates():
    prob = linear_toy(n=5, dim=2, seed=2)
    x = np.array([1.0, -2.0])
    gi = prob.forward.batch_components(x, np.array([3]))[0]
    assert prob.forward.batch_mean(x, np.array([3, 3])) == pytest.approx(gi)


def test_eval_batch_hand_mean():
    # n=3 toy linear components, batch {0, 2}: hand summation
    B = np.stack([np.eye(2), 2.0 * np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])])
    c = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, -1.0]])
    op = affine_problem_from_components(B, c).forward
    x = np.array([2.0, 1.0])
    expected = 0.5 * ((x + c[0]) + (B[2] @ x + c[2]))
    assert op.batch_mean(x, np.array([0, 2])) == pytest.approx(expected)


def test_ball_projection_radial_scaling():
    res = ball_box_resolvent(5.0, [1.0])
    z = np.array([6.0, 8.0, 0.0])
    out = apply_resolvent(res, z)
    assert out[:2] == pytest.approx([3.0, 4.0])


def test_soft_threshold_closed_form():
    res = soft_threshold_resolvent(1.0, 3)
    out = apply_resolvent(res, np.array([2.0, -0.5, 0.0]), eta=1.0)
    assert out == pytest.approx([1.0, 0.0, 0.0])


def test_soft_threshold_scales_with_eta():
    res = soft_threshold_resolvent(2.0, 1)
    out = apply_resolvent(res, np.array([2.0]), eta=0.25)  # lam = 0.5
    assert out == pytest.approx([1.5])


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("eta, weight", [(0.5, 0.6), (1.0, 0.0), (0.0, 2.0)])
def test_soft_threshold_matches_copysign_form(seed, eta, weight):
    # == treats +0 and -0 as equal: the in-place form may give either sign
    # on a zeroed entry, and every other entry must carry the same bits
    rng = np.random.default_rng(seed)
    lam = eta * weight
    theta_dim = 40
    z = rng.uniform(-3.0, 3.0, 60) * max(lam, 1.0)
    z[:8] = [lam, -lam, 0.0, -0.0, lam / 2, -lam / 2,
             np.nextafter(lam, np.inf), -np.nextafter(lam, np.inf)]
    out = apply_resolvent(soft_threshold_resolvent(weight, theta_dim), z, eta)
    want = z.copy()
    want[:theta_dim] = np.copysign(
        np.maximum(np.abs(z[:theta_dim]) - lam, 0.0), z[:theta_dim])
    assert np.all(out == want)
    assert np.array_equal(out[theta_dim:], z[theta_dim:])
    assert out is not z


def test_box_clip():
    res = ball_box_resolvent(np.inf, [5.0])
    out = apply_resolvent(res, np.array([0.0, 7.0]))
    assert out[1] == pytest.approx(5.0)


def test_infinite_radius_is_identity_on_ball_block():
    res = ball_box_resolvent(np.inf, [2.0])
    z = np.array([100.0, -200.0, 1.0])
    out = apply_resolvent(res, z)
    assert out[:2] == pytest.approx(z[:2])


def _resolvent_zoo():
    return [identity_resolvent(),
            ball_box_resolvent(2.0, [1.0, 1.0, 2.0]),
            soft_threshold_resolvent(0.7, 3)]


@pytest.mark.parametrize("res", _resolvent_zoo())
def test_projection_idempotent(res):
    rng = np.random.default_rng(11)
    for _ in range(50):
        z = 5.0 * rng.standard_normal(6)
        once = apply_resolvent(res, z, eta=0.3)
        twice = apply_resolvent(res, once, eta=0.3)
        if res.kind != "soft-threshold":
            assert np.allclose(once, twice, atol=1e-14)
        else:
            # proximal maps are not projections; just confirm the dead zone
            assert np.all(np.abs(once[:3]) <= np.abs(z[:3]))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_resolvents_nonexpansive(seed):
    rng = np.random.default_rng(seed)
    z1 = 10.0 * rng.standard_normal(6)
    z2 = 10.0 * rng.standard_normal(6)
    for res in _resolvent_zoo():
        d_in = np.linalg.norm(z1 - z2)
        d_out = np.linalg.norm(apply_resolvent(res, z1, 0.5)
                               - apply_resolvent(res, z2, 0.5))
        assert d_out <= d_in + 1e-12


# --- forward-backward residual --------------------------------------------

def test_residual_identity_operator():
    B = np.eye(1)[None, :, :]
    c = np.zeros((1, 1))
    prob = affine_problem_from_components(B, c)
    r, _ = fb_residual(prob, 0.1, np.array([1.0]))
    assert r == pytest.approx([1.0])
    prob2 = affine_problem_from_components(
        np.stack([np.eye(2)]), np.zeros((1, 2)))
    r2, n2 = fb_residual(prob2, 0.1, np.array([1.0, 0.0]))
    assert r2 == pytest.approx([1.0, 0.0])
    assert n2 == pytest.approx(1.0)


def test_residual_zero_at_known_solution():
    prob = strongly_monotone_affine(dim=8, n_components=6, seed=4)
    x_star = prob.known_solution
    _, nrm = fb_residual(prob, 0.2, x_star)
    assert nrm <= 1e-8 * (1 + np.linalg.norm(x_star))


def test_residual_prox_hand_computed():
    # 2-dim problem (theta, w), single transition-style affine map with a
    # soft-threshold on theta; hand evaluation of the prox residual with
    # theta inside the dead zone and w at the linear solve of its block.
    from vrfrbs.core import InclusionProblem, soft_threshold_resolvent

    A, C, b = 0.5, 1.0, 1.0
    B = np.array([[[0.0, -A], [A, C]]])
    c = np.array([[0.0, -b]])
    op = affine_problem_from_components(B, c).forward
    tau_reg = 2.0
    prob = InclusionProblem(forward=op,
                            resolvent=soft_threshold_resolvent(tau_reg, 1),
                            lipschitz=1.5)
    eta = 0.1
    theta, w = 0.0, 1.0  # w solves A*theta + C*w - b = 0 at theta = 0
    x = np.array([theta, w])
    g = np.array([-A * w, A * theta + C * w - b])  # = (-0.5, 0)
    z = x - eta * g  # (0.05, 1.0)
    lam = eta * tau_reg  # 0.2 > 0.05: theta lands in the dead zone
    jz = np.array([0.0, z[1]])
    expected = (x - jz) / eta  # = (0, 0)
    r, nrm = fb_residual(prob, eta, x)
    assert r == pytest.approx(expected, abs=1e-15)
    assert nrm == pytest.approx(0.0, abs=1e-15)
    assert lam > abs(z[0])


def test_residual_unmetered_by_default():
    # both calls evaluate G(x); only the one given a counter charges it
    prob, wrapped = instrumented_problem(linear_toy(n=6, dim=3, seed=9))
    counter = CallCounter()
    fb_residual(prob, 0.3, np.zeros(3))
    assert (wrapped.observed, counter.count) == (6, 0)
    fb_residual(prob, 0.3, np.zeros(3), counter=counter)
    assert (wrapped.observed, counter.count) == (12, 6)


def test_lipschitz_audit_on_toy():
    prob = linear_toy(n=10, dim=4, seed=7)
    op = prob.forward
    L2 = prob.lipschitz ** 2
    rng = np.random.default_rng(123)
    idx = np.arange(op.n)
    for _ in range(200):
        x = rng.standard_normal(4)
        y = rng.standard_normal(4)
        dx = x - y
        vals = op.batch_components(x, idx) - op.batch_components(y, idx)
        avg = np.einsum("ij,ij->i", vals, vals).mean()
        assert avg <= (1 + 1e-6) * L2 * np.dot(dx, dx)


def test_every_export_resolves():
    import vrfrbs
    assert len(set(vrfrbs.__all__)) == len(vrfrbs.__all__)
    missing = [name for name in vrfrbs.__all__ if not hasattr(vrfrbs, name)]
    assert missing == []
