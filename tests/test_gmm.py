import warnings

import numpy as np
import pytest

from equiguide.autodiff import NonFiniteValue, Tensor, backward, check_gradient, mul, tsum
from equiguide.gmm import (
    GMMPrior,
    gmm_logpdf,
    gmm_marginal_score,
    gmm_marginal_score_traced,
    gmm_posterior_exact,
    marginal_prior,
    posterior_mean_x0,
    sample_gmm,
)
from equiguide.schedule import make_linear_schedule


def std_normal(d):
    return GMMPrior(np.array([1.0]), np.zeros((1, d)), np.eye(d)[None])


def two_bumps_1d(sep=4.0, var=0.5):
    return GMMPrior(
        np.array([0.5, 0.5]),
        np.array([[-sep / 2], [sep / 2]]),
        np.array([[[var]], [[var]]]),
    )


SCHED = make_linear_schedule(100, 1e-4, 0.05)


def test_prior_validation():
    with pytest.raises(ValueError):
        GMMPrior(np.array([0.6, 0.5]), np.zeros((2, 2)), np.stack([np.eye(2)] * 2))
    with pytest.raises(np.linalg.LinAlgError):
        GMMPrior(np.array([1.0]), np.zeros((1, 2)), np.array([[[1.0, 0.0], [0.0, -1.0]]]))


def test_standard_normal_score_is_minus_x():
    prior = std_normal(3)
    rng = np.random.default_rng(0)
    for t in (1, 10, 50, 100):
        x = rng.standard_normal(3)
        np.testing.assert_allclose(gmm_marginal_score(prior, x, t, SCHED), -x, atol=1e-12)


def test_symmetric_mixture_score_on_axis():
    prior = two_bumps_1d()
    # marginal in 2-D: embed as symmetric pair across x=0 in 1-D; at x=0 score is 0
    s = gmm_marginal_score(prior, np.array([0.0]), 20, SCHED)
    assert abs(s[0]) < 1e-12


def test_far_tail_dominated_by_nearest_component():
    prior = two_bumps_1d(sep=8.0, var=0.3)
    t = 5
    gm = marginal_prior(prior, t, SCHED)
    x = np.array([8.0])  # deep in the right component's tail
    full = gmm_marginal_score(prior, x, t, SCHED)
    # score of the nearest marginal component alone
    direct = -(x - gm.means[1]) @ np.linalg.inv(gm.covariances[1])
    np.testing.assert_allclose(full, direct, atol=1e-6)


def test_score_matches_fd_of_logpdf_1d_2d():
    rng = np.random.default_rng(3)
    priors = [
        two_bumps_1d(),
        GMMPrior(
            np.array([0.3, 0.7]),
            np.array([[1.0, -1.0], [-2.0, 0.5]]),
            np.stack([np.array([[0.5, 0.2], [0.2, 0.8]]), 0.3 * np.eye(2)]),
        ),
    ]
    eps = 1e-6
    for prior in priors:
        d = prior.dim
        gm_cache = {}
        for _ in range(100):
            t = int(rng.integers(1, SCHED.T + 1))
            if t not in gm_cache:
                gm_cache[t] = marginal_prior(prior, t, SCHED)
            gm = gm_cache[t]
            x = rng.standard_normal(d) * 2.0
            s = gmm_marginal_score(prior, x, t, SCHED)
            fd = np.empty(d)
            for i in range(d):
                e = np.zeros(d)
                e[i] = eps
                fd[i] = (gmm_logpdf(gm, x + e) - gmm_logpdf(gm, x - e)) / (2 * eps)
            np.testing.assert_allclose(s, fd, atol=1e-6)


def test_traced_score_batched_matches_single():
    prior = GMMPrior(
        np.array([0.4, 0.6]),
        np.array([[0.5, 1.0, 0.0], [-1.0, 0.0, 0.3]]),
        np.stack([0.4 * np.eye(3), 0.9 * np.eye(3)]),
    )
    rng = np.random.default_rng(5)
    X = rng.standard_normal((7, 3))
    batched = gmm_marginal_score(prior, X, 30, SCHED)
    for i in range(7):
        np.testing.assert_allclose(batched[i], gmm_marginal_score(prior, X[i], 30, SCHED), atol=1e-12)


def test_traced_score_is_differentiable():
    prior = two_bumps_1d()
    x = Tensor(np.array([0.7]), requires_grad=True)
    s = gmm_marginal_score_traced(prior, x, 10, SCHED)
    backward(tsum(s))
    assert x.grad is not None and np.isfinite(x.grad).all()


SCHED1000 = make_linear_schedule(1000, 1e-4, 0.02)


def anisotropic_mixture(rng, k=5, d=3):
    """Unequal weights, spread means and random SPD covariances."""
    weights = rng.random(k) + 0.2
    factors = 0.6 * rng.standard_normal((k, d, d))
    covs = factors @ np.swapaxes(factors, 1, 2) + 0.1 * np.eye(d)
    return GMMPrior(weights / weights.sum(), 1.5 * rng.standard_normal((k, d)), covs)


@pytest.mark.parametrize("t", [1, 100, 1000])
@pytest.mark.parametrize("shape", [(3,), (4, 3)])
def test_traced_score_gradient_matches_finite_differences(t, shape):
    rng = np.random.default_rng(t + len(shape))
    prior = anisotropic_mixture(rng)
    w = Tensor(rng.standard_normal(shape))
    x = rng.standard_normal(shape)
    err = check_gradient(lambda v: tsum(mul(gmm_marginal_score_traced(prior, v, t, SCHED1000), w)), x)
    assert err < 1e-4


def test_traced_score_is_one_tape_op(monkeypatch):
    prior = anisotropic_mixture(np.random.default_rng(0))
    ops = []
    wrap = Tensor._wrap
    monkeypatch.setattr(Tensor, "_wrap", classmethod(
        lambda cls, data, parents, bwd, op: ops.append(op) or wrap(data, parents, bwd, op)))
    for shape in [(3,), (6, 3)]:
        ops.clear()
        x = Tensor(np.ones(shape), requires_grad=True)
        s = gmm_marginal_score_traced(prior, x, 10, SCHED)
        assert ops == ["gmm_score"] and s.shape == shape and s._parents == (x,)


def test_traced_score_overflow_raises_without_warnings():
    prior = anisotropic_mixture(np.random.default_rng(1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (np.full(3, 1e200), np.full((2, 3), 1e200)):
            with pytest.raises(NonFiniteValue):
                gmm_marginal_score_traced(prior, Tensor(x, requires_grad=True), 10, SCHED)


def test_sampling_moments():
    prior = std_normal(2)
    rng = np.random.default_rng(11)
    X = sample_gmm(prior, 10_000, rng)
    cov = np.cov(X.T)
    assert np.linalg.norm(cov - np.eye(2)) < 0.05 * np.linalg.norm(np.eye(2)) + 0.05


def test_sampling_zero_cov_limit():
    prior = GMMPrior(np.array([1.0]), np.array([[2.0, -1.0]]), (1e-12 * np.eye(2))[None])
    X = sample_gmm(prior, 50, np.random.default_rng(0))
    np.testing.assert_allclose(X, np.tile([2.0, -1.0], (50, 1)), atol=1e-4)


def test_sampling_deterministic_given_seed():
    prior = two_bumps_1d()
    a = sample_gmm(prior, 100, np.random.default_rng(42))
    b = sample_gmm(prior, 100, np.random.default_rng(42))
    np.testing.assert_array_equal(a, b)


# -- posterior oracle -------------------------------------------------------------


def test_posterior_observe_first_coordinate():
    prior = std_normal(2)
    A = np.array([[1.0, 0.0]])
    oracle = gmm_posterior_exact(prior, A, 1.0, np.array([2.0]))
    post = oracle.posterior
    np.testing.assert_allclose(post.means[0], [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(post.covariances[0], np.diag([0.5, 1.0]), atol=1e-12)


def test_posterior_identity_small_noise_collapses_to_y():
    prior = GMMPrior(
        np.array([0.5, 0.5]),
        np.array([[1.0, 1.0], [-1.0, -1.0]]),
        np.stack([np.eye(2)] * 2),
    )
    y = np.array([0.8, 1.2])
    oracle = gmm_posterior_exact(prior, np.eye(2), 1e-3, y)
    mean = oracle.posterior.weights @ oracle.posterior.means
    assert np.linalg.norm(mean - y) < 1e-3


def test_posterior_symmetric_weights():
    prior = GMMPrior(
        np.array([0.5, 0.5]),
        np.array([[-1.0, 0.0], [1.0, 0.0]]),
        np.stack([0.3 * np.eye(2)] * 2),
    )
    # observe the second coordinate only: symmetric in the first
    A = np.array([[0.0, 1.0]])
    oracle = gmm_posterior_exact(prior, A, 0.5, np.array([0.3]))
    np.testing.assert_allclose(oracle.posterior.weights, [0.5, 0.5], atol=1e-12)


def test_posterior_rejects_zero_noise():
    with pytest.raises(ValueError):
        gmm_posterior_exact(std_normal(2), np.array([[1.0, 0.0]]), 0.0, np.array([1.0]))


def test_posterior_self_consistency_moments():
    prior = GMMPrior(
        np.array([0.3, 0.7]),
        np.array([[2.0, 0.0], [-1.0, 1.0]]),
        np.stack([0.5 * np.eye(2), np.array([[0.7, 0.2], [0.2, 0.4]])]),
    )
    A = np.array([[1.0, 1.0]])
    oracle = gmm_posterior_exact(prior, A, 0.3, np.array([0.5]))
    post = oracle.posterior
    X = sample_gmm(post, 10_000, np.random.default_rng(7))
    exact_mean = post.weights @ post.means
    second = sum(
        w * (C + np.outer(m, m)) for w, m, C in zip(post.weights, post.means, post.covariances)
    )
    exact_cov = second - np.outer(exact_mean, exact_mean)
    assert np.linalg.norm(X.mean(axis=0) - exact_mean) < 0.05 * (1 + np.linalg.norm(exact_mean))
    assert np.linalg.norm(np.cov(X.T) - exact_cov) < 0.05 * (1 + np.linalg.norm(exact_cov))


def test_posterior_mean_x0_brute_force_consistency():
    # Tweedie identity checked later against this independent computation
    prior = GMMPrior(
        np.array([0.5, 0.5]),
        np.array([[1.5, 0.0], [-1.5, 0.0]]),
        np.stack([0.2 * np.eye(2)] * 2),
    )
    x_t = np.array([0.3, -0.2])
    t = 40
    m = posterior_mean_x0(prior, x_t, t, SCHED)
    # direct numeric integration over a grid as a second, cruder oracle
    gs = np.linspace(-4, 4, 161)
    gx, gy = np.meshgrid(gs, gs, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    abar = SCHED.abar(t)
    log_prior = gmm_logpdf(prior, pts)
    diff = x_t - np.sqrt(abar) * pts
    log_lik = -0.5 * np.sum(diff * diff, axis=1) / (1 - abar)
    w = np.exp(log_prior + log_lik - (log_prior + log_lik).max())
    w /= w.sum()
    numeric = w @ pts
    np.testing.assert_allclose(m, numeric, atol=5e-3)
