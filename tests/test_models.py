import numpy as np
import pytest

from equiguide.autodiff import Tensor, backward, tsum
from equiguide.containers import load_tensors, save_tensors
from equiguide.gmm import GMMPrior, posterior_mean_x0, sample_gmm
from equiguide.models import (
    AnalyticGmmScore,
    DenoiserScore,
    load_score_model,
    save_score_model,
    train_denoiser,
    tweedie_x0,
)
from equiguide.schedule import NoiseSchedule, make_linear_schedule


def test_tweedie_quarter_alpha_bar():
    sched = NoiseSchedule(T=1, beta=np.array([0.75]))  # abar_1 = 0.25
    model = AnalyticGmmScore(GMMPrior(np.array([1.0]), np.zeros((1, 2)), np.eye(2)[None]), sched)
    out = tweedie_x0(np.array([1.0, 0.0]), 1, model)
    np.testing.assert_allclose(out, [0.5, 0.0], atol=1e-12)


def test_tweedie_no_noise_limit():
    sched = NoiseSchedule(T=1, beta=np.array([1e-10]))
    model = AnalyticGmmScore(GMMPrior(np.array([1.0]), np.zeros((1, 3)), np.eye(3)[None]), sched)
    x = np.array([0.3, -0.7, 1.1])
    np.testing.assert_allclose(tweedie_x0(x, 1, model), x, atol=1e-8)


def test_tweedie_matches_gaussian_closed_form_all_t():
    sched = make_linear_schedule(200, 1e-4, 0.05)
    mu = np.array([0.7, -0.3])
    s0 = 0.6  # prior variance
    prior = GMMPrior(np.array([1.0]), mu[None], (s0 * np.eye(2))[None])
    model = AnalyticGmmScore(prior, sched)
    rng = np.random.default_rng(0)
    for t in range(1, 201):
        abar = sched.abar(t)
        x = rng.standard_normal(2)
        var = abar * s0 + 1 - abar
        expected = mu + np.sqrt(abar) * s0 / var * (x - np.sqrt(abar) * mu)
        np.testing.assert_allclose(tweedie_x0(x, t, model), expected, atol=1e-6)


def test_tweedie_equals_brute_force_mixture_conditioning():
    sched = make_linear_schedule(100, 1e-4, 0.05)
    prior = GMMPrior(
        np.array([0.4, 0.6]),
        np.array([[1.0, 0.5], [-1.0, -0.5]]),
        np.stack([0.3 * np.eye(2), np.array([[0.5, 0.1], [0.1, 0.2]])]),
    )
    model = AnalyticGmmScore(prior, sched)
    rng = np.random.default_rng(1)
    for t in (3, 25, 60, 100):
        x = rng.standard_normal(2)
        np.testing.assert_allclose(
            tweedie_x0(x, t, model), posterior_mean_x0(prior, x, t, sched), atol=1e-9
        )


def test_tweedie_traced_differentiable():
    sched = make_linear_schedule(50, 1e-3, 0.05)
    prior = GMMPrior(np.array([1.0]), np.zeros((1, 2)), np.eye(2)[None])
    model = AnalyticGmmScore(prior, sched)
    leaf = Tensor(np.array([0.5, -0.5]), requires_grad=True)
    backward(tsum(tweedie_x0(leaf, 10, model)))
    # for N(0, I) prior, x0|t = sqrt(abar) x, so d sum/dx = sqrt(abar) per coord
    np.testing.assert_allclose(leaf.grad, np.sqrt(sched.abar(10)) * np.ones(2), atol=1e-9)


SCHED = make_linear_schedule(100, 1e-3, 0.1)


def test_train_denoiser_zero_steps_flagged_untrained():
    data = np.zeros((4, 2))
    model = train_denoiser(data, SCHED, {"steps": 0})
    assert model.trained is False


def test_train_denoiser_empty_dataset_rejected():
    with pytest.raises(ValueError):
        train_denoiser([], SCHED, {"steps": 1})


def test_train_denoiser_single_point_tweedie_recovers_it():
    p = np.array([1.0, -2.0, 0.5])
    data = np.tile(p, (16, 1))
    model = train_denoiser(data, SCHED, {"steps": 800, "batch_size": 16, "seed": 0})
    assert model.trained
    # at small noise the denoised estimate returns the point
    t = 5
    rng = np.random.default_rng(2)
    abar = SCHED.abar(t)
    x_t = np.sqrt(abar) * p + np.sqrt(1 - abar) * rng.standard_normal(3)
    est = tweedie_x0(x_t, t, model)
    assert np.linalg.norm(est - p) < 0.1 * np.linalg.norm(p)


def test_train_denoiser_loss_halves():
    rng = np.random.default_rng(3)
    prior = GMMPrior(np.array([0.5, 0.5]), np.array([[1.5, 0.0], [-1.5, 0.0]]),
                     np.stack([0.2 * np.eye(2)] * 2))
    data = sample_gmm(prior, 256, rng)
    model = train_denoiser(data, SCHED, {"steps": 600, "seed": 1})
    initial = model.loss_history[0]
    last = np.mean(model.loss_history[-20:])
    assert last <= 0.5 * initial


def test_trained_score_close_to_analytic_mid_t():
    rng = np.random.default_rng(4)
    prior = GMMPrior(np.array([0.5, 0.5]), np.array([[1.5, 0.0], [-1.5, 0.0]]),
                     np.stack([0.2 * np.eye(2)] * 2))
    data = sample_gmm(prior, 512, rng)
    model = train_denoiser(data, SCHED, {"steps": 1500, "seed": 2})
    analytic = AnalyticGmmScore(prior, SCHED)
    t = 50
    abar = SCHED.abar(t)
    x0 = sample_gmm(prior, 200, rng)
    x_t = np.sqrt(abar) * x0 + np.sqrt(1 - abar) * rng.standard_normal(x0.shape)
    s_hat = model.score(x_t, t)
    s_ref = analytic.score(x_t, t)
    cos = np.sum(s_hat * s_ref, axis=1) / (
        np.linalg.norm(s_hat, axis=1) * np.linalg.norm(s_ref, axis=1) + 1e-12
    )
    assert cos.mean() > 0.9


def test_training_invariant_under_dataset_permutation():
    rng = np.random.default_rng(5)
    data = rng.standard_normal((32, 2))
    perm = rng.permutation(32)
    m1 = train_denoiser(data, SCHED, {"steps": 50, "seed": 7})
    m2 = train_denoiser(data[perm], SCHED, {"steps": 50, "seed": 7})
    np.testing.assert_array_equal(m1.loss_history, m2.loss_history)
    for k in m1.net.params:
        np.testing.assert_array_equal(m1.net.params[k], m2.net.params[k])


def test_loss_history_non_negative():
    data = np.random.default_rng(6).standard_normal((16, 2))
    model = train_denoiser(data, SCHED, {"steps": 30, "seed": 0})
    assert all(v >= 0.0 for v in model.loss_history)


def test_grid_denoiser_trains_and_scores():
    rng = np.random.default_rng(7)
    data = rng.random((32, 8, 8))
    model = train_denoiser(data, SCHED, {"steps": 60, "seed": 0, "width": 8})
    s = model.score(rng.standard_normal((8, 8)), 10)
    assert s.shape == (8, 8) and np.isfinite(s).all()
    sb = model.score(rng.standard_normal((3, 8, 8)), 10)
    assert sb.shape == (3, 8, 8)


def test_checkpoint_roundtrip(tmp_path):
    data = np.random.default_rng(8).standard_normal((16, 2))
    model = train_denoiser(data, SCHED, {"steps": 40, "seed": 3})
    path = tmp_path / "denoiser.eqc"
    save_score_model(path, model)
    back = load_score_model(path)
    x = np.random.default_rng(9).standard_normal((5, 2))
    np.testing.assert_array_equal(model.score(x, 20), back.score(x, 20))
    assert back.trained
    assert len(model.loss_history) == 40 and back.loss_history == model.loss_history
    # a checkpoint written without a history reads back an empty one
    tensors, manifest = load_tensors(path)
    del manifest["loss_history"]
    save_tensors(path, tensors, manifest=manifest)
    assert load_score_model(path).loss_history == []
