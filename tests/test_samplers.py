import numpy as np
import pytest

from equiguide.autodiff import Tensor, backward, norm_sq, sub
from equiguide.equi import EquiLossConfig, EquivariantFunction, equi_loss
from equiguide.gmm import GMMPrior, sample_gmm
from equiguide.groups import make_group
from equiguide.models import AnalyticGmmScore, tweedie_x0_traced
from equiguide.operators import make_operator
from equiguide.samplers import (
    SamplerConfig,
    SamplerError,
    ancestral_sample,
    ddim_sample,
    dps_sample,
    equi_dps_sample,
    equi_psld_sample,
    equi_resample_sample,
    equi_sitcom_sample,
    expected_reg_count,
    step_indices,
    stochastic_resample,
)
from equiguide.schedule import make_linear_schedule


SCHED = make_linear_schedule(40, 1e-3, 0.08)


def gauss_model(d=2, sched=SCHED):
    return AnalyticGmmScore(GMMPrior(np.array([1.0]), np.zeros((1, d)), np.eye(d)[None]), sched)


def pair_model(sched=SCHED):
    prior = GMMPrior(
        np.array([0.5, 0.5]),
        np.array([[1.2, 0.0], [-1.2, 0.0]]),
        np.stack([0.15 * np.eye(2)] * 2),
    )
    return AnalyticGmmScore(prior, sched)


class IdentityAE:
    """Latent space == pixel space; used to cross-check latent reductions."""

    def __init__(self, shape):
        self.shape = tuple(shape)

    def encode(self, x):
        return x

    def decode(self, z):
        return z

    def latent_shape(self):
        return self.shape


def vec_probe():
    action = make_group({"group": "permutation", "perm": [1, 0]})
    return EquivariantFunction(lambda z: z, action, h=lambda x: x, name="identity")


# -- step indexing ------------------------------------------------------------------


def test_step_indices_full_schedule():
    assert step_indices(10, 10) == list(range(1, 11))


def test_step_indices_subsampled_even():
    assert step_indices(1000, 100) == list(range(10, 1001, 10))


def test_step_indices_bounds():
    with pytest.raises(ValueError):
        step_indices(10, 11)
    with pytest.raises(ValueError):
        step_indices(10, 0)


# -- unconditional ------------------------------------------------------------------


def test_ancestral_single_gaussian_moments():
    # fine schedule: the ancestral lower-bound variance choice is only exact
    # in the many-small-steps regime
    sched = make_linear_schedule(1000, 1e-4, 0.02)
    model = gauss_model(sched=sched)
    cfg = SamplerConfig(algorithm="ancestral", steps=1000, seed=0)
    traj = ancestral_sample(model, cfg, n=5000)
    X = traj.final
    assert abs(X.mean()) < 0.05
    cov = np.cov(X.T)
    assert np.linalg.norm(cov - np.eye(2)) < 0.05 * np.linalg.norm(np.eye(2)) + 0.05


def test_ancestral_bit_identical_given_seed():
    model = pair_model()
    cfg = SamplerConfig(algorithm="ancestral", steps=40, seed=3, record_states=True)
    a = ancestral_sample(model, cfg)
    b = ancestral_sample(model, cfg)
    np.testing.assert_array_equal(a.final, b.final)
    for sa, sb in zip(a.states, b.states):
        np.testing.assert_array_equal(sa, sb)


def test_degenerate_single_step_chain():
    sched = make_linear_schedule(1, 0.5, 0.5)
    model = gauss_model(sched=sched)
    traj = ancestral_sample(model, SamplerConfig(algorithm="ancestral", steps=1, seed=0))
    assert np.isfinite(traj.final).all()
    assert len(traj.records) == 1


def test_record_count_equals_steps():
    model = pair_model()
    traj = ancestral_sample(model, SamplerConfig(algorithm="ancestral", steps=17, seed=0))
    assert len(traj.records) == 17


def test_ddim_deterministic_at_zero_eta():
    model = pair_model()
    cfg = SamplerConfig(algorithm="ddim", steps=20, seed=5)
    a = ddim_sample(model, cfg)
    b = ddim_sample(model, cfg)
    np.testing.assert_array_equal(a.final, b.final)


# -- DPS family ---------------------------------------------------------------------


def _dps_setup(seed=0):
    model = pair_model()
    op = make_operator({"kind": "box-inpaint", "box": [0, 0, 1, 1], "shape": [1, 2], "sigma_y": 0.05})
    # operator works on shape (1, 2); treat vectors as 1x2 grids
    op2 = make_operator({"kind": "identity", "sigma_y": 0.05})
    rng = np.random.default_rng(seed)
    x_true = sample_gmm(model.prior, 1, rng)[0]
    y = x_true + 0.05 * rng.standard_normal(2)
    return model, op2, y


def test_dps_reduction_identity():
    model, op, y = _dps_setup()
    m = vec_probe()
    cfg0 = SamplerConfig(algorithm="dps", steps=40, zeta=0.3, seed=7, record_states=True)
    cfg1 = SamplerConfig(algorithm="equi-dps", steps=40, zeta=0.3, seed=7, record_states=True,
                         equi=EquiLossConfig(lam=0.0))
    base = dps_sample(model, op, y, cfg0)
    equi = equi_dps_sample(model, op, y, m, cfg1)
    np.testing.assert_array_equal(base.final, equi.final)
    for sa, sb in zip(base.states, equi.states):
        np.testing.assert_array_equal(sa, sb)


def test_equi_dps_same_chain_noise_as_baseline():
    # with lam > 0 the proposal noise stream must match the baseline's
    model, op, y = _dps_setup()
    m = vec_probe()
    cfg0 = SamplerConfig(algorithm="dps", steps=40, zeta=0.0, seed=11, record_states=True)
    cfg1 = SamplerConfig(algorithm="equi-dps", steps=40, zeta=0.0, seed=11, record_states=True,
                         equi=EquiLossConfig(lam=1e-12))
    base = dps_sample(model, op, y, cfg0)
    equi = equi_dps_sample(model, op, y, m, cfg1)
    # identical up to the vanishing regularizer push
    assert np.allclose(base.final, equi.final, atol=1e-8)


def test_guidance_gradient_zero_when_measurement_matches():
    model, op, _ = _dps_setup()
    rng = np.random.default_rng(1)
    x = rng.standard_normal(2)
    leaf = Tensor(x, requires_grad=True)
    x0t = tweedie_x0_traced(leaf, 20, model)
    y = x0t.data.copy()  # measurement equals the current estimate, A = identity
    loss = norm_sq(sub(y, op.apply(x0t)))  # the samplers' squared measurement loss
    backward(loss)
    np.testing.assert_allclose(leaf.grad, np.zeros(2), atol=1e-14)


def test_equi_dps_period_and_early_stop_counts():
    model, op, y = _dps_setup()
    m = vec_probe()
    for steps, period, frac in [(40, 1, 0.1), (40, 5, 0.1), (30, 2, 0.0), (20, 10, 0.25)]:
        cfg = SamplerConfig(
            algorithm="equi-dps", steps=steps, zeta=0.1, seed=0,
            equi=EquiLossConfig(lam=0.05, period=period, early_stop_frac=frac),
        )
        traj = equi_dps_sample(model, op, y, m, cfg)
        assert traj.counts["equi_grads"] == expected_reg_count(steps, cfg.equi), (steps, period, frac)


def test_equi_dps_trajectory_finite_and_recorded():
    model, op, y = _dps_setup()
    m = vec_probe()
    cfg = SamplerConfig(algorithm="equi-dps", steps=25, zeta=0.2, seed=1,
                        equi=EquiLossConfig(lam=0.01))
    traj = equi_dps_sample(model, op, y, m, cfg)
    assert len(traj.records) == 25
    assert all(np.isfinite(r.meas_loss) and np.isfinite(r.equi_loss) for r in traj.records)


# -- PSLD family --------------------------------------------------------------------


def _latent_setup(seed=0):
    model = pair_model()
    ae = IdentityAE((2,))
    op = make_operator({"kind": "identity", "sigma_y": 0.05})
    rng = np.random.default_rng(seed)
    x_true = sample_gmm(model.prior, 1, rng)[0]
    y = x_true + 0.05 * rng.standard_normal(2)
    return model, ae, op, y


def test_psld_reduction_identity():
    model, ae, op, y = _latent_setup()
    m = vec_probe()
    cfg0 = SamplerConfig(algorithm="psld", steps=30, eta_psld=0.2, gamma_psld=0.05,
                         seed=9, record_states=True)
    cfg1 = SamplerConfig(algorithm="equi-psld", steps=30, eta_psld=0.2, gamma_psld=0.05,
                         seed=9, record_states=True, equi=EquiLossConfig(lam=0.0))
    base = equi_psld_sample(model, ae, op, y, None, cfg0)
    equi = equi_psld_sample(model, ae, op, y, m, cfg1)
    np.testing.assert_array_equal(base.final, equi.final)


def test_equicon_psld_reduction_identity():
    model, ae, op, y = _latent_setup()
    m = vec_probe()
    cfg0 = SamplerConfig(algorithm="psld", steps=20, seed=4, record_states=True)
    cfg1 = SamplerConfig(algorithm="equicon-psld", steps=20, seed=4, record_states=True,
                         equi=EquiLossConfig(lam=0.0))
    base = equi_psld_sample(model, ae, op, y, None, cfg0)
    equi = equi_psld_sample(model, ae, op, y, m, cfg1)
    np.testing.assert_array_equal(base.final, equi.final)


def test_psld_with_zero_gluing_matches_latent_dps():
    model, ae, op, y = _latent_setup()
    cfgp = SamplerConfig(algorithm="psld", steps=30, eta_psld=0.25, gamma_psld=0.0,
                         seed=13, record_states=True)
    cfgd = SamplerConfig(algorithm="dps", steps=30, zeta=0.25, seed=13, record_states=True)
    for n in (1, 3):
        a = equi_psld_sample(model, ae, op, y, None, cfgp, n_chains=n)
        b = dps_sample(model, op, y, cfgd, n_chains=n)
        assert a.final.shape == (n, 2)
        for sa, sb in zip(a.states, b.states):
            np.testing.assert_array_equal(sa, sb)


def test_psld_rejects_nonlinear_operator():
    model, ae, _, y = _latent_setup()
    op = make_operator({"kind": "saturate", "scale": 2.0, "sigma_y": 0.05})
    with pytest.raises(SamplerError):
        equi_psld_sample(model, ae, op, y, None, SamplerConfig(algorithm="psld", steps=5, seed=0))


def test_psld_gluing_near_zero_for_identity_operator_perfect_ae():
    # A = identity: gluing target reduces to E(A^T y + D(z) - A^T A D(z)) = E(y)
    model, ae, op, y = _latent_setup()
    cfg = SamplerConfig(algorithm="psld", steps=30, eta_psld=0.2, gamma_psld=0.1, seed=2)
    traj = equi_psld_sample(model, ae, op, y, None, cfg)
    assert np.isfinite(traj.final).all()


# -- ReSample family ----------------------------------------------------------------


def test_resample_empty_set_is_pure_ddim():
    model, ae, op, y = _latent_setup()
    cfg_r = SamplerConfig(algorithm="resample", steps=20, seed=6, resample_steps=[],
                          record_states=True)
    cfg_d = SamplerConfig(algorithm="ddim", steps=20, seed=6, record_states=True)
    for n in (1, 3):
        a = equi_resample_sample(model, ae, op, y, None, cfg_r, n_chains=n)
        b = ddim_sample(model, cfg_d, n=n)
        assert a.final.shape == (n, 2)
        for sa, sb in zip(a.states, b.states):
            np.testing.assert_array_equal(sa, sb)


def test_resample_reduction_identity():
    model, ae, op, y = _latent_setup()
    m = vec_probe()
    common = dict(steps=15, seed=8, k_meas=5, inner_lr=0.1, gamma_resample=10.0,
                  record_states=True)
    cfg0 = SamplerConfig(algorithm="resample", **common)
    cfg1 = SamplerConfig(algorithm="equi-resample", equi=EquiLossConfig(lam=0.0), **common)
    cfg2 = SamplerConfig(algorithm="equicon-resample", equi=EquiLossConfig(lam=0.0), **common)
    base = equi_resample_sample(model, ae, op, y, None, cfg0)
    e1 = equi_resample_sample(model, ae, op, y, m, cfg1)
    e2 = equi_resample_sample(model, ae, op, y, m, cfg2)
    np.testing.assert_array_equal(base.final, e1.final)
    np.testing.assert_array_equal(base.final, e2.final)


def test_resample_inner_loop_reduces_residual():
    model, ae, op, y = _latent_setup()
    cfg = SamplerConfig(algorithm="resample", steps=15, seed=1, k_meas=10, inner_lr=0.2,
                        gamma_resample=5.0)
    traj = equi_resample_sample(model, ae, op, y, None, cfg)
    assert traj.counts["inner_steps"] > 0
    # the final state is data-consistent-ish
    assert np.linalg.norm(op.apply(traj.final) - y) < np.linalg.norm(y) + 1.0


def test_stochastic_resample_large_gamma_keeps_proposal_mean():
    rng = np.random.default_rng(0)
    z0 = rng.standard_normal(4)
    zp = rng.standard_normal(4)
    out = np.mean(
        [stochastic_resample(z0, zp, 1e12, 0.5, np.random.default_rng(i), 0.9) for i in range(2000)],
        axis=0,
    )
    np.testing.assert_allclose(out, zp, atol=0.05)


def test_stochastic_resample_zero_variance_returns_scaled_estimate():
    z0 = np.ones(3)
    out = stochastic_resample(z0, np.zeros(3), 5.0, 0.0, np.random.default_rng(0), 1.0)
    np.testing.assert_array_equal(out, z0)


# -- SITCOM family ------------------------------------------------------------------


def test_sitcom_reduction_identity():
    model, op, y = _dps_setup()
    m = vec_probe()
    common = dict(steps=10, seed=3, k_meas=4, inner_lr=0.1, delta=1e-4, record_states=True)
    cfg0 = SamplerConfig(algorithm="sitcom", k_equi=0, **common)
    cfg1 = SamplerConfig(algorithm="equi-sitcom", k_equi=0, **common)
    base = equi_sitcom_sample(model, op, y, None, cfg0)
    equi = equi_sitcom_sample(model, op, y, m, cfg1)
    np.testing.assert_array_equal(base.final, equi.final)


def test_sitcom_zero_inner_iterations_when_already_consistent():
    model, op, y = _dps_setup()
    cfg = SamplerConfig(algorithm="sitcom", steps=5, seed=0, k_meas=10, delta=1e6)
    traj = equi_sitcom_sample(model, op, y, None, cfg)
    assert traj.counts["inner_meas_steps"] == 0  # residual < delta^2 before any step


def test_sitcom_inner_counts_recorded():
    model, op, y = _dps_setup()
    m = vec_probe()
    cfg = SamplerConfig(algorithm="equi-sitcom", steps=8, seed=1, k_meas=3, k_equi=2,
                        inner_lr=0.05, delta=1e-6)
    traj = equi_sitcom_sample(model, op, y, m, cfg)
    assert traj.counts["inner_meas_steps"] <= 8 * 3
    assert traj.counts["inner_meas_steps"] > 0
    # identity probe has zero equivariance error: stage 2 stops immediately
    assert traj.counts["inner_equi_steps"] == 0


def test_sitcom_equi_stage_runs_on_imperfect_probe():
    model, op, y = _dps_setup()
    action = make_group({"group": "permutation", "perm": [1, 0]})
    from equiguide.autodiff import mul as tmul

    # anisotropic scaling does not commute with the swap
    m = EquivariantFunction(lambda z: tmul(z, np.array([1.0, 2.0])), action)
    cfg = SamplerConfig(algorithm="equi-sitcom", steps=6, seed=2, k_meas=2, k_equi=3,
                        inner_lr=0.02, delta=1e-9)
    traj = equi_sitcom_sample(model, op, y, m, cfg)
    assert traj.counts["inner_equi_steps"] > 0


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(algorithm="warp")
    with pytest.raises(ValueError):
        SamplerConfig(steps=0)
    with pytest.raises(ValueError):
        SamplerConfig(zeta=-1.0)
