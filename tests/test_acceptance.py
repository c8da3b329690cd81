"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s``. The shared trained models
come from session fixtures in conftest.py; everything is deterministic given
the fixed seeds below.
"""

import json
import time

import numpy as np
import pytest

from equiguide.autodiff import add, check_gradient, matmul, mul, norm_sq, reshape, sub
from equiguide.config import validate_config
from equiguide.datasets import gen_sym_shapes_grid, ring_distance
from equiguide.equi import (
    EquiLossConfig,
    EquivariantFunction,
    equi_loss,
    equicon_loss,
    mpe_sweep,
    train_autoencoder_augmented,
)
from equiguide.gmm import GMMPrior, gmm_posterior_exact, sample_gmm
from equiguide.groups import make_group
from equiguide.harness import cmd_gen_data, cmd_run, cmd_train
from equiguide.metrics import diversity, langevin_descent_probe, psnr, sliced_wasserstein
from equiguide.models import AnalyticGmmScore, tweedie_x0, tweedie_x0_traced
from equiguide.nn import MlpAutoencoder
from equiguide.operators import MeasurementOperator, forward, make_operator
from equiguide.samplers import (
    SamplerConfig,
    ancestral_sample,
    ddim_sample,
    dps_sample,
    equi_dps_sample,
    equi_psld_sample,
    equi_resample_sample,
    equi_sitcom_sample,
    expected_reg_count,
)
from equiguide.schedule import make_linear_schedule


def report(tag, ok, detail):
    line = f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# A1 gradient correctness
# ---------------------------------------------------------------------------


def test_a1_gradient_correctness():
    t0 = time.perf_counter()
    sched = make_linear_schedule(60, 1e-3, 0.05)
    d, d_lat = 8, 4
    prior = GMMPrior(
        np.array([0.5, 0.5]),
        np.stack([np.linspace(-1, 1, d), np.linspace(1, -1, d)]),
        np.stack([0.4 * np.eye(d)] * 2),
    )
    model = AnalyticGmmScore(prior, sched)
    lat_prior = GMMPrior(np.array([1.0]), np.zeros((1, d_lat)), (0.5 * np.eye(d_lat))[None])
    lat_model = AnalyticGmmScore(lat_prior, sched)
    mask = (np.arange(d) % 2).astype(float)
    op = MeasurementOperator(lambda x: mul(x, mask), 0.05, mask=mask)
    ae = MlpAutoencoder(d, [16, 16], d_lat, np.random.default_rng(3))
    probe = EquivariantFunction(lambda z: ae.decode(ae.encode(z)),
                                make_group({"group": "flip-h"}), name="ae")
    dec_probe = EquivariantFunction(ae.decode, make_group({"group": "flip-h"}),
                                    h=ae.encode, name="dec")
    M = op.matrix((d,))

    worst = {}
    for trial in range(10):
        rng = np.random.default_rng(100 + trial)
        # keep t away from the no-noise end, where masked coordinates stop
        # influencing the loss and the finite-difference oracle reads zero
        t = int(rng.integers(20, sched.T + 1))
        y = rng.standard_normal(d)
        x_anchor = rng.standard_normal(d)
        aty = M.T @ y

        def meas_loss(x):
            return norm_sq(sub(y, op.apply(tweedie_x0_traced(x, t, model))))

        def equi_reg(x):
            return equi_loss(probe, tweedie_x0_traced(x, t, model), 1)

        def equicon_reg(z):
            # latent chain: Tweedie in latent space, decode/encode round trip
            return equicon_loss(dec_probe, tweedie_x0_traced(z, t, lat_model), 1)

        def psld_glue(z):
            z0t = tweedie_x0_traced(z, t, lat_model)
            dz = ae.decode(z0t)
            atadz = reshape(matmul(reshape(op.apply(dz), (-1,)), M), dz.shape)
            return norm_sq(sub(z0t, ae.encode(sub(add(aty, dz), atadz))))

        def sitcom_stage1(v):
            est = tweedie_x0_traced(v, t, model)
            return add(norm_sq(sub(op.apply(est), y)), mul(norm_sq(sub(v, x_anchor)), 0.01))

        def sitcom_stage2(v):
            return equi_loss(probe, v, 1)

        for name, fn, dim in [("measurement", meas_loss, d), ("equi", equi_reg, d),
                              ("equicon", equicon_reg, d_lat), ("psld-gluing", psld_glue, d_lat),
                              ("sitcom-meas", sitcom_stage1, d), ("sitcom-equi", sitcom_stage2, d)]:
            err = check_gradient(fn, rng.standard_normal(dim), eps=1e-2)
            worst[name] = max(worst.get(name, 0.0), err)
            assert err < 1e-4, f"{name} trial {trial}: rel err {err}"

    elapsed = time.perf_counter() - t0
    detail = ", ".join(f"{k} {v:.2e}" for k, v in worst.items()) + f"; {elapsed:.0f}s"
    report("A1", all(v < 1e-4 for v in worst.values()) and elapsed < 120, detail)


# ---------------------------------------------------------------------------
# A2 exactness suite
# ---------------------------------------------------------------------------


def test_a2_exactness_suite():
    t0 = time.perf_counter()
    # group axioms, 1000 random triples per group, exact
    groups = [
        (make_group({"group": "flip-h"}), (6, 6)),
        (make_group({"group": "flip-v"}), (6, 6)),
        (make_group({"group": "rot90"}), (5, 5)),
        (make_group({"group": "cyclic-translate", "shift": 1, "length": 7}), (7,)),
        (make_group({"group": "permutation", "perm": [1, 2, 3, 0]}), (4,)),
    ]
    rng = np.random.default_rng(0)
    for g, shape in groups:
        x = rng.standard_normal(shape)
        for _ in range(1000):
            a, b, c = rng.integers(0, g.order, size=3)
            assert g.compose(g.compose(a, b), c) == g.compose(a, g.compose(b, c))
            np.testing.assert_array_equal(
                g.apply_domain(g.compose(a, b), x),
                g.apply_domain(a, g.apply_domain(b, x)),
            )
            np.testing.assert_array_equal(g.apply_domain(g.inverse(a), g.apply_domain(a, x)), x)

    # linear-operator adjoint identity, 100 trials per op, 1e-10 relative
    specs = [
        ({"kind": "identity"}, (6, 6)),
        ({"kind": "box-inpaint", "box": [1, 1, 3, 3], "shape": [6, 6]}, (6, 6)),
        ({"kind": "random-inpaint", "keep_prob": 0.5, "shape": [6, 6], "seed": 1}, (6, 6)),
        ({"kind": "gaussian-blur", "size": 3, "sigma": 1.0, "padding": "zero"}, (6, 6)),
        ({"kind": "gaussian-blur", "size": 3, "sigma": 1.0, "padding": "reflect"}, (6, 6)),
        ({"kind": "gaussian-blur", "size": 3, "sigma": 1.0, "padding": "circular"}, (6, 6)),
        ({"kind": "motion-blur", "size": 3, "orientation": "horizontal"}, (6, 6)),
        ({"kind": "downsample", "factor": 2}, (8, 8)),
    ]
    for spec, shape in specs:
        op = make_operator(spec)
        for _ in range(100):
            x = rng.standard_normal(shape)
            v = rng.standard_normal(op.apply(x).shape)
            lhs = float(np.sum(op.apply(x) * v))
            rhs = float(np.sum(x * op.vjp(x, v)))
            assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(x) * np.linalg.norm(v) + 1e-13

    # schedule invariants to 1e-12
    sched = make_linear_schedule(1000, 1e-4, 0.02)
    np.testing.assert_allclose(sched.alpha_bar, np.cumprod(1.0 - sched.beta), rtol=0, atol=1e-12)
    assert np.all(np.diff(sched.alpha_bar) < 0)

    # Tweedie vs closed form on a Gaussian prior, all t, 1e-6
    mu = np.array([0.4, -0.2])
    s0 = 0.7
    model = AnalyticGmmScore(GMMPrior(np.array([1.0]), mu[None], (s0 * np.eye(2))[None]), sched)
    for t in range(1, sched.T + 1):
        abar = sched.abar(t)
        x = rng.standard_normal(2)
        var = abar * s0 + 1 - abar
        closed = mu + np.sqrt(abar) * s0 / var * (x - np.sqrt(abar) * mu)
        assert np.abs(tweedie_x0(x, t, model) - closed).max() < 1e-6

    elapsed = time.perf_counter() - t0
    report("A2", elapsed < 60, f"group axioms, adjoints, schedule, Tweedie exact; {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# A3 emergence of the discriminating probe
# ---------------------------------------------------------------------------


def test_a3_probe_emergence(grid_probe, shapes_held):
    t0 = time.perf_counter()
    rows = mpe_sweep(grid_probe, shapes_held, [0.0, 0.1, 0.2, 0.4], np.random.default_rng(3))
    means = [r["mean"] for r in rows]
    increasing = all(means[i] < means[i + 1] for i in range(3))
    ratio = means[0] / means[2]
    elapsed = (time.perf_counter() - t0) + grid_probe.meta["train_seconds"]
    report(
        "A3",
        increasing and ratio <= 0.8 and elapsed < 600,
        f"means {[round(m, 3) for m in means]}, clean/0.2 ratio {ratio:.3f} (<= 0.8), "
        f"{elapsed:.0f}s incl. training",
    )


# ---------------------------------------------------------------------------
# A4 unconditional oracle fidelity
# ---------------------------------------------------------------------------


def test_a4_unconditional_fidelity(sched1000):
    prior = GMMPrior(
        np.array([0.3, 0.45, 0.25]),
        np.array([[1.5, 0.0], [-1.0, 1.2], [-0.5, -1.5]]),
        np.stack([0.3 * np.eye(2), np.array([[0.4, 0.15], [0.15, 0.25]]), 0.2 * np.eye(2)]),
    )
    model = AnalyticGmmScore(prior, sched1000)
    dists, bases = [], []
    for seed in range(5):
        traj = ancestral_sample(model, SamplerConfig(algorithm="ancestral", steps=1000, seed=seed),
                                n=5000)
        ref_a = sample_gmm(prior, 5000, np.random.default_rng(900 + seed))
        ref_b = sample_gmm(prior, 5000, np.random.default_rng(950 + seed))
        dists.append(sliced_wasserstein(traj.final, ref_a, rng=np.random.default_rng(seed)))
        bases.append(sliced_wasserstein(ref_b, ref_a, rng=np.random.default_rng(seed)))
    ratio = np.mean(dists) / np.mean(bases)
    report("A4", ratio <= 3.0, f"SW2 ratio to oracle baseline {ratio:.2f} (<= 3)")


# ---------------------------------------------------------------------------
# A5 posterior improvement on the mirror-symmetric ring
# ---------------------------------------------------------------------------


def test_a5_posterior_improvement(ring_prior, ring_model, ring_probe):
    t0 = time.perf_counter()
    mask = np.array([0.0, 1.0, 1.0, 0.0])  # observes coordinates 1 and 2
    op = MeasurementOperator(lambda x: mul(x, mask), 0.05, mask=mask)
    arms = {0.0: {"sw2": [], "ring": []}, 0.3: {"sw2": [], "ring": []}}
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        x_true = sample_gmm(ring_prior, 1, rng)[0]
        meas = forward(op, x_true, 200 + seed)
        oracle = gmm_posterior_exact(ring_prior, op, 0.05, meas.y)
        ref = sample_gmm(oracle.posterior, 1024, np.random.default_rng(300 + seed))
        y_batch = np.tile(meas.y, (128, 1))
        for lam in arms:
            cfg = SamplerConfig(
                algorithm="equi-dps", steps=300, zeta=0.2, seed=400 + seed,
                zeta_normalized=False,
                equi=EquiLossConfig(lam=lam, period=1, early_stop_frac=0.1, norm="squared-l2"),
            )
            samples = equi_dps_sample(ring_model, op, y_batch,
                                      ring_probe if lam > 0 else None, cfg, n_chains=128).final
            arms[lam]["sw2"].append(
                sliced_wasserstein(samples, ref, rng=np.random.default_rng(500 + seed)))
            arms[lam]["ring"].append(np.mean([ring_distance(s, 1.0) for s in samples]))
    base_sw2, base_ring = np.mean(arms[0.0]["sw2"]), np.mean(arms[0.0]["ring"])
    equi_sw2, equi_ring = np.mean(arms[0.3]["sw2"]), np.mean(arms[0.3]["ring"])
    elapsed = (time.perf_counter() - t0) + ring_probe.meta["train_seconds"]
    report(
        "A5",
        equi_sw2 <= base_sw2 and equi_ring < base_ring and elapsed < 900,
        f"SW2 {equi_sw2:.4f} <= {base_sw2:.4f}; manifold dist {equi_ring:.4f} < {base_ring:.4f}; "
        f"{elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# shared machinery for the grid-task criteria
# ---------------------------------------------------------------------------


def _grid_measurements(op, images, seed0):
    return np.stack([forward(op, x, seed0 + i).y for i, x in enumerate(images)])


def _grid_psnr(finals, images):
    return float(np.mean([psnr(finals[i], images[i]) for i in range(len(images))]))


GRID_EQUI = dict(period=1, early_stop_frac=0.1, norm="l2")


def test_a6_lambda_plateau(grid_denoiser, grid_probe, shapes_test):
    images = shapes_test[:12]
    op = make_operator({"kind": "downsample", "factor": 2, "sigma_y": 0.05})
    y = _grid_measurements(op, images, 2000)
    vals = {}
    for lam in (0.0, 0.001, 0.01, 0.1, 1.0):
        cfg = SamplerConfig(algorithm="equi-dps", steps=300, zeta=0.25, seed=5,
                            zeta_normalized=True,
                            equi=EquiLossConfig(lam=lam, **GRID_EQUI))
        traj = equi_dps_sample(grid_denoiser, op, y, grid_probe if lam > 0 else None,
                               cfg, n_chains=len(images))
        vals[lam] = _grid_psnr(traj.final, images)
    nz = [vals[l] for l in (0.001, 0.01, 0.1, 1.0)]
    spread = max(nz) - min(nz)
    floor_gap = min(nz) - (vals[0.0] - 0.2)
    report(
        "A6",
        spread <= 1.0 and floor_gap >= 0.0,
        f"cells {[round(vals[l], 2) for l in sorted(vals)]}, spread {spread:.2f} dB (<= 1), "
        f"worst cell {floor_gap:+.2f} dB above the lambda=0 - 0.2 floor",
    )


def test_a7_period_robustness(grid_denoiser, grid_probe, shapes_test):
    images = shapes_test[:12]
    op = make_operator({"kind": "downsample", "factor": 2, "sigma_y": 0.05})
    y = _grid_measurements(op, images, 2000)
    vals = {}
    for period in (1, 2, 5, 10):
        cfg = SamplerConfig(algorithm="equi-dps", steps=300, zeta=0.25, seed=5,
                            zeta_normalized=True,
                            equi=EquiLossConfig(lam=1.0, period=period,
                                                early_stop_frac=0.1, norm="l2"))
        traj = equi_dps_sample(grid_denoiser, op, y, grid_probe, cfg, n_chains=len(images))
        assert traj.counts["equi_grads"] == expected_reg_count(300, cfg.equi), period
        vals[period] = _grid_psnr(traj.final, images)
    spread = max(vals.values()) - min(vals.values())
    report(
        "A7",
        spread <= 0.5,
        f"periods {[round(vals[p], 2) for p in (1, 2, 5, 10)]}, spread {spread:.2f} dB (<= 0.5); "
        f"gradient counts exact (270/135/54/27)",
    )


def test_a8_reduced_steps_gap(grid_denoiser, grid_probe, shapes_test):
    images = shapes_test  # all 20
    op = make_operator({"kind": "box-inpaint", "box": [4, 4, 8, 8], "shape": [16, 16],
                        "sigma_y": 0.05})
    y = _grid_measurements(op, images, 1000)
    gaps = {}
    means = {}
    for steps in (1000, 250, 100):
        arm = {}
        for lam in (0.0, 1.0):
            ps = []
            for seed in (5, 6, 7):
                cfg = SamplerConfig(algorithm="equi-dps", steps=steps, zeta=0.25, seed=seed,
                                    zeta_normalized=True,
                                    equi=EquiLossConfig(lam=lam, **GRID_EQUI))
                traj = equi_dps_sample(grid_denoiser, op, y, grid_probe if lam > 0 else None,
                                       cfg, n_chains=len(images))
                ps.append(_grid_psnr(traj.final, images))
            arm[lam] = float(np.mean(ps))
        gaps[steps] = arm[1.0] - arm[0.0]
        means[steps] = arm
    always_better = all(gaps[s] >= 0 for s in gaps)
    widening = gaps[100] >= gaps[1000]
    detail = "; ".join(
        f"{s}: dps {means[s][0.0]:.2f} equi {means[s][1.0]:.2f} gap {gaps[s]:+.2f}"
        for s in (1000, 250, 100)
    )
    report("A8", always_better and widening, detail)


def test_a9_reduction_identities():
    sched = make_linear_schedule(40, 1e-3, 0.08)
    prior = GMMPrior(np.array([0.5, 0.5]), np.array([[1.2, 0.0], [-1.2, 0.0]]),
                     np.stack([0.15 * np.eye(2)] * 2))
    model = AnalyticGmmScore(prior, sched)
    op = make_operator({"kind": "identity", "sigma_y": 0.05})
    rng = np.random.default_rng(0)
    y = sample_gmm(prior, 1, rng)[0] + 0.05 * rng.standard_normal(2)

    class IdentityAE:
        def encode(self, x):
            return x

        def decode(self, z):
            return z

        def latent_shape(self):
            return (2,)

    ae = IdentityAE()
    probe = EquivariantFunction(lambda z: z, make_group({"group": "permutation", "perm": [1, 0]}),
                                h=lambda x: x)
    zero = EquiLossConfig(lam=0.0)
    checks = []

    c = dict(steps=30, seed=9, record_states=True)
    b = dps_sample(model, op, y, SamplerConfig(algorithm="dps", **c))
    e = equi_dps_sample(model, op, y, probe, SamplerConfig(algorithm="equi-dps", equi=zero, **c))
    checks.append(("equi-dps", np.array_equal(b.final, e.final)))

    b = equi_psld_sample(model, ae, op, y, None, SamplerConfig(algorithm="psld", **c))
    e = equi_psld_sample(model, ae, op, y, probe,
                         SamplerConfig(algorithm="equi-psld", equi=zero, **c))
    checks.append(("equi-psld", np.array_equal(b.final, e.final)))
    e = equi_psld_sample(model, ae, op, y, probe,
                         SamplerConfig(algorithm="equicon-psld", equi=zero, **c))
    checks.append(("equicon-psld", np.array_equal(b.final, e.final)))

    c2 = dict(steps=20, seed=4, k_meas=5, inner_lr=0.1, gamma_resample=10.0, record_states=True)
    b = equi_resample_sample(model, ae, op, y, None, SamplerConfig(algorithm="resample", **c2))
    e = equi_resample_sample(model, ae, op, y, probe,
                             SamplerConfig(algorithm="equi-resample", equi=zero, **c2))
    checks.append(("equi-resample", np.array_equal(b.final, e.final)))
    e = equi_resample_sample(model, ae, op, y, probe,
                             SamplerConfig(algorithm="equicon-resample", equi=zero, **c2))
    checks.append(("equicon-resample", np.array_equal(b.final, e.final)))

    c3 = dict(steps=10, seed=3, k_meas=4, k_equi=0, inner_lr=0.05, delta=1e-4)
    b = equi_sitcom_sample(model, op, y, None, SamplerConfig(algorithm="sitcom", **c3))
    e = equi_sitcom_sample(model, op, y, probe, SamplerConfig(algorithm="equi-sitcom", **c3))
    checks.append(("equi-sitcom", np.array_equal(b.final, e.final)))

    ok = all(v for _, v in checks)
    report("A9", ok, "bit-identical reductions: " + ", ".join(k for k, _ in checks))


def test_a10_diversity_scaling(grid_denoiser, grid_probe, shapes_test):
    images = shapes_test[:10]
    k_samples = 10
    intra_means, std_means = [], []
    for mask in (4, 8, 12):
        off = (16 - mask) // 2
        op = make_operator({"kind": "box-inpaint", "box": [off, off, mask, mask],
                            "shape": [16, 16], "sigma_y": 0.05})
        intras, stds = [], []
        for i, x in enumerate(images):
            meas = forward(op, x, 3000 + i)
            y = np.tile(meas.y, (k_samples, 1, 1))
            cfg = SamplerConfig(algorithm="equi-dps", steps=250, zeta=0.25, seed=7000 + i,
                                zeta_normalized=True,
                                equi=EquiLossConfig(lam=1.0, **GRID_EQUI))
            traj = equi_dps_sample(grid_denoiser, op, y, grid_probe, cfg, n_chains=k_samples)
            intra, pstd = diversity(list(traj.final))
            intras.append(intra)
            stds.append(pstd)
        intra_means.append(float(np.mean(intras)))
        std_means.append(float(np.mean(stds)))
    mono_intra = intra_means[0] < intra_means[1] < intra_means[2]
    mono_std = std_means[0] < std_means[1] < std_means[2]
    report(
        "A10",
        mono_intra and mono_std,
        f"intra {[round(v, 3) for v in intra_means]}, pixel_std {[round(v, 4) for v in std_means]} "
        f"strictly increasing over mask sizes 4/8/12 (Spearman rho = 1)",
    )


def test_a11_sitcom_split(grid_denoiser, grid_probe, shapes_test):
    images = shapes_test  # 20
    op = make_operator({"kind": "motion-blur", "size": 5, "orientation": "horizontal",
                        "padding": "reflect", "sigma_y": 0.05})
    y = _grid_measurements(op, images, 4000)
    arms = {}
    budgets = {}
    for km, ke in ((10, 0), (5, 5)):
        ps = []
        inner = 0
        for seed in (9, 10, 11):
            cfg = SamplerConfig(algorithm="equi-sitcom", steps=50, seed=seed, k_meas=km,
                                k_equi=ke, inner_lr=0.05, delta=1e-6,
                                equi=EquiLossConfig(lam=1.0, norm="l2"))
            traj = equi_sitcom_sample(grid_denoiser, op, y, grid_probe if ke else None,
                                      cfg, n_chains=len(images))
            ps.append(_grid_psnr(traj.final, images))
            inner += traj.counts["inner_meas_steps"] + traj.counts["inner_equi_steps"]
        arms[(km, ke)] = float(np.mean(ps))
        budgets[(km, ke)] = inner
    ok = arms[(5, 5)] >= arms[(10, 0)] - 0.5 and budgets[(5, 5)] == budgets[(10, 0)]
    report(
        "A11",
        ok,
        f"(5,5) {arms[(5, 5)]:.2f} dB vs (10,0) {arms[(10, 0)]:.2f} dB "
        f"(needs >= -0.5 dB), equal inner budgets {budgets[(5, 5)]}",
    )


def test_a12_run_determinism(tmp_path):
    cfg = validate_config({
        "dataset": {"kind": "sym-shapes-grid", "spec": {"size": 8}, "n": 48,
                    "seed": 1, "test_n": 8, "test_seed": 2},
        "schedule": {"T": 40, "beta_min": 1e-3, "beta_max": 0.08},
        "score_model": {"kind": "trained-denoiser",
                        "train": {"steps": 60, "batch_size": 16, "lr": 2e-3, "seed": 0,
                                  "width": 6}},
        "probe": {"train": {"steps": 60, "batch_size": 16, "seed": 0, "channels": 4,
                            "latent_channels": 2, "f": "autoencoder"},
                  "action": {"group": "flip-h"}},
        "operator": {"kind": "box-inpaint", "box": [2, 2, 4, 4], "shape": [8, 8],
                     "sigma_y": 0.05},
        "sampler": {"algorithm": "equi-dps", "steps": 10, "zeta": 0.4,
                    "zeta_normalized": True, "equi": {"lam": 0.05, "period": 1, "norm": "l2"}},
        "run": {"n_images": 2, "samples_per_image": 1},
        "seeds": [0, 1],
        "out_dir": str(tmp_path),
    })
    cmd_gen_data(cfg)
    cmd_train(cfg)
    h1 = cmd_run(cfg)["hash"]
    h2 = cmd_run(cfg)["hash"]
    report("A12", h1 == h2, f"identical report hash across reruns ({h1[:16]}...)")


def test_a13_free_energy_descent():
    v = lambda x: (x * x - 1.0) ** 2
    dv = lambda x: 4.0 * x * (x * x - 1.0)
    trace = langevin_descent_probe(v, dv, n_particles=2000, n_steps=500,
                                   checkpoints=10, bandwidth=0.15, seed=0)
    increases = np.diff(trace)
    ok = bool(np.all(increases <= 0.1)) and trace[-1] < trace[0]
    report(
        "A13",
        ok,
        f"free energy {trace[0]:.2f} -> {trace[-1]:.2f} over 10 checkpoints, "
        f"max upward fluctuation {max(increases.max(), 0):.3f} (<= 0.1)",
    )
