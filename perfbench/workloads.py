"""The three workloads: grid-restore, ring-posterior and ring-cli.

Each workload makes its inputs from the workload seed, warms up, then runs
whole rounds of the same operations: every round trains each model once from
its fixed seed and makes one sampler call per arm (per measurement on the
ring). Each timed metric is a median over the rounds, so every metric samples
the whole measured window rather than one stretch of it.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from equiguide import harness
from equiguide.autodiff import Tensor
from equiguide.datasets import generate, mirror_symmetrize
from equiguide.equi import EquiLossConfig, equi_error, save_probe, train_autoencoder_augmented
from equiguide.gmm import GMMPrior, gmm_posterior_exact, sample_gmm
from equiguide.groups import make_group
from equiguide.metrics import sliced_wasserstein
from equiguide.models import AnalyticGmmScore, save_score_model, train_denoiser
from equiguide.operators import forward, make_operator
from equiguide.samplers import SamplerConfig, ancestral_sample, equi_dps_sample, step_indices
from equiguide.schedule import make_linear_schedule

import checks
import layers
from tracing import Tracer, harness_metrics, merge, per_step_metrics

_perf = time.perf_counter
HERE = Path(__file__).resolve().parent

ARMS = ("dps", "equireg")
# ring-cli runs n_images x samples_per_image single chains through harness.run_cell
RING_CLI = {"n_images": 2, "samples_per_image": 4}
# The ring observes coordinates 1 and 2; the mask comes from make_operator's
# random-inpaint, so the benchmark searches for the mask seed that gives it.
RING_MASK = [0.0, 1.0, 1.0, 0.0]
RING_ACTION = {"group": "permutation", "perm": [1, 0, 2, 3]}
RING_EQUI = {"lam": 0.3, "period": 1, "early_stop_frac": 0.1, "norm": "squared-l2"}
GRID_EQUI = {"lam": 1.0, "period": 1, "early_stop_frac": 0.1, "norm": "l2"}

SIZES = {
    "full": {
        "grid": dict(n_train=512, n_held=64, n_test=20, den_steps=50, probe_steps=150,
                     steps=100, min_rounds=3),
        "ring": dict(n_train=1024, den_steps=1200, probe_steps=1000, chains=128, steps=300,
                     n_meas=3, n_ref=1024, min_rounds=3),
        "cli": dict(n_train=1024, den_steps=1200, probe_steps=1000, steps=100, min_rounds=3),
    },
    "tiny": {
        "grid": dict(n_train=64, n_held=16, n_test=4, den_steps=10, probe_steps=10,
                     steps=20, min_rounds=2),
        "ring": dict(n_train=256, den_steps=100, probe_steps=100, chains=16, steps=40,
                     n_meas=2, n_ref=256, min_rounds=2),
        "cli": dict(n_train=256, den_steps=100, probe_steps=100, steps=20, min_rounds=2),
    },
}


def sample_hash(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]


def params_hash(params: dict) -> str:
    return sample_hash(np.concatenate([params[k].ravel() for k in sorted(params)]))


class Bench:
    """One benchmark process: operations, timings, checks, hashes and trace."""

    def __init__(self, seed: int, seconds: float, trace: bool, size: str, out_dir: Path,
                 startup_s: float, t0: float):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.size = SIZES[size]
        self.out = out_dir
        self.attempted = 0
        self.failed = 0
        self.checks: list[checks.Check] = []
        self.hashes: dict[str, str] = {}
        self.metrics: dict[str, float] = {}
        self.times: dict[str, list[float]] = {}
        self.tracer = Tracer() if trace else None
        self._startup_s = startup_s
        self._t0 = t0
        self._measure_t0 = None
        self.sched = make_linear_schedule(1000, 1e-4, 0.02)

    def child_seed(self, *tags: int) -> int:
        return int(np.random.SeedSequence([self.seed, *tags]).generate_state(1)[0])

    def rng(self, *tags: int) -> np.random.Generator:
        return np.random.default_rng(self.child_seed(*tags))

    def start_measuring(self) -> None:
        """End of set-up: the time from process start to here is setup_s."""
        gc.collect()
        self.metrics["setup_s"] = self._startup_s + (_perf() - self._t0)
        self._measure_t0 = _perf()

    def op(self, fn, *args, **kwargs):
        """Run one operation; returns (result, wall seconds)."""
        gc.collect()
        self.attempted += 1
        t0 = _perf()
        try:
            out = fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            raise
        return out, _perf() - t0

    def timed(self, kind: str, fn, *args, **kwargs):
        """Run one operation whose wall time joins the samples of ``kind``."""
        out, dt = self.op(fn, *args, **kwargs)
        self.times.setdefault(kind, []).append(dt)
        return out

    def rate(self, metric: str, kind: str, units: int) -> None:
        """units per second over the median wall time of the ``kind`` operations."""
        self.metrics[metric] = units / statistics.median(self.times[kind])

    def rounds(self, min_rounds: int, body) -> None:
        """Call ``body(i)`` for whole rounds until the measured window is used.

        Never fewer than ``min_rounds``. A traced run makes exactly two: an
        untraced baseline round, then a traced one.
        """
        done, last = 0, 0.0
        while done < (2 if self.trace else min_rounds) or (
                not self.trace and (_perf() - self._measure_t0) + last <= self.seconds):
            t0 = _perf()
            body(done)
            last = _perf() - t0
            done += 1

    def traced_round(self, i: int):
        """Context of round i's sampler calls: wrappers on in a traced run's round 1."""
        if self.trace and i > 0:
            return self.tracer.installed()
        return contextlib.nullcontext()

    def sampler(self, i: int, arm: str):
        """equi_dps_sample, as a traced sampler span in a traced run's round 1."""
        if not (self.trace and i > 0):
            return equi_dps_sample
        self.tracer.phase = arm
        return lambda *a, **k: self.tracer.sampler_call(equi_dps_sample, *a, **k)

    def check(self, c: checks.Check) -> None:
        self.checks.append(c)

    def trace_overhead(self) -> None:
        """Sampler time of the traced round over the untraced one, in percent."""
        per_round = len(self.times[ARMS[0]]) // 2
        t = [sum(sum(self.times[arm][r * per_round:(r + 1) * per_round]) for arm in ARMS)
             for r in (0, 1)]
        self.metrics["trace.overhead_pct"] = 100.0 * (t[1] / t[0] - 1.0)

    def finish(self) -> None:
        self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        self.metrics["peak_rss_mb"] = max(self_kb, child_kb) / 1024.0


def _write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True))
    return path


def ring_prior_spec() -> dict:
    """A5's ring: six components on the unit circle, mirrored across x0 <-> x1."""
    k = 6
    angles = np.linspace(0, 2 * np.pi, k, endpoint=False) + 0.3
    means = np.stack([np.cos(angles), np.sin(angles), np.zeros(k), np.zeros(k)], axis=1)
    return {"weights": [1.0 / k] * k, "means": means.tolist(),
            "covariances": np.tile(0.02 * np.eye(4), (k, 1, 1)).tolist(), "mirror_swap": [0, 1]}


def ring_prior() -> GMMPrior:
    spec = ring_prior_spec()
    prior = GMMPrior(*(np.asarray(spec[k], dtype=np.float64)
                       for k in ("weights", "means", "covariances")))
    return mirror_symmetrize(prior, tuple(spec["mirror_swap"]))


def ring_operator_spec() -> dict:
    for mask_seed in range(1000):
        spec = {"kind": "random-inpaint", "keep_prob": 0.5, "shape": [4], "seed": mask_seed,
                "sigma_y": 0.05}
        if make_operator(spec).mask.tolist() == RING_MASK:
            return spec
    raise RuntimeError("no mask seed observes coordinates 1 and 2")


def _eps_mse(model, held: np.ndarray, t: int, rng: np.random.Generator) -> float:
    """Held-out epsilon-prediction MSE of a trained denoiser at a fixed time."""
    abar = model.schedule.abar(t)
    eps = rng.standard_normal(held.shape)
    x_t = np.sqrt(abar) * held + np.sqrt(1.0 - abar) * eps
    eps_hat = -np.sqrt(1.0 - abar) * model.score(x_t, t)
    return float(np.mean((eps_hat - eps) ** 2))


def _check_counts(b: Bench, prefix: str, counts: dict, arm: str, steps: int, equi: dict,
                  chains: int = 1) -> None:
    equi_grads = 0 if arm == "dps" else checks.expected_equi_grads(
        steps, equi["period"], equi["early_stop_frac"])
    b.check(checks.counts_match(f"{prefix}.counts_{arm}", counts, {
        "score_evals": chains * steps, "guidance_grads": chains * steps,
        "equi_grads": chains * equi_grads}))


# -- per-layer figures shared by the in-process workloads ---------------------------


def _ring_layer_inputs(b: Bench):
    prior = ring_prior()
    op = make_operator(ring_operator_spec())
    y = forward(op, sample_gmm(prior, 1, b.rng(71))[0], b.child_seed(72)).y
    return prior, op, y, (RING_CLI["samples_per_image"], 256)


def _cmd_seconds(stats: dict) -> float:
    return sum(st[1] for key, st in stats.items() if key.endswith("|cli.cmd"))


def _process_overhead_s(b: Bench) -> float:
    """Wall time of a trivial traced CLI process minus the time inside its command."""
    empty = b.out / "empty_run_dir"
    empty.mkdir(exist_ok=True)
    stats_path = b.out / "report_trace.json"
    t0 = _perf()
    _cli(b, ["report", str(empty)], trace_out=stats_path, counted=False)
    wall = _perf() - t0
    return wall - _cmd_seconds(json.loads(stats_path.read_text()))


def _inprocess_layers(b: Bench, cfg_core: dict, model, probe, test_items) -> None:
    """Per-layer figures of grid-restore and ring-posterior after their traced round."""
    b.trace_overhead()
    b.metrics.update(per_step_metrics(b.tracer.stats))
    scratch = b.out / "layers"
    scratch.mkdir(exist_ok=True)
    cfg = {**cfg_core, "seeds": [0],
           "sampler": {**cfg_core["sampler"], "steps": 20},
           "run": {"n_images": 1, "samples_per_image": RING_CLI["samples_per_image"]}}
    config_path = _write_json(scratch / "config.json", cfg)
    checkpoints = [scratch / "probe.eqc"]
    save_probe(checkpoints[0], probe)
    if hasattr(model, "net"):
        checkpoints.append(scratch / "denoiser.eqc")
        save_score_model(checkpoints[1], model)
    # harness.run_cell around single-chain sampler calls, at this workload's shapes
    b.tracer.phase = "harness"
    with b.tracer.installed():
        harness.run_cell(cfg, model, probe, test_items, b.child_seed(8))
    b.metrics.update(harness_metrics(b.tracer.stats, ("harness",)))
    b.metrics["cli.process_overhead_s"] = _process_overhead_s(b)
    b.metrics.update(layers.all_metrics(b.seed, b.sched, _ring_layer_inputs(b),
                                        (config_path, checkpoints, cfg["dataset"], scratch)))


# -- grid-restore -----------------------------------------------------------------


def grid_restore(b: Bench) -> None:
    sz = b.size["grid"]
    sched = b.sched
    shapes = {"size": 16}
    train_seed = b.child_seed(1)
    train = generate("sym-shapes-grid", shapes, sz["n_train"], train_seed).items
    held = generate("sym-shapes-grid", shapes, sz["n_held"], b.child_seed(2)).items
    test = generate("sym-shapes-grid", shapes, sz["n_test"], b.child_seed(3)).items
    n, steps = len(test), sz["steps"]
    op_spec = {"kind": "box-inpaint", "box": [4, 4, 8, 8], "shape": [16, 16], "sigma_y": 0.05}
    op = make_operator(op_spec)
    y = np.stack([forward(op, x, b.child_seed(4, i)).y for i, x in enumerate(test)])
    action = make_group({"group": "flip-h"})
    den_cfg = {"steps": sz["den_steps"], "batch_size": 32, "lr": 2e-3, "seed": 0, "width": 16}
    probe_cfg = {"steps": sz["probe_steps"], "batch_size": 32, "lr": 2e-3, "seed": 0,
                 "channels": 8, "latent_channels": 6, "f": "autoencoder"}
    chain_seed = b.child_seed(5)
    common = dict(algorithm="equi-dps", steps=steps, zeta=0.25, zeta_normalized=True,
                  seed=chain_seed)
    cfgs = {"dps": SamplerConfig(equi=EquiLossConfig(**{**GRID_EQUI, "lam": 0.0}), **common),
            "equireg": SamplerConfig(equi=EquiLossConfig(**GRID_EQUI), **common)}

    # warm-up: allocator, im2col buffers and BLAS paths at the timed shapes
    w_den = train_denoiser(train, sched, {**den_cfg, "steps": 2})
    w_probe = train_autoencoder_augmented(train, action, {**probe_cfg, "steps": 2})
    for arm, m in (("dps", None), ("equireg", w_probe)):
        equi_dps_sample(w_den, op, y, m, replace(cfgs[arm], steps=5), n_chains=n)
    b.start_measuring()

    models, outs = [], {arm: [] for arm in ARMS}

    def round_(i: int) -> None:
        models.append((b.timed("denoiser", train_denoiser, train, sched, den_cfg),
                       b.timed("probe", train_autoencoder_augmented, train, action, probe_cfg)))
        den, probe = models[0]
        with b.traced_round(i):
            for arm, m in (("dps", None), ("equireg", probe)):
                outs[arm].append(b.timed(arm, b.sampler(i, arm), den, op, y, m, cfgs[arm],
                                         n_chains=n))

    b.rounds(sz["min_rounds"], round_)
    b.rate("denoiser_train_steps_per_s", "denoiser", den_cfg["steps"])
    b.rate("probe_train_steps_per_s", "probe", probe_cfg["steps"])
    for arm in ARMS:
        b.rate(f"{arm}_chain_steps_per_s", arm, n * steps)

    den, probe = models[0]
    b.check(checks.same_hashes("grid.repeat_training", [
        params_hash(d.net.params) + params_hash(p.meta["ae"].params) for d, p in models]))
    for arm in ARMS:
        b.hashes[f"grid-restore.{arm}"] = sample_hash(outs[arm][0].final)
        b.check(checks.same_hashes(f"grid.repeat_{arm}",
                                   [sample_hash(t.final) for t in outs[arm]]))
        _check_counts(b, "grid", outs[arm][0].counts, arm, steps, GRID_EQUI)
    dps, reg = outs["dps"][0].final, outs["equireg"][0].final
    zero, _ = b.op(equi_dps_sample, den, op, y, probe, cfgs["dps"], n_chains=n)
    b.check(checks.bit_identical("grid.lambda0_reduction", zero.final, dps))
    unguided, _ = b.op(ancestral_sample, den, SamplerConfig(algorithm="ancestral", steps=steps,
                                                            seed=chain_seed), n=n)
    for arm, guided in (("dps", dps), ("equireg", reg)):
        b.check(checks.guided_fits_observations(f"grid.observed_residual_{arm}", guided,
                                                unguided.final, test, op.mask))
    b.check(checks.regularizer_lowers_equi_error(
        float(np.mean([equi_error(probe, 1, s) for s in reg])),
        float(np.mean([equi_error(probe, 1, s) for s in dps]))))
    b.check(checks.below("grid.denoiser_eps_mse", _eps_mse(den, held, 300, b.rng(6)), 0.5,
                         "held-out eps MSE at t=300 (predicting 0 gives 1)"))
    ae = probe.meta["ae"]
    recon = ae.decode(ae.encode(Tensor(held))).data
    b.check(checks.below("grid.probe_recon", float(np.mean((recon - held) ** 2)),
                         0.5 * float(np.var(held)), "held-out recon MSE vs 0.5 x data variance"))

    if b.trace:
        _inprocess_layers(b, {
            "dataset": {"kind": "sym-shapes-grid", "spec": shapes, "n": sz["n_train"],
                        "seed": train_seed},
            "operator": op_spec,
            "sampler": {**{k: v for k, v in common.items() if k != "seed"}, "equi": GRID_EQUI},
        }, den, probe, test)


# -- ring-posterior ---------------------------------------------------------------


def ring_posterior(b: Bench) -> None:
    sz = b.size["ring"]
    sched = b.sched
    prior = ring_prior()
    model = AnalyticGmmScore(prior, sched)
    op_spec = ring_operator_spec()
    op = make_operator(op_spec)
    observed = [i for i, v in enumerate(RING_MASK) if v > 0]
    train_seed = b.child_seed(11)
    train = sample_gmm(prior, sz["n_train"], np.random.default_rng(train_seed))
    truths = sample_gmm(prior, sz["n_meas"], b.rng(12))
    ys = [forward(op, x, b.child_seed(13, j)).y for j, x in enumerate(truths)]
    chains, steps = sz["chains"], sz["steps"]
    y_batches = [np.tile(y, (chains, 1)) for y in ys]
    action = make_group(RING_ACTION)
    probe_cfg = {"steps": sz["probe_steps"], "batch_size": 64, "lr": 2e-3, "seed": 0,
                 "hidden": [64, 64], "latent_dim": 2, "f": "autoencoder"}
    den_cfg = {"steps": sz["den_steps"], "batch_size": 64, "lr": 2e-3, "seed": 0,
               "hidden": [64, 64]}
    common = dict(algorithm="equi-dps", steps=steps, zeta=0.2, zeta_normalized=False)
    cfgs = {arm: [SamplerConfig(seed=b.child_seed(14, j), **common,
                                equi=EquiLossConfig(**{**RING_EQUI, "lam": lam}))
                  for j in range(len(ys))]
            for arm, lam in (("dps", 0.0), ("equireg", RING_EQUI["lam"]))}

    # warm-up: the analytic score caches one noised mixture per step index
    for t in step_indices(sched.T, steps):
        model.score(truths[:1], t)
    w_probe = train_autoencoder_augmented(train, action, {**probe_cfg, "steps": 2})
    train_denoiser(train, sched, {**den_cfg, "steps": 2})
    for arm, m in (("dps", None), ("equireg", w_probe)):
        equi_dps_sample(model, op, y_batches[0], m, replace(cfgs[arm][0], steps=10),
                        n_chains=chains)
    b.start_measuring()

    models, outs = [], {arm: [] for arm in ARMS}

    def round_(i: int) -> None:
        models.append((b.timed("probe", train_autoencoder_augmented, train, action, probe_cfg),
                       b.timed("denoiser", train_denoiser, train, sched, den_cfg)))
        probe = models[0][0]
        per = {arm: [] for arm in ARMS}
        with b.traced_round(i):
            for j, yb in enumerate(y_batches):
                for arm, m in (("dps", None), ("equireg", probe)):
                    per[arm].append(b.timed(arm, b.sampler(i, arm), model, op, yb, m,
                                            cfgs[arm][j], n_chains=chains))
        for arm in ARMS:
            outs[arm].append(np.stack([t.final for t in per[arm]]))
            if i == 0:
                _check_counts(b, "ring", per[arm][0].counts, arm, steps, RING_EQUI)

    b.rounds(sz["min_rounds"], round_)
    b.rate("denoiser_train_steps_per_s", "denoiser", den_cfg["steps"])
    b.rate("probe_train_steps_per_s", "probe", probe_cfg["steps"])
    for arm in ARMS:
        b.rate(f"{arm}_chain_steps_per_s", arm, chains * steps)

    probe, den = models[0]
    b.check(checks.same_hashes("ring.repeat_training", [
        params_hash(p.meta["ae"].params) + params_hash(d.net.params) for p, d in models]))
    for arm in ARMS:
        b.hashes[f"ring-posterior.{arm}"] = sample_hash(outs[arm][0])
        b.check(checks.same_hashes(f"ring.repeat_{arm}", [sample_hash(s) for s in outs[arm]]))
    zero, _ = b.op(equi_dps_sample, model, op, y_batches[0], probe, cfgs["dps"][0],
                   n_chains=chains)
    b.check(checks.bit_identical("ring.lambda0_reduction", zero.final, outs["dps"][0][0]))

    sw = {"dps": [], "equireg": [], "prior": []}
    agree = []
    for j, y in enumerate(ys):
        oracle = gmm_posterior_exact(prior, op, op.sigma_y, y)
        w, mu, cov = checks.condition_components(prior.weights, prior.means, prior.covariances,
                                                 observed, y[observed], op.sigma_y)
        agree.append(checks.oracle_agrees(oracle.posterior, w, mu, cov))
        ref = sample_gmm(oracle.posterior, sz["n_ref"], b.rng(15, j))
        for arm in ARMS:
            sw[arm].append(sliced_wasserstein(outs[arm][0][j], ref, rng=b.rng(16, j)))
        sw["prior"].append(sliced_wasserstein(sample_gmm(prior, chains, b.rng(17, j)), ref,
                                              rng=b.rng(16, j)))
    b.check(next((c for c in agree if not c.ok), agree[0]))
    for arm in ARMS:
        b.check(checks.closer_than_prior(f"ring.sw2_{arm}", sw[arm], sw["prior"]))
    held = sample_gmm(prior, 512, b.rng(18))
    b.check(checks.below("ring.denoiser_eps_mse", _eps_mse(den, held, 300, b.rng(19)), 0.5,
                         "held-out eps MSE at t=300 (predicting 0 gives 1)"))

    if b.trace:
        _inprocess_layers(b, {
            "dataset": {"kind": "gmm-points", "spec": ring_prior_spec(), "n": sz["n_train"],
                        "seed": train_seed},
            "operator": op_spec,
            "sampler": {**common, "equi": RING_EQUI},
        }, model, probe, train[:64])


# -- ring-cli ---------------------------------------------------------------------


def _cli(b: Bench, args: list[str], trace_out: Path | None = None, counted: bool = True) -> str:
    """One equiguide CLI process; returns its standard output."""
    env = dict(os.environ)
    src = str(HERE.parent / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    if trace_out is None:
        cmd = [sys.executable, "-m", "equiguide.cli", *args]
    else:
        cmd = [sys.executable, str(HERE / "cli_child.py"), str(trace_out), *args]
    if counted:
        b.attempted += 1
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        if counted:
            b.failed += 1
        raise RuntimeError(f"equiguide {' '.join(args)} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return proc.stdout


def ring_cli(b: Bench) -> None:
    sz = b.size["cli"]
    work = b.out / "cli"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spec = ring_prior_spec()
    steps = sz["steps"]
    chains = RING_CLI["n_images"] * RING_CLI["samples_per_image"]
    base = {
        "dataset": {"kind": "gmm-points", "spec": spec, "n": sz["n_train"],
                    "seed": b.child_seed(21), "test_n": 64, "test_seed": b.child_seed(22)},
        "score_model": {"kind": "analytic-gmm", "prior": spec},
        "operator": ring_operator_spec(),
        "run": {**RING_CLI, "oracle": {"enabled": True, "n_samples": 256, "ring_radius": 1.0}},
        "seeds": [b.child_seed(23) % 100_000],
    }
    probe_train = {"steps": sz["probe_steps"], "batch_size": 64, "lr": 2e-3, "seed": 0,
                   "hidden": [64, 64], "latent_dim": 2, "f": "autoencoder"}
    configs = {
        "probe": {**base, "probe": {"train": probe_train, "action": RING_ACTION},
                  "sampler": {"algorithm": "dps", "steps": steps}},
        "denoiser": {**base, "score_model": {"kind": "trained-denoiser", "train": {
            "steps": sz["den_steps"], "batch_size": 64, "lr": 2e-3, "seed": 0,
            "hidden": [64, 64]}}, "sampler": {"algorithm": "dps", "steps": steps}},
        "dps": {**base, "sampler": {"algorithm": "dps", "steps": steps, "zeta": 0.2}},
        "equireg": {**base, "probe": {"action": RING_ACTION},
                    "sampler": {"algorithm": "equi-dps", "steps": steps, "zeta": 0.2,
                                "equi": RING_EQUI}},
    }
    paths = {k: _write_json(work / f"{k}.json", v) for k, v in configs.items()}

    def cli(kind: str | None, cmd: str, name: str, trace_out=None) -> str:
        t0 = _perf()
        out = _cli(b, [cmd, "--config", str(paths[name]), "--out", str(work)], trace_out)
        if kind is not None:
            b.times.setdefault(kind, []).append(_perf() - t0)
        return out

    cli(None, "gen-data", "dps")
    b.start_measuring()

    hashes = {arm: [] for arm in ARMS}
    summaries, traces, checkpoints = {}, [], []

    def round_(i: int) -> None:
        cli("probe", "train", "probe")
        cli("denoiser", "train", "denoiser")
        checkpoints.append(sample_hash(np.frombuffer(
            (work / "probe.eqc").read_bytes() + (work / "denoiser.eqc").read_bytes(), np.uint8)))
        for arm in ARMS:
            trace_out = work / f"trace_{arm}.json" if b.trace and i > 0 else None
            out = cli(arm, "run", arm, trace_out)
            hashes[arm].append(json.loads(out.strip().splitlines()[-1])["hash"])
            summaries.setdefault(arm, json.loads((work / "run_summary.json").read_text()))
            if trace_out is not None:
                traces.append((arm, b.times[arm][-1], json.loads(trace_out.read_text())))

    b.rounds(sz["min_rounds"], round_)
    b.rate("denoiser_train_steps_per_s", "denoiser", sz["den_steps"])
    b.rate("probe_train_steps_per_s", "probe", sz["probe_steps"])
    for arm in ARMS:
        b.rate(f"{arm}_chain_steps_per_s", arm, chains * steps)

    b.check(checks.same_hashes("cli.repeat_training", checkpoints))
    for arm in ARMS:
        b.hashes[f"ring-cli.{arm}"] = hashes[arm][0][:16]
        b.check(checks.same_hashes(f"cli.repeat_{arm}", hashes[arm]))
        _check_counts(b, "cli", summaries[arm]["payload"]["results"][0], arm, steps, RING_EQUI,
                      chains=chains)

    if b.trace:
        b.trace_overhead()
        stats: dict = {}
        for arm, _, st in traces:
            merge(stats, st, phase=arm)
        b.metrics.update(per_step_metrics(stats))
        b.metrics.update(harness_metrics(stats, ARMS))
        b.metrics["cli.process_overhead_s"] = statistics.median(
            dt - _cmd_seconds(st) for _, dt, st in traces)
        scratch = work / "layers"
        scratch.mkdir()
        b.metrics.update(layers.all_metrics(
            b.seed, b.sched, _ring_layer_inputs(b),
            (paths["equireg"], [work / "probe.eqc", work / "denoiser.eqc"],
             {k: base["dataset"][k] for k in ("kind", "spec", "n", "seed")}, scratch)))


WORKLOADS = {"grid-restore": grid_restore, "ring-posterior": ring_posterior, "ring-cli": ring_cli}
