"""Layer microbenchmarks at fixed, stated shapes.

Every traced run reports these, whatever its workload, so each figure means
the same thing everywhere and none reads 0 because a workload skips a layer.
The shapes are those of the workload that uses the layer most:

- conv2d_mc, ConvNet, ConvAutoencoder, Adam: grid-restore (20 or 32 images of
  16x16, width 16; the denoiser's parameters for Adam);
- small op, Mlp, GMM score and posterior: ring-posterior (128 chains in R^4);
- sliced Wasserstein: ring-cli's oracle (4 samples against 256 draws);
- config, containers, datasets: the workload's own config, checkpoint and
  training set.
"""

from __future__ import annotations

import gc
import statistics
import time
from pathlib import Path

import numpy as np

from equiguide.autodiff import Tensor, backward, conv2d_mc, mul, tsum
from equiguide.config import load_config
from equiguide.containers import load_tensors, save_tensors
from equiguide.datasets import generate
from equiguide.gmm import gmm_posterior_exact
from equiguide.metrics import sliced_wasserstein
from equiguide.models import AnalyticGmmScore
from equiguide.nn import Adam, ConvAutoencoder, ConvNet, Mlp
from equiguide.schedule import time_features

_perf = time.perf_counter


def _median_s(make, run, repeats: int) -> float:
    """Median wall time of ``run(make())``; only ``run`` is timed."""
    run(make())  # warm caches and allocator
    gc.collect()
    times = []
    for _ in range(repeats):
        arg = make()
        t0 = _perf()
        run(arg)
        times.append(_perf() - t0)
    return statistics.median(times)


def _ms(fn, repeats: int) -> float:
    return 1000.0 * _median_s(lambda: None, lambda _: fn(), repeats)


def conv_metrics(rng: np.random.Generator) -> dict[str, float]:
    x20 = rng.standard_normal((20, 16, 16, 16))
    x32 = rng.standard_normal((32, 16, 16, 16))
    k = 0.1 * rng.standard_normal((16, 16, 3, 3))

    def input_graph():
        return tsum(conv2d_mc(Tensor(x20, requires_grad=True), Tensor(k)))

    def kernel_graph():
        return tsum(conv2d_mc(Tensor(x32), Tensor(k, requires_grad=True)))

    return {
        "autodiff.conv2d_mc.fwd_ms": _ms(lambda: conv2d_mc(Tensor(x20), Tensor(k)), 15),
        "autodiff.conv2d_mc.bwd_input_ms": 1000.0 * _median_s(input_graph, backward, 15),
        "autodiff.conv2d_mc.bwd_kernel_ms": 1000.0 * _median_s(kernel_graph, backward, 15),
    }


def small_op_us(rng: np.random.Generator) -> float:
    a = rng.standard_normal((128, 4))
    b = rng.standard_normal((128, 4))
    reps = 200

    def block():
        for _ in range(reps):
            backward(tsum(mul(Tensor(a, requires_grad=True), b)))

    return 1000.0 * _ms(block, 9) / reps


def nn_metrics(rng: np.random.Generator, sched) -> dict[str, float]:
    grid = rng.uniform(0.0, 1.0, (20, 16, 16))
    cond20 = np.tile(time_features(500, sched), (20, 1))
    cond128 = np.tile(time_features(500, sched), (128, 1))
    vec = rng.standard_normal((128, 4))
    net = ConvNet(1, 16, rng, cond_dim=8)
    ae = ConvAutoencoder(16, 8, 6, rng)
    mlp = Mlp(4, [64, 64], 4, rng, cond_dim=8)
    opt = Adam(1e-3)
    params = dict(net.params)
    grads = {name: 1e-3 * rng.standard_normal(p.shape) for name, p in params.items()}
    return {
        "nn.ConvNet.forward_ms": _ms(
            lambda: net.forward(Tensor(grid.reshape(20, 1, 16, 16)), cond=cond20), 9),
        "nn.ConvAutoencoder.roundtrip_ms": _ms(lambda: ae.decode(ae.encode(Tensor(grid))), 9),
        "nn.Mlp.forward_ms": _ms(lambda: mlp.forward(Tensor(vec), cond=cond128), 25),
        "nn.Adam.step_ms": _ms(lambda: opt.step(params, grads), 25),
    }


def gmm_metrics(rng: np.random.Generator, sched, prior, op, y, oracle_shape) -> dict[str, float]:
    model = AnalyticGmmScore(prior, sched)
    x = rng.standard_normal((128, prior.dim))
    n_samples, n_ref = oracle_shape
    samples = rng.standard_normal((n_samples, prior.dim))
    ref = rng.standard_normal((n_ref, prior.dim))
    return {
        "gmm.marginal_score_traced_ms": _ms(
            lambda: model.score_traced(Tensor(x, requires_grad=True), 500), 25),
        "gmm.posterior_exact_ms": _ms(lambda: gmm_posterior_exact(prior, op, op.sigma_y, y), 25),
        "metrics.sliced_wasserstein_ms": _ms(
            lambda: sliced_wasserstein(samples, ref, n_proj=64, rng=np.random.default_rng(0)), 9),
    }


def io_metrics(config_path: Path, checkpoints: list[Path], dataset: dict,
               scratch: Path) -> dict[str, float]:
    tensors, manifest = load_tensors(checkpoints[0])
    copy = scratch / "layer_copy.eqc"
    return {
        "config.load_config_ms": _ms(lambda: load_config(config_path), 25),
        "containers.load_tensors_ms": _ms(lambda: load_tensors(checkpoints[0]), 25),
        "containers.save_tensors_ms": _ms(lambda: save_tensors(copy, tensors, manifest), 25),
        "containers.checkpoint_bytes": float(sum(p.stat().st_size for p in checkpoints)),
        "datasets.generate_ms": _ms(
            lambda: generate(dataset["kind"], dataset["spec"], dataset["n"], dataset["seed"]), 5),
    }


def all_metrics(seed: int, sched, ring, io_args) -> dict[str, float]:
    """Every microbenchmark figure; ``ring`` is (prior, op, y, oracle_shape)."""
    rng = np.random.default_rng([seed, 0x1A7])
    out = {}
    out.update(conv_metrics(rng))
    out["autodiff.small_op_us"] = small_op_us(rng)
    out.update(nn_metrics(rng, sched))
    out.update(gmm_metrics(rng, sched, *ring))
    out.update(io_metrics(*io_args))
    return out
