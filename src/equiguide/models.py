"""Score models: exact Gaussian-mixture scores and trained epsilon-denoisers.

Both expose the same surface (``score`` on arrays, ``score_traced`` on
tensors), so samplers can differentiate guidance losses through either one.
The Tweedie map turns a score into the posterior-mean estimate of the clean
signal that anchors every guidance loss.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, add, div, mul, reshape, square, sub, tmean
from .containers import ContainerError, load_tensors, save_tensors
from .gmm import GMMPrior, _score_cache, gmm_marginal_score_traced
from .nn import ConvNet, Mlp, TrainingDiverged, build_net, fit, training_items
from .schedule import NoiseSchedule, time_features

__all__ = [
    "AnalyticGmmScore",
    "DenoiserScore",
    "TrainingDiverged",
    "tweedie_x0",
    "tweedie_x0_traced",
    "denoiser_net",
    "train_denoiser",
    "save_score_model",
    "load_score_model",
]


class AnalyticGmmScore:
    """Exact marginal score of a mixture prior under the VP forward process."""

    kind = "analytic-gmm"

    def __init__(self, prior: GMMPrior, schedule: NoiseSchedule):
        self.prior = prior
        self.schedule = schedule
        self._cache: dict[int, object] = {}

    def _cached(self, t: int):
        hit = self._cache.get(t)
        if hit is None:
            hit = _score_cache(self.prior, t, self.schedule)
            self._cache[t] = hit
        return hit

    def score_traced(self, x: Tensor, t: int) -> Tensor:
        return gmm_marginal_score_traced(self.prior, x, t, self.schedule, _cache=self._cached(t))

    def score(self, x: np.ndarray, t: int) -> np.ndarray:
        return self.score_traced(Tensor(np.asarray(x, dtype=np.float64)), t).data


class DenoiserScore:
    """Epsilon-prediction network converted to a score: s = -eps_hat / sqrt(1 - abar)."""

    kind = "trained-denoiser"

    def __init__(self, net, schedule: NoiseSchedule, data_shape: tuple[int, ...],
                 trained: bool = False, loss_history: list[float] | None = None):
        self.net = net
        self.schedule = schedule
        self.data_shape = tuple(data_shape)
        self.trained = trained
        self.loss_history = loss_history or []

    def eps(self, x: Tensor, cond: np.ndarray, params=None) -> Tensor:
        """The net's noise prediction for one item or a batch, with matching cond rows.

        The one place data meets the net's layout: vectors and (C, h, w)
        latents pass as they are, 2-D grids get a channel axis of 1.
        """
        if len(self.data_shape) != 2:
            return self.net.forward(x, cond=cond, params=params)
        h = reshape(x, x.shape[:-2] + (1,) + self.data_shape)
        return reshape(self.net.forward(h, cond=cond, params=params), x.shape)

    def score_traced(self, x: Tensor, t: int, params=None) -> Tensor:
        cond = time_features(t, self.schedule)
        if x.data.ndim == len(self.data_shape) + 1:
            cond = np.tile(cond, (x.shape[0], 1))
        return div(self.eps(x, cond, params=params), -np.sqrt(1.0 - self.schedule.abar(t)))

    def score(self, x: np.ndarray, t: int) -> np.ndarray:
        return self.score_traced(Tensor(np.asarray(x, dtype=np.float64)), t).data


def tweedie_x0_traced(x_t: Tensor, t: int, model) -> Tensor:
    """Posterior-mean estimate of the clean signal from the score at step t."""
    abar = model.schedule.abar(t)
    s = model.score_traced(x_t, t)
    return div(add(x_t, mul(s, 1.0 - abar)), np.sqrt(abar))


def tweedie_x0(x_t, t: int, model):
    if isinstance(x_t, Tensor):
        return tweedie_x0_traced(x_t, t, model)
    return tweedie_x0_traced(Tensor(np.asarray(x_t, dtype=np.float64)), t, model).data


def denoiser_net(data_shape, cfg: dict, rng: np.random.Generator):
    """The untrained epsilon net for items of data_shape: an MLP for vectors, else a conv net."""
    if len(data_shape) == 1:
        return Mlp(data_shape[0], list(cfg.get("hidden", [128, 128, 128])), data_shape[0], rng,
                   cond_dim=8)
    if len(data_shape) in (2, 3):
        channels = data_shape[0] if len(data_shape) == 3 else 1
        return ConvNet(channels, int(cfg.get("width", 32)), rng, cond_dim=8)
    raise ValueError(f"expected vector, grid or (C, h, w) data, got shape {tuple(data_shape)}")


def train_denoiser(dataset, sched: NoiseSchedule, cfg: dict | None = None) -> DenoiserScore:
    """Denoising score-matching training of ``denoiser_net``'s net for the data shape.

    cfg keys: steps, batch_size, lr, seed, hidden, width.
    """
    cfg = dict(cfg or {})
    items = training_items(dataset)
    data_shape = items.shape[1:]

    rng = np.random.default_rng(int(cfg.get("seed", 0)))
    steps = int(cfg.get("steps", 2000))
    batch = min(int(cfg.get("batch_size", 64)), len(items))
    net = denoiser_net(data_shape, cfg, rng)
    model = DenoiserScore(net, sched, data_shape)

    def batch_loss(params):
        x0 = items[rng.integers(0, len(items), size=batch)]
        ts = rng.integers(1, sched.T + 1, size=batch)
        abar = sched.alpha_bar[ts - 1].reshape((batch,) + (1,) * len(data_shape))
        eps = rng.standard_normal(x0.shape)
        x_t = np.sqrt(abar) * x0 + np.sqrt(1.0 - abar) * eps
        cond = np.stack([time_features(int(t), sched) for t in ts])
        return tmean(square(sub(model.eps(Tensor(x_t), cond, params=params), eps)))

    model.loss_history = fit(net, batch_loss, steps, float(cfg.get("lr", 1e-3)))
    model.trained = steps > 0
    return model


def save_score_model(path, model: DenoiserScore) -> None:
    manifest = {
        "kind": model.kind,
        "net": model.net.config(),
        "data_shape": list(model.data_shape),
        "schedule": model.schedule.to_config(),
        "trained": model.trained,
        "loss_history": model.loss_history,
    }
    save_tensors(path, dict(model.net.params), manifest=manifest)


def load_score_model(path) -> DenoiserScore:
    tensors, manifest = load_tensors(path)
    if manifest.get("kind") != "trained-denoiser":
        raise ContainerError(f"not a denoiser checkpoint: {manifest.get('kind')}")
    net = build_net(manifest["net"])
    net.set_params({k: tensors[k] for k in net.params})
    sched = NoiseSchedule.from_config(manifest["schedule"])
    return DenoiserScore(net, sched, tuple(manifest["data_shape"]), trained=manifest["trained"],
                         loss_history=manifest.get("loss_history", []))
