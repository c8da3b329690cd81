"""Equivariance probes and the regularization losses built on them.

A probe is a differentiable map paired with a group action on its domain and
codomain. Probes trained with symmetry augmentation develop low equivariance
error on the data manifold and higher error away from it, which is what lets
the samplers use the error as an off-manifold penalty. The plain loss measures
the gap between transforming before and after the map; the cycle-consistency
variant routes the gap through a paired inverse map instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, l2_norm, norm_sq, square, sub, tmean
from .containers import ContainerError, load_tensors, save_tensors
from .groups import GroupAction, make_group
from .nn import ConvAutoencoder, MlpAutoencoder, build_net, fit, training_items

__all__ = [
    "PROBE_MAPS",
    "EquiLossConfig",
    "EquivariantFunction",
    "equi_error",
    "equi_loss",
    "equicon_loss",
    "probe_autoencoder",
    "train_autoencoder_augmented",
    "mpe_sweep",
    "save_probe",
    "load_probe",
]


@dataclass
class EquiLossConfig:
    """Weighting and scheduling of the regularization term inside samplers."""

    lam: float = 0.0
    period: int = 1
    early_stop_frac: float = 0.1
    norm: str = "squared-l2"  # or "l2"

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lambda must be >= 0")
        if self.period < 1:
            raise ValueError("period must be >= 1")
        if not 0.0 <= self.early_stop_frac < 1.0:
            raise ValueError("early-stop fraction must lie in [0, 1)")
        if self.norm not in ("squared-l2", "l2"):
            raise ValueError(f"unknown norm '{self.norm}'")


class EquivariantFunction:
    """Differentiable map with its group pairing and optional inverse.

    ``f`` maps domain tensors to codomain tensors; ``action.apply_domain``
    transforms f's inputs and ``action.apply_codomain`` its outputs. When a
    paired inverse ``h`` exists (encoder for a decoder and vice versa), the
    cycle-consistency loss becomes available.
    """

    def __init__(self, f, action, h=None, name: str = "probe", meta: dict | None = None):
        self.f = f
        self.h = h
        self.action = action
        self.name = name
        self.meta = dict(meta or {})

    @property
    def has_inverse(self) -> bool:
        return self.h is not None

    def apply_f(self, z):
        return self.f(z if isinstance(z, Tensor) else Tensor(z))

    def apply_h(self, x):
        if self.h is None:
            raise ValueError(f"probe '{self.name}' has no paired inverse map")
        return self.h(x if isinstance(x, Tensor) else Tensor(x))


def _norm_of(diff: Tensor, norm: str) -> Tensor:
    return norm_sq(diff) if norm == "squared-l2" else l2_norm(diff)


def equi_error(m: EquivariantFunction, g: int, z, norm: str = "l2") -> float:
    """Size of S_g(f(z)) - f(T_g(z)); zero iff f commutes with the pair at z."""
    zt = z if isinstance(z, Tensor) else Tensor(np.asarray(z, dtype=np.float64))
    return equi_loss(m, zt, g, EquiLossConfig(norm=norm)).item()


def equi_loss(m: EquivariantFunction, x0t: Tensor, g: int, cfg: EquiLossConfig | None = None) -> Tensor:
    """Differentiable equivariance gap S_g(f(x)) - f(T_g(x)) at the clean-signal estimate."""
    cfg = cfg or EquiLossConfig(norm="squared-l2")
    a = m.action.apply_codomain(g, m.apply_f(x0t))
    b = m.apply_f(m.action.apply_domain(g, x0t))
    if a.shape != b.shape:
        raise ValueError(f"codomain shapes differ: {a.shape} vs {b.shape}")
    return _norm_of(sub(a, b), cfg.norm)


def equicon_loss(m: EquivariantFunction, z0t: Tensor, g: int, cfg: EquiLossConfig | None = None) -> Tensor:
    """Cycle-consistency gap: || z - h(S_g^{-1}(f(T_g(z)))) || per config norm."""
    cfg = cfg or EquiLossConfig(norm="squared-l2")
    if m.h is None:
        raise ValueError(f"probe '{m.name}' has no inverse map for the constrained loss")
    fx = m.apply_f(m.action.apply_domain(g, z0t))
    back_ = m.action.apply_codomain(m.action.inverse(g), fx)
    cycled = m.apply_h(back_)
    if cycled.shape != z0t.shape:
        raise ValueError(f"cycle shape {cycled.shape} differs from input {z0t.shape}")
    return _norm_of(sub(z0t, cycled), cfg.norm)


# -- probe construction ----------------------------------------------------------

PROBE_MAPS = ("encoder", "decoder", "autoencoder")  # what a probe's f can be
_SAVED_META = ("data_action", "latent_action", "recon_mse", "data_var", "augment")


def _probe_from_autoencoder(ae, data_action_spec: dict, f_kind: str,
                            latent_action_spec: dict | None = None, meta=None) -> EquivariantFunction:
    latent_spec = latent_action_spec or data_action_spec
    if f_kind == "encoder":
        action = make_group(data_action_spec, latent_spec)
        return EquivariantFunction(ae.encode, action, h=ae.decode, name="encoder", meta=meta)
    if f_kind == "decoder":
        action = make_group(latent_spec, data_action_spec)
        return EquivariantFunction(ae.decode, action, h=ae.encode, name="decoder", meta=meta)
    if f_kind == "autoencoder":
        action = make_group(data_action_spec)
        fn = lambda x: ae.decode(ae.encode(x))
        return EquivariantFunction(fn, action, h=None, name="autoencoder", meta=meta)
    raise ValueError(f"f must be one of {PROBE_MAPS}, got {f_kind!r}")


def probe_autoencoder(data_shape, cfg: dict, rng: np.random.Generator):
    """The untrained autoencoder of a probe for items of data_shape.

    Vectors get an MLP autoencoder and square grids a conv autoencoder; cfg
    holds hidden and latent_dim (vectors) or channels and latent_channels (grids).
    """
    if len(data_shape) == 1:
        return MlpAutoencoder(data_shape[0], list(cfg.get("hidden", [64, 64])),
                              int(cfg.get("latent_dim", max(1, data_shape[0] // 2))), rng)
    if len(data_shape) == 2 and data_shape[0] == data_shape[1]:
        return ConvAutoencoder(data_shape[0], int(cfg.get("channels", 8)),
                               int(cfg.get("latent_channels", 4)), rng)
    raise ValueError(f"a probe autoencoder needs vectors or square grids, got shape {data_shape}")


def train_autoencoder_augmented(dataset, action: GroupAction, cfg: dict | None = None) -> EquivariantFunction:
    """Reconstruction training with group-augmented batches.

    Each batch element is replaced by a transformed copy with probability 1/2
    (uniform non-identity element). Returns a probe whose map is chosen by
    cfg["f"]; holds the underlying autoencoder in ``meta``.

    The autoencoder is ``probe_autoencoder``'s for the data shape.
    cfg keys: steps, batch_size, lr, seed, hidden, latent_dim (vectors),
    channels, latent_channels (grids), augment, f, latent_action.
    """
    cfg = dict(cfg or {})
    f_kind = cfg.get("f", "encoder")
    if f_kind not in PROBE_MAPS:
        raise ValueError(f"f must be one of {PROBE_MAPS}, got {f_kind!r}")
    items = training_items(dataset)
    data_shape = items.shape[1:]

    rng = np.random.default_rng(int(cfg.get("seed", 0)))
    steps = int(cfg.get("steps", 1500))
    batch = min(int(cfg.get("batch_size", 64)), len(items))
    augment = bool(cfg.get("augment", True))
    ae = probe_autoencoder(data_shape, cfg, rng)

    def batch_loss(params):
        x0 = items[rng.integers(0, len(items), size=batch)]
        if augment and action.order > 1:
            for b in range(batch):
                if rng.random() >= 0.5:
                    x0[b] = action.apply_domain(action.random_element(rng), x0[b])
        xin = Tensor(x0)
        return tmean(square(sub(ae.decode(ae.encode(xin, params=params), params=params), xin)))

    history = fit(ae, batch_loss, steps, float(cfg.get("lr", 1e-3)))

    # held-out style reconstruction check on the training distribution
    xs = items[:min(256, len(items))]
    recon_mse = float(np.mean((ae.decode(ae.encode(Tensor(xs))).data - xs) ** 2))
    data_var = float(np.var(xs))
    meta = {
        "recon_mse": recon_mse,
        "data_var": data_var,
        "augment": augment,
        "loss_history": history,
        "ae": ae,
        "data_action": dict(action.domain_spec),
        "latent_action": cfg.get("latent_action"),
    }
    return _probe_from_autoencoder(ae, meta["data_action"], f_kind,
                                   latent_action_spec=meta["latent_action"], meta=meta)


def mpe_sweep(m: EquivariantFunction, dataset, noise_levels, rng: np.random.Generator,
              norm: str = "l2") -> list[dict]:
    """Equivariance error of the probe on data perturbed at increasing noise.

    For each noise level, every datum is perturbed once and the error is
    evaluated for every non-identity group element. Rows report mean and std
    over the (datum, element) population.
    """
    items = [np.asarray(a, dtype=np.float64) for a in dataset]
    if not items:
        raise ValueError("dataset must be nonempty")
    levels = [float(s) for s in noise_levels]
    if levels != sorted(levels) or levels[0] != 0.0:
        raise ValueError("noise levels must be ascending and start at 0")
    elements = m.action.elements[1:] or [0]
    rows = []
    for sigma in levels:
        vals = []
        for x in items:
            xp = x + sigma * rng.standard_normal(x.shape) if sigma > 0 else x
            for g in elements:
                vals.append(equi_error(m, g, xp, norm=norm))
        vals = np.asarray(vals)
        rows.append({"sigma": sigma, "mean": float(vals.mean()),
                     "std": float(vals.std()), "n": int(vals.size)})
    return rows


def save_probe(path, m: EquivariantFunction) -> None:
    ae = m.meta.get("ae")
    if ae is None:
        raise ValueError("only autoencoder-backed probes can be saved")
    manifest = {"kind": "equivariant-probe", "f": m.name, "ae": ae.config(),
                "loss_history": m.meta.get("loss_history", []),
                **{k: m.meta.get(k) for k in _SAVED_META}}
    save_tensors(path, dict(ae.params), manifest=manifest)


def load_probe(path) -> EquivariantFunction:
    tensors, manifest = load_tensors(path)
    if manifest.get("kind") != "equivariant-probe":
        raise ContainerError(f"not a probe checkpoint: {manifest.get('kind')}")
    ae = build_net(manifest["ae"])
    ae.set_params(tensors)
    meta = {"ae": ae, "loss_history": manifest.get("loss_history", []),
            **{k: manifest.get(k) for k in _SAVED_META}}
    return _probe_from_autoencoder(ae, manifest["data_action"], manifest["f"],
                                   latent_action_spec=manifest.get("latent_action"), meta=meta)
