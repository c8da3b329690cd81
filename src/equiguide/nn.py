"""Small trainable networks: how they are built, fitted and rebuilt.

Parameters live as plain float64 arrays; each forward pass wraps them in
tensors (gradient-tracked only while training), so trained networks are
immutable and safely shared across sampler chains. ``build_net`` rebuilds a
net from its ``config()`` and ``fit`` is the one Adam loop; a trainer only
says how it draws and scores a batch.
"""

from __future__ import annotations

import numpy as np

from .autodiff import (
    Tensor,
    add,
    backward,
    conv2d_mc,
    matmul,
    relu,
    reshape,
    tanh,
    upsample_repeat,
    downsample_mean,
)
from .containers import ContainerError

__all__ = ["Adam", "Net", "Mlp", "ConvNet", "MlpAutoencoder", "ConvAutoencoder", "build_net",
           "training_items", "fit", "TrainingDiverged"]


class TrainingDiverged(RuntimeError):
    pass


class Adam:
    """Adaptive-moment gradient descent over a dict of arrays."""

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for k, g in grads.items():
            if g is None:
                continue
            m = self.m.get(k)
            if m is None:
                m = np.zeros_like(params[k])
                self.m[k] = m
                self.v[k] = np.zeros_like(params[k])
            v = self.v[k]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            params[k] = params[k] - self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


def _wrap_params(params: dict[str, np.ndarray], trainable: bool) -> dict[str, Tensor]:
    return {k: Tensor(v, requires_grad=trainable) for k, v in params.items()}


def _he(rng, fan_in, shape):
    if fan_in < 1:
        raise ValueError(f"a layer of shape {shape} has no inputs; every width must be >= 1")
    return rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)


class Net:
    """A net whose ``config()`` holds the constructor arguments named in ``_args``."""

    arch = ""
    _args: tuple[str, ...] = ()

    def config(self) -> dict:
        return {"arch": self.arch, **{k: getattr(self, k) for k in self._args}}

    def set_params(self, flat: dict[str, np.ndarray]) -> None:
        self.params.update(flat)


class Mlp(Net):
    """Fully connected net with an additive conditioning input on layer one."""

    arch = "mlp"
    _args = ("in_dim", "hidden", "out_dim", "cond_dim", "activation")

    def __init__(self, in_dim: int, hidden: list[int], out_dim: int, rng: np.random.Generator,
                 cond_dim: int = 0, activation: str = "relu"):
        self.in_dim = in_dim
        self.hidden = list(hidden)
        self.out_dim = out_dim
        self.cond_dim = cond_dim
        self.activation = activation
        self.params: dict[str, np.ndarray] = {}
        dims = [in_dim] + self.hidden + [out_dim]
        for i in range(len(dims) - 1):
            self.params[f"W{i}"] = _he(rng, dims[i], (dims[i], dims[i + 1]))
            self.params[f"b{i}"] = np.zeros(dims[i + 1])
        if cond_dim:
            self.params["Wc"] = _he(rng, cond_dim, (cond_dim, dims[1]))

    def _act(self, h):
        return tanh(h) if self.activation == "tanh" else relu(h)

    def forward(self, x: Tensor, cond: np.ndarray | None = None,
                params: dict[str, Tensor] | None = None) -> Tensor:
        p = params if params is not None else _wrap_params(self.params, False)
        n_layers = len(self.hidden) + 1
        h = add(matmul(x, p["W0"]), p["b0"])
        if self.cond_dim:
            h = add(h, matmul(Tensor(cond), p["Wc"]))
        h = self._act(h)
        for i in range(1, n_layers):
            h = add(matmul(h, p[f"W{i}"]), p[f"b{i}"])
            if i < n_layers - 1:
                h = self._act(h)
        return h


class ConvNet(Net):
    """4-layer same-size 3x3 conv stack with per-layer additive time conditioning."""

    arch = "conv"
    _args = ("channels", "width", "cond_dim")
    _LAST = 3  # index of the output layer

    def __init__(self, channels: int, width: int, rng: np.random.Generator, cond_dim: int = 8):
        self.channels = channels
        self.width = width
        self.cond_dim = cond_dim
        self.params: dict[str, np.ndarray] = {}
        cin = channels
        for i in range(self._LAST + 1):
            cout = channels if i == self._LAST else width
            self.params[f"K{i}"] = _he(rng, cin * 9, (cout, cin, 3, 3))
            self.params[f"b{i}"] = np.zeros(cout)
            if cond_dim and i < self._LAST:
                self.params[f"U{i}"] = _he(rng, cond_dim, (cond_dim, cout))
            cin = cout

    def forward(self, x: Tensor, cond: np.ndarray | None = None,
                params: dict[str, Tensor] | None = None) -> Tensor:
        p = params if params is not None else _wrap_params(self.params, False)
        batched = x.data.ndim == 4
        h = x
        for i in range(self._LAST + 1):
            h = conv2d_mc(h, p[f"K{i}"])
            b = p[f"b{i}"]
            cout = b.shape[0]
            h = add(h, reshape(b, (cout, 1, 1)))
            if self.cond_dim and i < self._LAST:
                emb = matmul(Tensor(cond), p[f"U{i}"])
                shp = (emb.shape[0], cout, 1, 1) if batched else (cout, 1, 1)
                h = add(h, reshape(emb, shp))
            if i < self._LAST:
                h = relu(h)
        return h


class MlpAutoencoder(Net):
    """Fully connected autoencoder for vector data; latent_dim < in_dim."""

    arch = "mlp-ae"
    _args = ("in_dim", "hidden", "latent_dim")

    def __init__(self, in_dim: int, hidden: list[int], latent_dim: int, rng: np.random.Generator):
        if latent_dim >= in_dim:
            raise ValueError(f"latent dim {latent_dim} must be smaller than data dim {in_dim}")
        self.in_dim = in_dim
        self.hidden = list(hidden)
        self.latent_dim = latent_dim
        self.encoder = Mlp(in_dim, hidden, latent_dim, rng, activation="tanh")
        self.decoder = Mlp(latent_dim, hidden[::-1], in_dim, rng, activation="tanh")

    @property
    def params(self) -> dict[str, np.ndarray]:
        out = {f"enc.{k}": v for k, v in self.encoder.params.items()}
        out.update({f"dec.{k}": v for k, v in self.decoder.params.items()})
        return out

    def set_params(self, flat: dict[str, np.ndarray]) -> None:
        for k, v in flat.items():
            side, name = k.split(".", 1)
            (self.encoder if side == "enc" else self.decoder).params[name] = v

    def _split(self, p: dict[str, Tensor] | None):
        if p is None:
            return None, None
        enc = {k[4:]: v for k, v in p.items() if k.startswith("enc.")}
        dec = {k[4:]: v for k, v in p.items() if k.startswith("dec.")}
        return enc, dec

    def encode(self, x: Tensor, params=None) -> Tensor:
        enc, _ = self._split(params)
        return self.encoder.forward(x, params=enc)

    def decode(self, z: Tensor, params=None) -> Tensor:
        _, dec = self._split(params)
        return self.decoder.forward(z, params=dec)

    def latent_shape(self):
        return (self.latent_dim,)


class ConvAutoencoder(Net):
    """Convolutional autoencoder over single-channel grids with a spatial latent.

    The latent keeps its grid structure (C x H/4 x W/4), so spatial group
    actions act on it directly.
    """

    arch = "conv-ae"
    _args = ("grid", "channels", "latent_channels")

    def __init__(self, grid: int, channels: int, latent_channels: int, rng: np.random.Generator):
        if grid % 4 != 0:
            raise ValueError("grid must be divisible by 4")
        lat_dim = latent_channels * (grid // 4) ** 2
        if lat_dim >= grid * grid:
            raise ValueError(f"latent size {lat_dim} must be smaller than data size {grid * grid}")
        self.grid = grid
        self.channels = channels
        self.latent_channels = latent_channels
        self.params: dict[str, np.ndarray] = {}
        specs = {
            "eK0": (channels, 1), "eK1": (channels, channels), "eK2": (latent_channels, channels),
            "dK0": (channels, latent_channels), "dK1": (channels, channels), "dK2": (1, channels),
        }
        for name, (cout, cin) in specs.items():
            self.params[name] = _he(rng, cin * 9, (cout, cin, 3, 3))
            self.params[name.replace("K", "b")] = np.zeros(cout)

    def encode(self, x: Tensor, params=None) -> Tensor:
        """(H, W) -> latent (C, h, w); batched (B, H, W) -> (B, C, h, w)."""
        p = params if params is not None else _wrap_params(self.params, False)
        if x.data.ndim == 2:
            h = reshape(x, (1,) + x.shape)
        elif x.data.ndim == 3:
            h = reshape(x, (x.shape[0], 1) + x.shape[1:])
        else:
            raise ValueError(f"expected (H, W) or (B, H, W), got {x.shape}")
        h = relu(add(conv2d_mc(h, p["eK0"]), reshape(p["eb0"], (-1, 1, 1))))
        h = downsample_mean(h, 2)
        h = relu(add(conv2d_mc(h, p["eK1"]), reshape(p["eb1"], (-1, 1, 1))))
        h = downsample_mean(h, 2)
        h = add(conv2d_mc(h, p["eK2"]), reshape(p["eb2"], (-1, 1, 1)))
        return h

    def decode(self, z: Tensor, params=None) -> Tensor:
        # linear output: off-manifold inputs produce unbounded reconstruction
        # gaps, so probe gradients do not saturate away from the data
        p = params if params is not None else _wrap_params(self.params, False)
        h = relu(add(conv2d_mc(z, p["dK0"]), reshape(p["db0"], (-1, 1, 1))))
        h = upsample_repeat(h, 2)
        h = relu(add(conv2d_mc(h, p["dK1"]), reshape(p["db1"], (-1, 1, 1))))
        h = upsample_repeat(h, 2)
        out = add(conv2d_mc(h, p["dK2"]), reshape(p["db2"], (-1, 1, 1)))
        if z.data.ndim == 3:
            return reshape(out, (self.grid, self.grid))
        return reshape(out, (out.shape[0], self.grid, self.grid))

    def latent_shape(self):
        g = self.grid // 4
        return (self.latent_channels, g, g)


_ARCHS = {cls.arch: cls for cls in (Mlp, ConvNet, MlpAutoencoder, ConvAutoencoder)}


def build_net(config: dict) -> Net:
    """A fresh net of ``config()``'s architecture; its parameters come from ``set_params``.

    A config that its class cannot take (an older or edited checkpoint) is a ContainerError.
    """
    args = dict(config)
    cls = _ARCHS.get(args.pop("arch", None))
    if cls is None:
        raise ContainerError(f"unknown network arch {config.get('arch')!r}")
    try:
        return cls(rng=np.random.default_rng(0), **args)
    except (TypeError, ValueError) as exc:
        raise ContainerError(f"network config {config!r} does not build: {exc}") from exc


def training_items(dataset) -> np.ndarray:
    """The dataset stacked as float64 and sorted by raw bytes, so training ignores its order."""
    items = np.asarray([np.asarray(a, dtype=np.float64) for a in dataset])
    if items.size == 0:
        raise ValueError("dataset must be nonempty")
    keys = [a.tobytes() for a in items]
    return items[sorted(range(len(items)), key=keys.__getitem__)]


def fit(net: Net, batch_loss, steps: int, lr: float) -> list[float]:
    """Adam on ``net``'s parameters for ``steps`` batches; returns the loss history.

    ``batch_loss(params)`` draws a batch and returns its scalar loss through
    the gradient-tracked ``params``.
    """
    opt = Adam(lr)
    history: list[float] = []
    try:
        with np.errstate(all="ignore"):  # a non-finite value raises on the tape instead
            for _ in range(steps):
                params = _wrap_params(net.params, True)
                loss = batch_loss(params)
                backward(loss)
                history.append(loss.item())
                new = net.params  # an autoencoder's flat params are a new dict on each read
                opt.step(new, {k: p.grad for k, p in params.items()})
                net.set_params(new)
            _wrap_params(net.params, False)  # so is one left by the last update
    except FloatingPointError as exc:
        raise TrainingDiverged(f"training produced non-finite values: {exc}") from exc
    return history
