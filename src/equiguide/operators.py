"""Forward measurement operators with exact adjoints / vector-Jacobian products.

``make_operator`` decides the kind once, where it is built: it checks the spec
and returns an operator holding that kind's forward map as a closure over
traced tensor ops. Applying it is one call, guidance losses differentiate
through it, and ``vjp`` falls out of the tape for free. Masking operators keep
the ambient shape (masked coordinates read zero), which makes every linear
kind self-describable as a dense matrix at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .autodiff import Tensor, backward, conv2d, div, downsample_mean, mul, tanh, tsum

__all__ = ["MeasurementOperator", "Measurement", "make_operator", "forward", "gaussian_kernel",
           "motion_kernel"]

_KINDS = ("identity", "box-inpaint", "random-inpaint", "gaussian-blur", "motion-blur",
          "downsample", "saturate")


def gaussian_kernel(size: int, sigma: float) -> np.ndarray:
    """Normalized Gaussian kernel; sigma -> 0 degenerates to the delta kernel."""
    if size % 2 == 0:
        raise ValueError("kernel size must be odd")
    if sigma <= 0.0:
        k = np.zeros((size, size))
        k[size // 2, size // 2] = 1.0
        return k
    ax = np.arange(size) - size // 2
    g = np.exp(-0.5 * (ax / sigma) ** 2)
    k = np.outer(g, g)
    return k / k.sum()


def motion_kernel(length: int, orientation: str = "horizontal") -> np.ndarray:
    """1-D box kernel embedded in a length x length grid."""
    if length % 2 == 0:
        raise ValueError("kernel size must be odd")
    k = np.zeros((length, length))
    c = length // 2
    if orientation == "horizontal":
        k[c, :] = 1.0
    elif orientation == "vertical":
        k[:, c] = 1.0
    elif orientation == "diagonal":
        np.fill_diagonal(k, 1.0)
    else:
        raise ValueError(f"unknown orientation '{orientation}'")
    return k / k.sum()


@dataclass
class MeasurementOperator:
    """Traced forward map with its measurement noise level; immutable and shareable.

    ``map`` takes and returns a Tensor. ``mask`` is the 0/1 observation mask of
    the inpainting kinds and None for the others.
    """

    map: Callable[[Tensor], Tensor]
    sigma_y: float = 0.0
    is_linear: bool = True
    mask: np.ndarray | None = None
    _matrices: dict = field(default_factory=dict, repr=False)

    def apply(self, x):
        """Traced forward map; accepts numpy arrays or tensors."""
        if isinstance(x, Tensor):
            return self.map(x)
        return self.map(Tensor(x)).data

    def vjp(self, x: np.ndarray, cotangent: np.ndarray) -> np.ndarray:
        """J(x)^T cotangent via the tape; equals the adjoint for linear kinds."""
        leaf = Tensor(np.asarray(x, dtype=np.float64), requires_grad=True)
        out = self.apply(leaf)
        backward(tsum(mul(out, np.asarray(cotangent, dtype=np.float64))))
        return np.zeros(leaf.shape) if leaf.grad is None else leaf.grad

    def adjoint(self, v: np.ndarray, in_shape: tuple[int, ...]) -> np.ndarray:
        if not self.is_linear:
            raise ValueError("adjoint defined for linear operators only")
        return self.vjp(np.zeros(in_shape), v)

    def matrix(self, in_shape: tuple[int, ...]) -> np.ndarray:
        """Dense (m, d) form built column-by-column; linear kinds only."""
        if not self.is_linear:
            raise ValueError("matrix form defined for linear operators only")
        key = tuple(in_shape)
        hit = self._matrices.get(key)
        if hit is not None:
            return hit
        d = int(np.prod(in_shape))
        cols = []
        for i in range(d):
            e = np.zeros(d)
            e[i] = 1.0
            cols.append(self.apply(e.reshape(in_shape)).reshape(-1))
        M = np.stack(cols, axis=1)
        M.setflags(write=False)
        self._matrices[key] = M
        return M


@dataclass(frozen=True)
class Measurement:
    """Observed data with the noise seed that produced it."""

    y: np.ndarray
    seed: int | None


def make_operator(spec: dict, grid_shape: tuple[int, ...] | None = None) -> MeasurementOperator:
    """Construct an operator from a config dict.

    Recognised specs (sigma_y defaults to 0; an inpainting shape defaults to
    grid_shape):
      {"kind": "identity"}
      {"kind": "box-inpaint", "box": [top, left, h, w], "shape": [H, W]}
      {"kind": "random-inpaint", "keep_prob": p, "shape": [...], "seed": s}
      {"kind": "gaussian-blur", "size": k, "sigma": s, "padding": mode}
      {"kind": "motion-blur", "size": k, "orientation": o, "padding": mode}
      {"kind": "downsample", "factor": f}
      {"kind": "saturate", "scale": c}
    """
    kind = spec.get("kind")
    if kind not in _KINDS:
        raise ValueError(f"operator kind must be one of {_KINDS}, got {kind!r}")
    sigma_y = float(spec.get("sigma_y", 0.0))
    if sigma_y < 0.0:
        raise ValueError("sigma_y must be >= 0")
    shape = tuple(spec.get("shape", grid_shape or ()))

    if kind == "identity":
        return MeasurementOperator(lambda x: x, sigma_y)
    if kind in ("box-inpaint", "random-inpaint"):
        if not shape:
            raise ValueError(f"{kind} needs a grid shape")
        if kind == "box-inpaint":
            top, left, bh, bw = (int(v) for v in spec["box"])
            H, W = shape[-2], shape[-1]
            if min(top, left, bh, bw) < 0 or top + bh > H or left + bw > W:
                raise ValueError(f"box {spec['box']} does not fit grid {H}x{W}")
            mask = np.ones(shape)
            mask[..., top : top + bh, left : left + bw] = 0.0
        else:
            p = float(spec["keep_prob"])
            if not 0.0 < p <= 1.0:
                raise ValueError("keep_prob must lie in (0, 1]")
            mask_rng = np.random.default_rng(int(spec.get("seed", 0)))
            mask = (mask_rng.random(shape) < p).astype(np.float64)

        def masked(x: Tensor) -> Tensor:
            if mask.shape != x.shape[-mask.ndim :]:
                raise ValueError(f"mask shape {mask.shape} vs input {x.shape}")
            return mul(x, mask)

        return MeasurementOperator(masked, sigma_y, mask=mask)
    if kind in ("gaussian-blur", "motion-blur"):
        size, padding = int(spec["size"]), spec.get("padding", "reflect")
        k = (gaussian_kernel(size, float(spec["sigma"])) if kind == "gaussian-blur"
             else motion_kernel(size, spec.get("orientation", "horizontal")))
        return MeasurementOperator(lambda x: conv2d(x, k, padding=padding), sigma_y)
    if kind == "downsample":
        f = int(spec["factor"])
        if f < 1:
            raise ValueError("factor must be >= 1")
        if shape and (shape[-2] % f or shape[-1] % f):
            raise ValueError(f"factor {f} does not divide grid {shape}")
        return MeasurementOperator(lambda x: downsample_mean(x, f), sigma_y)
    # saturate, the one nonlinear kind
    c = float(spec.get("scale", 2.0))
    if c <= 0.0:
        raise ValueError("scale must be positive")
    return MeasurementOperator(lambda x: div(tanh(mul(x, c)), c), sigma_y, is_linear=False)


def forward(op: MeasurementOperator, x: np.ndarray, rng) -> Measurement:
    """y = A(x) + sigma_y * noise, with the noise seed recorded when known."""
    x = np.asarray(x, dtype=np.float64)
    clean = op.apply(x)
    seed = None
    if isinstance(rng, (int, np.integer)):
        seed = int(rng)
        rng = np.random.default_rng(seed)
    y = clean + op.sigma_y * rng.standard_normal(clean.shape) if op.sigma_y > 0 else clean
    return Measurement(y=y, seed=seed)
