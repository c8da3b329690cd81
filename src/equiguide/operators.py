"""Forward measurement operators with exact adjoints / vector-Jacobian products.

Each operator applies as a traced tensor composition, so guidance losses can
differentiate through it and ``vjp`` falls out of the tape for free. Masking
operators keep the ambient shape (masked coordinates read zero), which makes
every linear kind self-describable as a dense matrix at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import (
    Tensor,
    backward,
    conv2d,
    div,
    downsample_mean,
    mul,
    tanh,
    tsum,
)

__all__ = [
    "MeasurementOperator",
    "Measurement",
    "make_operator",
    "forward",
    "gaussian_kernel",
    "motion_kernel",
]

_KINDS = (
    "identity",
    "box-inpaint",
    "random-inpaint",
    "gaussian-blur",
    "motion-blur",
    "downsample",
    "saturate",
)


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
    """Forward map with measurement noise level; immutable and shareable."""

    kind: str
    sigma_y: float
    spec: dict
    mask: np.ndarray | None = None
    kernel: np.ndarray | None = None
    padding: str = "reflect"
    factor: int = 1
    scale: float = 1.0
    _matrices: dict = field(default_factory=dict, repr=False)

    @property
    def is_linear(self) -> bool:
        return self.kind != "saturate"

    def apply(self, x):
        """Traced forward map; accepts numpy arrays or tensors."""
        was_array = not isinstance(x, Tensor)
        tx = Tensor(x) if was_array else x
        k = self.kind
        if k == "identity":
            out = tx
        elif k in ("box-inpaint", "random-inpaint"):
            if self.mask.shape != tx.shape[-self.mask.ndim :]:
                raise ValueError(f"mask shape {self.mask.shape} vs input {tx.shape}")
            out = mul(tx, self.mask)
        elif k in ("gaussian-blur", "motion-blur"):
            out = conv2d(tx, self.kernel, padding=self.padding)
        elif k == "downsample":
            out = downsample_mean(tx, self.factor)
        elif k == "saturate":
            out = div(tanh(mul(tx, self.scale)), self.scale)
        else:
            raise ValueError(f"unknown operator kind '{k}'")
        return out.data if was_array else out

    def out_shape(self, in_shape: tuple[int, ...]) -> tuple[int, ...]:
        if self.kind == "downsample":
            return in_shape[:-2] + (in_shape[-2] // self.factor, in_shape[-1] // self.factor)
        return in_shape

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
    """Observed data with the operator spec and noise seed that produced it."""

    y: np.ndarray
    operator_spec: dict
    sigma_y: float
    seed: int | None


def make_operator(spec: dict, grid_shape: tuple[int, ...] | None = None) -> MeasurementOperator:
    """Construct an operator from a config dict.

    Recognised specs (sigma_y defaults to 0):
      {"kind": "identity"}
      {"kind": "box-inpaint", "box": [top, left, h, w], "shape": [H, W]}
      {"kind": "random-inpaint", "keep_prob": p, "shape": [...], "seed": s}
      {"kind": "gaussian-blur", "size": k, "sigma": s, "padding": mode}
      {"kind": "motion-blur", "size": k, "orientation": o, "padding": mode}
      {"kind": "downsample", "factor": f}
      {"kind": "saturate", "scale": c}
    """
    spec = dict(spec)
    kind = spec.get("kind")
    if kind not in _KINDS:
        raise ValueError(f"operator kind must be one of {_KINDS}, got {kind!r}")
    sigma_y = float(spec.get("sigma_y", 0.0))
    if sigma_y < 0.0:
        raise ValueError("sigma_y must be >= 0")
    shape = tuple(spec.get("shape", grid_shape or ()))

    if kind == "identity":
        return MeasurementOperator(kind, sigma_y, spec)
    if kind == "box-inpaint":
        if not shape:
            raise ValueError("box-inpaint needs a grid shape")
        top, left, bh, bw = (int(v) for v in spec["box"])
        H, W = shape[-2], shape[-1]
        if bh > H or bw > W or top + bh > H or left + bw > W or top < 0 or left < 0:
            raise ValueError(f"box {spec['box']} does not fit grid {H}x{W}")
        mask = np.ones(shape)
        mask[..., top : top + bh, left : left + bw] = 0.0
        return MeasurementOperator(kind, sigma_y, spec, mask=mask)
    if kind == "random-inpaint":
        if not shape:
            raise ValueError("random-inpaint needs a grid shape")
        p = float(spec["keep_prob"])
        if not 0.0 < p <= 1.0:
            raise ValueError("keep_prob must lie in (0, 1]")
        mask_rng = np.random.default_rng(int(spec.get("seed", 0)))
        mask = (mask_rng.random(shape) < p).astype(np.float64)
        return MeasurementOperator(kind, sigma_y, spec, mask=mask)
    if kind == "gaussian-blur":
        k = gaussian_kernel(int(spec["size"]), float(spec["sigma"]))
        return MeasurementOperator(kind, sigma_y, spec, kernel=k, padding=spec.get("padding", "reflect"))
    if kind == "motion-blur":
        k = motion_kernel(int(spec["size"]), spec.get("orientation", "horizontal"))
        return MeasurementOperator(kind, sigma_y, spec, kernel=k, padding=spec.get("padding", "reflect"))
    if kind == "downsample":
        f = int(spec["factor"])
        if f < 1:
            raise ValueError("factor must be >= 1")
        if shape and (shape[-2] % f or shape[-1] % f):
            raise ValueError(f"factor {f} does not divide grid {shape}")
        return MeasurementOperator(kind, sigma_y, spec, factor=f)
    if kind == "saturate":
        c = float(spec.get("scale", 2.0))
        if c <= 0.0:
            raise ValueError("scale must be positive")
        return MeasurementOperator(kind, sigma_y, spec, scale=c)
    raise AssertionError("unreachable")


def forward(op: MeasurementOperator, x: np.ndarray, rng) -> Measurement:
    """y = A(x) + sigma_y * noise, with the noise seed recorded when known."""
    x = np.asarray(x, dtype=np.float64)
    clean = op.apply(x)
    seed = None
    if isinstance(rng, (int, np.integer)):
        seed = int(rng)
        rng = np.random.default_rng(seed)
    y = clean + op.sigma_y * rng.standard_normal(clean.shape) if op.sigma_y > 0 else clean
    return Measurement(y=y, operator_spec=dict(op.spec), sigma_y=op.sigma_y, seed=seed)
