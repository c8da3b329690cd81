"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything downstream (losses, guided samplers, network training) differentiates
through compositions of the ops defined here. The tape is per-computation: it is
built while ops execute on tensors that require gradients and freed by
``backward``. float64 throughout; speed is secondary to verifiability.
"""

from __future__ import annotations

import ctypes
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = [
    "Tensor",
    "ShapeMismatch",
    "NonFiniteValue",
    "backward",
    "check_gradient",
    "add", "sub", "mul", "div", "neg", "matmul",
    "tsum", "tmean", "relu", "tanh", "square", "sqrt",
    "reshape", "permute_flat", "gather_flat",
    "pad2d", "crop2d", "conv2d", "conv2d_mc",
    "downsample_mean", "upsample_repeat",
    "norm_sq", "l2_norm",
]


def _keep_freed_heap() -> None:
    """Stop glibc handing the tape's freed 0.1-10 MB arrays back to the OS after every
    op; re-faulting them cost a quarter of a 16x16 grid sampler step, 40% of a training step."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # not glibc
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: serve blocks up to 32 MB from the heap
    mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD: trim the heap only past 256 MB free


_keep_freed_heap()


class ShapeMismatch(ValueError):
    """Operand shapes are incompatible for the requested op."""


class NonFiniteValue(FloatingPointError):
    """An op produced NaN or Inf."""


def _as_array(x) -> np.ndarray:
    if isinstance(x, Tensor):
        return x.data
    return np.asarray(x, dtype=np.float64)


class Tensor:
    """n-dimensional float64 array, row-major, optionally on the gradient tape.

    Immutable after construction except for gradient accumulation. ``grad`` is
    populated on requires_grad leaves by ``backward``.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_op")

    __array_priority__ = 1000  # numpy defers mixed expressions to Tensor operators

    def __init__(self, data, requires_grad: bool = False):
        arr = np.array(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise NonFiniteValue("tensor constructed with non-finite entries")
        arr.setflags(write=False)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self._op = "leaf"

    @classmethod
    def _wrap(cls, data: np.ndarray, parents: tuple["Tensor", ...], bwd, op: str) -> "Tensor":
        if not np.all(np.isfinite(data)):
            raise NonFiniteValue(f"op '{op}' produced non-finite output")
        out = cls.__new__(cls)
        data = np.ascontiguousarray(data, dtype=np.float64)
        data.setflags(write=False)
        out.data = data
        out.grad = None
        out.requires_grad = any(p.requires_grad for p in parents)
        if out.requires_grad:
            out._parents = parents
            out._backward = bwd
        else:
            out._parents = ()
            out._backward = None
        out._op = op
        return out

    # -- introspection -------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.size == 1 else self._item_err()

    def _item_err(self):
        raise ShapeMismatch(f"item() on non-scalar tensor of shape {self.shape}")

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self._op}, requires_grad={self.requires_grad})"

    # -- operator sugar ------------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    # -- autodiff ------------------------------------------------------------
    def _accumulate(self, g: np.ndarray) -> None:
        # grad buffers are treated as read-only everywhere, so the first
        # contribution may alias the producing op's buffer
        if self.grad is None:
            self.grad = g
        else:
            self.grad = self.grad + g

    def backward(self) -> None:
        backward(self)


def _ensure_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar loss.

    Populates ``grad`` on every requires_grad leaf reachable from ``loss`` and
    frees the tape. Intermediate gradients are discarded.
    """
    if not isinstance(loss, Tensor):
        raise TypeError("backward expects a Tensor")
    if loss.size != 1:
        raise ShapeMismatch(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return

    # Iterative topological order; each tape node visited exactly once.
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    loss._accumulate(np.ones_like(loss.data))
    for node in reversed(order):
        if node._backward is not None:
            node._backward(node.grad)
        node._backward = None
        parents = node._parents
        node._parents = ()
        if parents:  # interior node: gradient no longer needed
            node.grad = None if node is not loss else node.grad
    # Restore leaf-only grads: interior nodes above already cleared; leaves keep theirs.


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _binary(a, b, op_name: str, fwd, bwd_a, bwd_b) -> Tensor:
    ta, tb = _ensure_tensor(a), _ensure_tensor(b)
    try:
        np.broadcast_shapes(ta.shape, tb.shape)
    except ValueError as exc:
        raise ShapeMismatch(f"{op_name}: shapes {ta.shape} and {tb.shape} do not broadcast") from exc
    with np.errstate(all="ignore"):  # finiteness is checked on the result
        out_data = fwd(ta.data, tb.data)

    def bwd(g: np.ndarray) -> None:
        if ta.requires_grad:
            ta._accumulate(_unbroadcast(bwd_a(g, ta.data, tb.data), ta.shape))
        if tb.requires_grad:
            tb._accumulate(_unbroadcast(bwd_b(g, ta.data, tb.data), tb.shape))

    return Tensor._wrap(out_data, (ta, tb), bwd, op_name)


def add(a, b) -> Tensor:
    return _binary(a, b, "add", np.add, lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b) -> Tensor:
    return _binary(a, b, "sub", np.subtract, lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b) -> Tensor:
    return _binary(a, b, "mul", np.multiply, lambda g, x, y: g * y, lambda g, x, y: g * x)


def div(a, b) -> Tensor:
    return _binary(a, b, "div", np.divide, lambda g, x, y: g / y, lambda g, x, y: -g * x / (y * y))


def _unary(x, op_name: str, fwd, bwd_rule) -> Tensor:
    tx = _ensure_tensor(x)
    out_data = fwd(tx.data)

    def bwd(g: np.ndarray) -> None:
        if tx.requires_grad:
            tx._accumulate(bwd_rule(g, tx.data, out_data))

    return Tensor._wrap(out_data, (tx,), bwd, op_name)


def neg(x) -> Tensor:
    return _unary(x, "neg", np.negative, lambda g, x_, y: -g)


def relu(x) -> Tensor:
    return _unary(x, "relu", lambda d: np.maximum(d, 0.0), lambda g, x_, y: g * (x_ > 0.0))


def tanh(x) -> Tensor:
    return _unary(x, "tanh", np.tanh, lambda g, x_, y: g * (1.0 - y * y))


def square(x) -> Tensor:
    return _unary(x, "square", np.square, lambda g, x_, y: g * 2.0 * x_)


def sqrt(x) -> Tensor:
    return _unary(x, "sqrt", np.sqrt, lambda g, x_, y: g * 0.5 / y)


def tsum(x) -> Tensor:
    tx = _ensure_tensor(x)

    def bwd(g: np.ndarray) -> None:
        if tx.requires_grad:
            tx._accumulate(np.broadcast_to(g, tx.shape).copy())

    return Tensor._wrap(np.asarray(tx.data.sum()), (tx,), bwd, "sum")


def tmean(x) -> Tensor:
    tx = _ensure_tensor(x)
    return div(tsum(tx), float(tx.size))


def reshape(x, shape) -> Tensor:
    tx = _ensure_tensor(x)
    out_data = tx.data.reshape(shape)

    def bwd(g: np.ndarray) -> None:
        if tx.requires_grad:
            tx._accumulate(g.reshape(tx.shape))

    return Tensor._wrap(out_data, (tx,), bwd, "reshape")


def matmul(a, b) -> Tensor:
    ta, tb = _ensure_tensor(a), _ensure_tensor(b)
    if ta.data.ndim not in (1, 2) or tb.data.ndim not in (1, 2):
        raise ShapeMismatch("matmul supports 1-D and 2-D operands only")
    if ta.shape[-1] != tb.shape[0]:
        raise ShapeMismatch(f"matmul: inner dims {ta.shape} @ {tb.shape}")
    out_data = ta.data @ tb.data

    def bwd(g: np.ndarray) -> None:
        A, B = ta.data, tb.data
        # Promote to 2-D so one rule covers all four vector/matrix cases.
        A2 = A[None, :] if A.ndim == 1 else A
        B2 = B[:, None] if B.ndim == 1 else B
        g2 = g.reshape(A2.shape[0], B2.shape[1])
        if ta.requires_grad:
            ta._accumulate((g2 @ B2.T).reshape(A.shape))
        if tb.requires_grad:
            tb._accumulate((A2.T @ g2).reshape(B.shape))

    return Tensor._wrap(out_data, (ta, tb), bwd, "matmul")


# -- gather / permutation ops -------------------------------------------------


def gather_flat(x, index: np.ndarray, out_shape) -> Tensor:
    """out.flat[j] = x.flat[index[j]].

    Backward is the exact scatter-add transpose, so permutations, pads and
    nearest-neighbour resampling all differentiate exactly.
    """
    tx = _ensure_tensor(x)
    out_data = tx.data.reshape(-1)[index].reshape(out_shape)

    def bwd(g: np.ndarray) -> None:
        if tx.requires_grad:
            acc = np.bincount(index, weights=g.reshape(-1), minlength=tx.size)
            tx._accumulate(acc.reshape(tx.shape))

    return Tensor._wrap(out_data, (tx,), bwd, "gather")


def permute_flat(x, index: np.ndarray) -> Tensor:
    """Entry permutation of the flattened buffer; shape preserved."""
    tx = _ensure_tensor(x)
    if index.size != tx.size:
        raise ShapeMismatch(f"permutation of length {index.size} on tensor of size {tx.size}")
    return gather_flat(tx, index, tx.shape)


# -- padding, cropping, convolution --------------------------------------------

_PAD_MODES = ("zero", "reflect", "circular")
_pad_map_cache: dict[tuple, tuple[np.ndarray, tuple[int, ...]]] = {}


def _pad_map(shape: tuple[int, ...], ph: int, pw: int, mode: str):
    """Index map from a reflect- or circular-padded array back into the source."""
    key = (shape, ph, pw, mode)
    if key not in _pad_map_cache:
        h, w = shape[-2], shape[-1]
        rows, cols = np.arange(-ph, h + ph), np.arange(-pw, w + pw)
        if mode == "circular":
            rr, cc = rows % h, cols % w
        else:
            if ph >= h or pw >= w:
                raise ShapeMismatch("reflect padding wider than the source grid")
            rr, cc = np.abs(rows), np.abs(cols)
            rr = np.where(rr >= h, 2 * (h - 1) - rr, rr)
            cc = np.where(cc >= w, 2 * (w - 1) - cc, cc)
        lead = shape[:-2]
        base = np.arange(int(np.prod(lead))).reshape(lead + (1, 1)) * (h * w)
        index = (base + rr[:, None] * w + cc[None, :]).reshape(-1)
        _pad_map_cache[key] = (index, lead + (h + 2 * ph, w + 2 * pw))
    return _pad_map_cache[key]


def pad2d(x, ph: int, pw: int, mode: str = "zero") -> Tensor:
    """Pad the last two axes by (ph, pw) on each side."""
    tx = _ensure_tensor(x)
    if tx.data.ndim < 2:
        raise ShapeMismatch("pad2d needs at least 2 dimensions")
    if mode not in _PAD_MODES:
        raise ValueError(f"padding mode must be one of {_PAD_MODES}")
    if mode == "zero":
        # fast path: plain pad forward, slice backward
        pads = [(0, 0)] * (tx.data.ndim - 2) + [(ph, ph), (pw, pw)]
        out_data = np.pad(tx.data, pads)

        def bwd(g: np.ndarray) -> None:
            if tx.requires_grad:
                h, w = tx.shape[-2], tx.shape[-1]
                tx._accumulate(g[..., ph : ph + h, pw : pw + w])

        return Tensor._wrap(out_data, (tx,), bwd, "pad2d")
    index, out_shape = _pad_map(tx.shape, ph, pw, mode)
    return gather_flat(tx, index, out_shape)


def crop2d(x, ph: int, pw: int) -> Tensor:
    """Remove a border of (ph, pw) from the last two axes."""
    tx = _ensure_tensor(x)
    h, w = tx.shape[-2], tx.shape[-1]
    if 2 * ph >= h or 2 * pw >= w:
        raise ShapeMismatch("crop larger than grid")
    lead = tx.shape[:-2]
    grid = np.arange(tx.size).reshape(tx.shape)
    sl = (Ellipsis, slice(ph, h - ph), slice(pw, w - pw))
    index = grid[sl].reshape(-1)
    out_shape = lead + (h - 2 * ph, w - 2 * pw)
    return gather_flat(tx, index, out_shape)


def conv2d(x, kernel, padding: str = "zero") -> Tensor:
    """Same-size 2-D cross-correlation of an HxW or CxHxW input with one kxk kernel.

    Linear in both input and kernel; padding mode controls boundary handling.
    The input is padded by k//2 in that mode, correlated per channel by
    ``conv2d_mc`` (whose own zero border then falls outside), and cropped back.
    """
    tx, tk = _ensure_tensor(x), _ensure_tensor(kernel)
    if tk.data.ndim != 2 or tk.shape[0] != tk.shape[1]:
        raise ShapeMismatch(f"conv2d kernel must be square 2-D, got {tk.shape}")
    k = tk.shape[0]
    if k % 2 == 0:
        raise ShapeMismatch(f"conv2d kernel size must be odd, got {k}")
    if tx.data.ndim not in (2, 3):
        raise ShapeMismatch(f"conv2d input must be HxW or CxHxW, got {tx.shape}")
    p = k // 2
    xp = pad2d(tx, p, p, padding) if p > 0 else tx
    hp, wp = xp.shape[-2:]
    out = conv2d_mc(reshape(xp, (-1, 1, hp, wp)), reshape(tk, (1, 1, k, k)))
    out = reshape(out, xp.shape)
    return crop2d(out, p, p) if p > 0 else out


_PATCH_CHUNK_BYTES = 1 << 20  # patch chunks this size stay in cache for their product


def _patch_chunks(a4: np.ndarray, kh: int, kw: int):
    """Yield (batch slice, (b, C*kh*kw, H*Wp) patch matrix) for a zero-padded (B, C, H, W) input.

    Rows are laid out with pitch Wp = W + kw - 1, so each kernel offset's patch is
    one contiguous run (fast to copy); columns i*Wp + j with j >= W are junk."""
    b, c, h, w = a4.shape
    hp, wp = h + kh - 1, w + kw - 1
    flat = np.zeros((b, c, hp * wp + kw - 1))
    grid = flat[:, :, : hp * wp].reshape(b, c, hp, wp)
    grid[:, :, kh // 2 : kh // 2 + h, kw // 2 : kw // 2 + w] = a4
    sb, sc, se = flat.strides
    runs = as_strided(flat, (b, c, kh, kw, h * wp), (sb, sc, wp * se, se, se), writeable=False)
    step = max(1, _PATCH_CHUNK_BYTES // (8 * c * kh * kw * h * wp))
    for i in range(0, b, step):
        sl = slice(i, i + step)
        yield sl, np.ascontiguousarray(runs[sl]).reshape(-1, c * kh * kw, h * wp)


def _same_corr(a4: np.ndarray, kmat: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Zero-padded same-size correlation of (B, C, H, W) with (O, C*kh*kw) -> (B, O, H, W)."""
    b, _, h, w = a4.shape
    wp = w + kw - 1
    out = np.empty((b, kmat.shape[0], h * wp))
    for sl, cols in _patch_chunks(a4, kh, kw):
        np.matmul(kmat, cols, out=out[sl])
    return out.reshape(b, -1, h, wp)[..., :w]


def conv2d_mc(x, kernels) -> Tensor:
    """Multi-channel zero-padded convolution: input (...,C,H,W), kernels (O,C,kh,kw).

    Fused equivalent of summing per-channel ``conv2d`` calls: one im2col matrix
    product per image. The input gradient is the same-size correlation of the
    output gradient with the flipped, channel-transposed kernels."""
    tx, tk = _ensure_tensor(x), _ensure_tensor(kernels)
    if tk.data.ndim != 4:
        raise ShapeMismatch(f"conv2d_mc kernels must be (O,C,kh,kw), got {tk.shape}")
    n_out, c_in, kh, kw = tk.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeMismatch("conv2d_mc kernel dims must be odd")
    if tx.data.ndim not in (3, 4):
        raise ShapeMismatch(f"conv2d_mc input must be (C,H,W) or (B,C,H,W), got {tx.shape}")
    if tx.shape[-3] != c_in:
        raise ShapeMismatch(f"channel mismatch: input {tx.shape} vs kernels {tk.shape}")
    x4 = tx.data if tx.data.ndim == 4 else tx.data[None]
    b, _, h, w = x4.shape
    out = _same_corr(x4, tk.data.reshape(n_out, -1), kh, kw)

    def bwd(g: np.ndarray) -> None:
        g4 = g.reshape(out.shape)
        if tk.requires_grad:
            # patches @ g^T, g zero in the junk columns; OpenBLAS threads
            # g @ patches^T and stalls when the cores are shared
            g_t = np.zeros((b, h, w + kw - 1, n_out))
            g_t[:, :, :w] = g4.transpose(0, 2, 3, 1)
            g_t = g_t.reshape(b, -1, n_out)
            per_image = np.empty((b, c_in * kh * kw, n_out))
            for sl, cols in _patch_chunks(x4, kh, kw):
                np.matmul(cols, g_t[sl], out=per_image[sl])
            tk._accumulate(per_image.sum(axis=0).T.reshape(tk.shape))
        if tx.requires_grad:
            flipped = tk.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c_in, -1)
            tx._accumulate(_same_corr(g4, flipped, kh, kw).reshape(tx.shape))

    return Tensor._wrap(out.reshape(tx.shape[:-3] + out.shape[1:]), (tx, tk), bwd, "conv2d_mc")


def _block_sum(a: np.ndarray, f: int) -> np.ndarray:
    """Sum over the f x f blocks of the last two axes, block row by block row: the
    order of ``sum(axis=(-3, -1))`` on the blocked reshape, without its slow loops."""
    out = None
    for i in range(f):
        row = sum((a[..., i::f, j::f] for j in range(1, f)), a[..., i::f, 0::f])
        out = row if out is None else out + row
    return out


def downsample_mean(x, factor: int) -> Tensor:
    """Area-average downsampling of the last two axes by an integer factor."""
    tx = _ensure_tensor(x)
    h, w = tx.shape[-2], tx.shape[-1]
    if h % factor or w % factor:
        raise ShapeMismatch(f"factor {factor} does not divide grid {h}x{w}")
    n = float(factor * factor)

    def bwd(g: np.ndarray) -> None:
        if tx.requires_grad:
            tx._accumulate((g / n).repeat(factor, -2).repeat(factor, -1))

    return Tensor._wrap(_block_sum(tx.data, factor) / n, (tx,), bwd, "downsample_mean")


def upsample_repeat(x, factor: int) -> Tensor:
    """Nearest-neighbour upsampling of the last two axes; adjoint of block-sum."""
    tx = _ensure_tensor(x)

    def bwd(g: np.ndarray) -> None:
        if tx.requires_grad:
            tx._accumulate(_block_sum(g, factor))

    out_data = tx.data.repeat(factor, -2).repeat(factor, -1)
    return Tensor._wrap(out_data, (tx,), bwd, "upsample_repeat")


# -- composed conveniences -----------------------------------------------------


def norm_sq(x) -> Tensor:
    return tsum(square(x))


def l2_norm(x) -> Tensor:
    return sqrt(norm_sq(x))


def check_gradient(f, x, eps: float = 1e-2) -> float:
    """Max relative error between reverse-mode and finite-difference gradients.

    ``f`` maps a Tensor to a scalar Tensor and must be evaluable repeatedly at
    perturbed inputs. The oracle is one level of Richardson extrapolation of
    central differences D(h) = (f(x + h) - f(x - h)) / 2h, namely
    (4 D(eps/2) - D(eps)) / 3, whose truncation error is O(eps^4); the large
    default step keeps cancellation error small next to tiny gradients.
    Relative error per coordinate is |autodiff - fd| / (|fd| + 1e-12).
    """
    if not (0.0 < eps <= 1e-2):
        raise ValueError(f"eps must lie in (0, 1e-2], got {eps}")
    x0 = _as_array(x).copy()
    leaf = Tensor(x0, requires_grad=True)
    out = f(leaf)
    if out.size != 1:
        raise ShapeMismatch("check_gradient needs a scalar-valued function")
    backward(out)
    auto = np.zeros(x0.size) if leaf.grad is None else leaf.grad.reshape(-1).copy()

    flat = x0.reshape(-1)

    def central(i: int, h: float) -> float:
        bump = np.zeros_like(flat)
        bump[i] = h
        hi = f(Tensor((flat + bump).reshape(x0.shape))).item()
        lo = f(Tensor((flat - bump).reshape(x0.shape))).item()
        return (hi - lo) / (2.0 * h)

    fd = np.array([(4.0 * central(i, eps / 2) - central(i, eps)) / 3.0 for i in range(flat.size)])
    rel = np.abs(auto - fd) / (np.abs(fd) + 1e-12)
    return float(rel.max()) if rel.size else 0.0
