"""Synthetic datasets with known symmetry and manifold structure.

Generators are pure functions of (parameters, seed), so any dataset is
regenerable bit-exactly from its metadata.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .containers import ContainerError, _plain, load_tensors, save_tensors
from .gmm import GMMPrior, sample_gmm

__all__ = [
    "Dataset",
    "prior_from_spec",
    "gen_gmm_points",
    "gen_ring_manifold",
    "gen_sym_shapes_grid",
    "ring_distance",
    "mirror_symmetrize",
    "generate",
    "save_dataset",
    "load_dataset",
]


@dataclass
class Dataset:
    kind: str
    items: np.ndarray  # (n, ...) stacked samples
    metadata: dict

    def __len__(self) -> int:
        return len(self.items)


def mirror_symmetrize(prior: GMMPrior, swap: tuple[int, int]) -> GMMPrior:
    """Close the mixture under the coordinate-swap reflection.

    Components come back in swap-paired copies with halved weights, so the
    swap permutation becomes an exact symmetry of the prior.
    """
    i, j = swap
    d = prior.dim
    P = np.eye(d)
    P[[i, j]] = P[[j, i]]
    means = np.concatenate([prior.means, prior.means @ P.T])
    covs = np.concatenate([prior.covariances, P @ prior.covariances @ P.T])
    weights = np.concatenate([prior.weights, prior.weights]) / 2.0
    return GMMPrior(weights, means, covs)


def prior_from_spec(spec: dict) -> GMMPrior:
    """The mixture a spec declares, mirror-symmetrized when it names a swap.

    spec: {"weights": [...], "means": [...], "covariances": [...],
           "mirror_swap": [i, j] (optional)}
    """
    prior = GMMPrior(*(np.asarray(spec[k], dtype=np.float64)
                       for k in ("weights", "means", "covariances")))
    if spec.get("mirror_swap") is not None:
        prior = mirror_symmetrize(prior, tuple(spec["mirror_swap"]))
    return prior


def gen_gmm_points(spec: dict, n: int, rng: np.random.Generator) -> Dataset:
    """Exact samples of ``prior_from_spec(spec)``."""
    prior = prior_from_spec(spec)
    items = sample_gmm(prior, n, rng) if n > 0 else np.zeros((0, prior.dim))
    meta = {"kind": "gmm-points", "spec": _plain(spec), "n": n}
    return Dataset(kind="gmm-points", items=items, metadata=meta)


def gen_ring_manifold(d: int, radius: float, thickness: float, n: int,
                      rng: np.random.Generator) -> Dataset:
    """Points near a circle embedded in the first two coordinates of R^d."""
    if d < 2:
        raise ValueError("ring needs d >= 2")
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    base = np.zeros((n, d))
    base[:, 0] = radius * np.cos(theta)
    base[:, 1] = radius * np.sin(theta)
    items = base + thickness * rng.standard_normal((n, d)) if thickness > 0 else base
    meta = {"kind": "ring-manifold", "spec": {"d": d, "radius": radius,
                                              "thickness": thickness}, "n": n}
    return Dataset(kind="ring-manifold", items=items, metadata=meta)


def ring_distance(x: np.ndarray, radius: float) -> float:
    """Distance from a point in R^d to the radius-r circle in coords (0, 1)."""
    x = np.asarray(x, dtype=np.float64)
    in_plane = np.sqrt(x[0] ** 2 + x[1] ** 2)
    off_plane_sq = float(np.sum(x[2:] ** 2))
    return float(np.sqrt((in_plane - radius) ** 2 + off_plane_sq))


def _add_shape(img: np.ndarray, kind: int, cy, cx, size, intensity) -> None:
    g = img.shape[0]
    if kind == 0:  # horizontal bar
        lo, hi = max(0, cy - size // 2), min(g, cy + size // 2 + 1)
        img[lo:hi, :] = np.maximum(img[lo:hi, :], intensity)
    elif kind == 1:  # vertical bar
        lo, hi = max(0, cx - size // 2), min(g, cx + size // 2 + 1)
        img[:, lo:hi] = np.maximum(img[:, lo:hi], intensity)
    else:  # disk
        yy, xx = np.mgrid[0:g, 0:g]
        inside = (yy - cy) ** 2 + (xx - cx) ** 2 <= size**2
        img[inside] = np.maximum(img[inside], intensity)


def gen_sym_shapes_grid(size: int, n: int, rng: np.random.Generator) -> Dataset:
    """Procedural bar/disk images whose distribution is horizontal-flip invariant.

    Every placement distribution is symmetric under column reflection, so the
    flip group is an exact symmetry of the generator.
    """
    items = np.zeros((n, size, size))
    for i in range(n):
        img = items[i]
        for _ in range(int(rng.integers(1, 4))):
            kind = int(rng.integers(0, 3))
            cy = int(rng.integers(0, size))
            # column index drawn symmetrically: uniform is reflection-invariant
            cx = int(rng.integers(0, size))
            sz = int(rng.integers(1, max(2, size // 4)))
            intensity = float(rng.uniform(0.4, 1.0))
            _add_shape(img, kind, cy, cx, sz, intensity)
    np.clip(items, 0.0, 1.0, out=items)
    meta = {"kind": "sym-shapes-grid", "spec": {"size": size}, "n": n}
    return Dataset(kind="sym-shapes-grid", items=items, metadata=meta)


def generate(kind: str, spec: dict, n: int, seed: int) -> Dataset:
    """Dispatch by kind; the (kind, spec, seed) triple fully determines items."""
    rng = np.random.default_rng(seed)
    if kind == "gmm-points":
        ds = gen_gmm_points(spec, n, rng)
    elif kind == "ring-manifold":
        ds = gen_ring_manifold(int(spec["d"]), float(spec["radius"]),
                               float(spec["thickness"]), n, rng)
    elif kind == "sym-shapes-grid":
        ds = gen_sym_shapes_grid(int(spec["size"]), n, rng)
    else:
        raise ValueError(f"unknown dataset kind '{kind}'")
    ds.metadata["seed"] = seed
    return ds


def save_dataset(path, ds: Dataset) -> None:
    save_tensors(path, {"items": ds.items}, manifest={**ds.metadata, "kind": ds.kind})


def load_dataset(path) -> Dataset:
    tensors, manifest = load_tensors(path)
    if "items" not in tensors or "kind" not in manifest:
        raise ContainerError(f"{path} is not a dataset file")
    kind = manifest.pop("kind")
    manifest.pop("names")
    return Dataset(kind=kind, items=tensors["items"], metadata=manifest)
