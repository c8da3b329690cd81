"""Finite cyclic group actions on vectors and grids as exact entry permutations.

``make_group`` decides each side's kind once, where it is built: a transform
is the group's order and a generator that permutes an index grid. Element g
is the generator applied g times, built once per (element, shape) as a
flat-index permutation and cached. Applying an action is therefore
norm-preserving, exactly invertible, and differentiates as the permutation
transpose; composition and inversion are modular arithmetic on element indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .autodiff import Tensor, permute_flat
from .containers import _plain

__all__ = ["GroupAction", "make_group"]


class _Transform:
    """One side of a cyclic group action: its order and its generator on index grids."""

    def __init__(self, order: int, generator: Callable[[np.ndarray], np.ndarray]):
        self.order = order
        self.generator = generator
        self._cache: dict[tuple, np.ndarray] = {}

    def perm(self, g: int, shape: tuple[int, ...]) -> np.ndarray:
        key = (g % self.order, shape)
        hit = self._cache.get(key)
        if hit is None:
            grid = np.arange(int(np.prod(shape))).reshape(shape)
            for _ in range(key[0]):
                grid = self.generator(grid)
            hit = grid.reshape(-1)
            hit.setflags(write=False)
            self._cache[key] = hit
        return hit

    def apply(self, g: int, x):
        if isinstance(x, Tensor):
            p = self.perm(g, x.shape)
            return permute_flat(x, p)
        arr = np.asarray(x, dtype=np.float64)
        p = self.perm(g, arr.shape)
        return arr.reshape(-1)[p].reshape(arr.shape)


def _flip_h(grid: np.ndarray) -> np.ndarray:
    if grid.ndim < 1:
        raise ValueError("flip-h needs at least 1 dimension")
    return np.flip(grid, axis=-1)


def _flip_v(grid: np.ndarray) -> np.ndarray:
    if grid.ndim < 2:
        raise ValueError("flip-v needs a grid with at least 2 dimensions")
    return np.flip(grid, axis=-2)


def _rot90(grid: np.ndarray) -> np.ndarray:
    if grid.ndim < 2 or grid.shape[-1] != grid.shape[-2]:
        raise ValueError(f"rot90 needs a square grid, got {grid.shape}")
    return np.rot90(grid, axes=(-2, -1))


# the kinds without parameters: (order, generator)
_UNPARAMETRIZED = {"identity": (1, lambda grid: grid), "flip-h": (2, _flip_h),
                   "flip-v": (2, _flip_v), "rot90": (4, _rot90)}


def _reindex_last_axis(kind: str, idx: np.ndarray) -> _Transform:
    """The transform generated by output[..., i] = input[..., idx[i]]."""
    n = len(idx)
    if n == 0 or sorted(idx.tolist()) != list(range(n)):
        raise ValueError(f"{kind}: not a permutation of 0..n-1: {idx.tolist()}")
    # the order of a permutation is the lcm of its cycle lengths
    order, seen = 1, set()
    for start in range(n):
        j, length = start, 0
        while j not in seen:
            seen.add(j)
            j, length = int(idx[j]), length + 1
        order = math.lcm(order, length or 1)

    def generator(grid: np.ndarray) -> np.ndarray:
        if grid.shape[-1:] != (n,):
            raise ValueError(f"{kind} of length {n} on shape {grid.shape}")
        return np.take(grid, idx, axis=-1)

    return _Transform(order, generator)


def _transform_from_spec(spec: dict) -> _Transform:
    kind = spec["group"]
    if kind in _UNPARAMETRIZED:
        return _Transform(*_UNPARAMETRIZED[kind])
    if kind == "cyclic-translate":
        n = int(spec["length"])
        return _reindex_last_axis(kind, (np.arange(n) - int(spec.get("shift", 1))) % n)
    if kind == "permutation":
        return _reindex_last_axis(kind, np.asarray(spec["perm"], dtype=np.int64))
    raise ValueError(f"unknown group '{kind}'")


@dataclass
class GroupAction:
    """Paired domain/codomain transforms over one finite cyclic group.

    ``apply_domain`` realizes the domain-side transform of element g,
    ``apply_codomain`` the codomain side; both accept numpy arrays or tensors
    and act on them exactly (entry permutation, no interpolation).
    """

    domain: _Transform
    codomain: _Transform
    domain_spec: dict = field(default_factory=dict)
    order: int = field(init=False)

    def __post_init__(self):
        self.order = max(self.domain.order, self.codomain.order)
        # an identity-realized side is allowed; otherwise the orders must agree
        if min(self.domain.order, self.codomain.order) not in (1, self.order):
            raise ValueError(
                f"domain order {self.domain.order} != codomain order {self.codomain.order}"
            )

    @property
    def elements(self) -> list[int]:
        return list(range(self.order))

    @property
    def identity(self) -> int:
        return 0

    def compose(self, g: int, h: int) -> int:
        return (g + h) % self.order

    def inverse(self, g: int) -> int:
        return (-g) % self.order

    def apply_domain(self, g: int, z):
        return self.domain.apply(g % self.order, z)

    def apply_codomain(self, g: int, x):
        return self.codomain.apply(g % self.order, x)

    def random_element(self, rng: np.random.Generator) -> int:
        """Uniform draw over the non-identity elements."""
        if self.order < 2:
            raise ValueError("no non-identity elements to sample")
        return 1 + int(rng.integers(0, self.order - 1))


def make_group(spec: dict, codomain_spec: dict | None = None) -> GroupAction:
    """Build a GroupAction from config, e.g. {"group": "rot90"} or
    {"group": "cyclic-translate", "shift": 1, "length": 8}.

    ``codomain_spec`` overrides the codomain-side realization (defaults to the
    same transform); pass {"group": "identity"} for invariance-style pairings
    or a scaled translation for maps that change dimension.
    """
    dom = _transform_from_spec(spec)
    cod = dom if codomain_spec is None else _transform_from_spec(codomain_spec)
    return GroupAction(dom, cod, _plain(spec))
