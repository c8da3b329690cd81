"""Finite group actions on vectors and grids as exact entry permutations.

Every supported transform permutes tensor entries, so applying an action is
norm-preserving, exactly invertible, and differentiates as the permutation
transpose. All supported groups are cyclic, which makes composition and
inversion plain modular arithmetic on element indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, permute_flat
from .containers import _plain

__all__ = ["GroupAction", "make_group"]


class _Transform:
    """Realization of abstract group elements as flat-index permutations."""

    def __init__(self, kind: str, order: int, params: dict):
        self.kind = kind
        self.order = order
        self.params = params
        self._cache: dict[tuple, np.ndarray] = {}

    def perm(self, g: int, shape: tuple[int, ...]) -> np.ndarray:
        key = (g % self.order, shape)
        hit = self._cache.get(key)
        if hit is None:
            hit = self._build(g % self.order, shape)
            hit.setflags(write=False)
            self._cache[key] = hit
        return hit

    def _build(self, g: int, shape: tuple[int, ...]) -> np.ndarray:
        grid = np.arange(int(np.prod(shape))).reshape(shape)
        k = self.kind
        if g == 0 or k == "identity":
            return grid.reshape(-1)
        if k == "flip-h":
            if len(shape) < 1:
                raise ValueError("flip-h needs at least 1 dimension")
            return np.flip(grid, axis=-1).reshape(-1)
        if k == "flip-v":
            if len(shape) < 2:
                raise ValueError("flip-v needs a grid with at least 2 dimensions")
            return np.flip(grid, axis=-2).reshape(-1)
        if k == "rot90":
            if len(shape) < 2 or shape[-1] != shape[-2]:
                raise ValueError(f"rot90 needs a square grid, got {shape}")
            return np.rot90(grid, k=g, axes=(-2, -1)).reshape(-1)
        if k == "cyclic-translate":
            n = self.params["length"]
            if shape[-1] != n:
                raise ValueError(f"cyclic-translate built for length {n}, got {shape}")
            shift = (self.params["shift"] * g) % n
            return np.roll(grid, shift, axis=-1).reshape(-1)
        if k == "permutation":
            base = self.params["perm"]
            if shape[-1] != len(base):
                raise ValueError(f"permutation of length {len(base)} on shape {shape}")
            idx = np.arange(len(base))
            for _ in range(g):
                idx = base[idx]
            return np.take(grid, idx, axis=-1).reshape(-1)
        raise ValueError(f"unknown transform kind '{k}'")

    def apply(self, g: int, x):
        if isinstance(x, Tensor):
            p = self.perm(g, x.shape)
            return permute_flat(x, p)
        arr = np.asarray(x, dtype=np.float64)
        p = self.perm(g, arr.shape)
        return arr.reshape(-1)[p].reshape(arr.shape)


def _perm_order(perm: np.ndarray) -> int:
    idx = np.arange(len(perm))
    cur = perm.copy()
    order = 1
    while not np.array_equal(cur, idx):
        cur = perm[cur]
        order += 1
        if order > len(perm) * len(perm):
            raise ValueError("permutation order runaway")
    return order


def _transform_from_spec(spec: dict) -> _Transform:
    kind = spec["group"]
    if kind == "identity":
        return _Transform("identity", 1, {})
    if kind in ("flip-h", "flip-v"):
        return _Transform(kind, 2, {})
    if kind == "rot90":
        return _Transform(kind, 4, {})
    if kind == "cyclic-translate":
        n = int(spec["length"])
        shift = int(spec.get("shift", 1)) % n
        if shift == 0:
            return _Transform("identity", 1, {})
        order = n // np.gcd(shift, n)
        return _Transform(kind, int(order), {"length": n, "shift": shift})
    if kind == "permutation":
        base = np.asarray(spec["perm"], dtype=np.int64)
        if sorted(base.tolist()) != list(range(len(base))):
            raise ValueError(f"not a permutation: {base}")
        return _Transform(kind, _perm_order(base), {"perm": base})
    raise ValueError(f"unknown group '{kind}'")


@dataclass
class GroupAction:
    """Paired domain/codomain transforms over one finite cyclic group.

    ``apply_domain`` realizes the domain-side transform of element g,
    ``apply_codomain`` the codomain side; both accept numpy arrays or tensors
    and act on them exactly (entry permutation, no interpolation).
    """

    group_id: str
    domain: _Transform
    codomain: _Transform
    domain_spec: dict = field(default_factory=dict)
    codomain_spec: dict = field(default_factory=dict)
    order: int = field(init=False)

    def __post_init__(self):
        self.order = max(self.domain.order, self.codomain.order)
        if self.domain.order not in (1, self.order) or self.codomain.order not in (1, self.order):
            # identity-realized sides are allowed; otherwise orders must agree
            if self.domain.order != self.codomain.order:
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
        pool = self.elements[1:]
        if not pool:
            raise ValueError("no non-identity elements to sample")
        return int(pool[rng.integers(0, len(pool))])

    def to_config(self) -> dict:
        return {"domain": dict(self.domain_spec), "codomain": dict(self.codomain_spec)}


def make_group(spec: dict, codomain_spec: dict | None = None) -> GroupAction:
    """Build a GroupAction from config, e.g. {"group": "rot90"} or
    {"group": "cyclic-translate", "shift": 1, "length": 8}.

    ``codomain_spec`` overrides the codomain-side realization (defaults to the
    same transform); pass {"group": "identity"} for invariance-style pairings
    or a scaled translation for maps that change dimension.
    """
    dom = _transform_from_spec(spec)
    cod = _transform_from_spec(codomain_spec) if codomain_spec is not None else _transform_from_spec(spec)
    gid = spec["group"] if codomain_spec is None else f"{spec['group']}|{codomain_spec['group']}"
    return GroupAction(group_id=gid, domain=dom, codomain=cod,
                       domain_spec=_plain(spec), codomain_spec=_plain(codomain_spec or spec))
