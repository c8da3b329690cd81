"""Discrete variance-preserving noise schedules.

Time indices are 1-based (t = 1..T); index 0 denotes the clean data, with
cumulative signal level 1 by convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["NoiseSchedule", "make_linear_schedule", "time_features"]


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-step noise rates and the derived cumulative quantities.

    beta, alpha and alpha_bar are arrays of length T with entry i
    corresponding to t = i + 1.
    """

    T: int
    beta: np.ndarray
    alpha: np.ndarray = field(repr=False, default=None)
    alpha_bar: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=np.float64)
        if beta.shape != (self.T,):
            raise ValueError(f"beta must have shape ({self.T},)")
        if np.any(beta <= 0.0) or np.any(beta >= 1.0):
            raise ValueError("beta entries must lie in (0, 1)")
        if np.any(np.diff(beta) < 0.0):
            raise ValueError("beta must be non-decreasing")
        alpha = 1.0 - beta
        abar = np.cumprod(alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "alpha_bar", abar)

    def abar(self, t: int) -> float:
        """Cumulative product of alpha up to step t, with abar(0) = 1."""
        if t == 0:
            return 1.0
        if not 1 <= t <= self.T:
            raise ValueError(f"t must be in 0..{self.T}, got {t}")
        return float(self.alpha_bar[t - 1])

    def to_config(self) -> dict:
        return {"T": self.T, "beta": self.beta.tolist()}

    @classmethod
    def from_config(cls, cfg: dict) -> "NoiseSchedule":
        return cls(T=int(cfg["T"]), beta=np.asarray(cfg["beta"], dtype=np.float64))


def make_linear_schedule(T: int, beta_min: float = 1e-4, beta_max: float = 0.02) -> NoiseSchedule:
    """Linearly spaced beta between beta_min and beta_max over T steps."""
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    if not (0.0 < beta_min <= beta_max < 1.0):
        raise ValueError(f"need 0 < beta_min <= beta_max < 1, got ({beta_min}, {beta_max})")
    beta = np.linspace(beta_min, beta_max, T)
    return NoiseSchedule(T=T, beta=beta)


def time_features(t: int, sched: NoiseSchedule) -> np.ndarray:
    """Fixed 8-dim embedding of the time step fed to trained denoisers."""
    u = t / sched.T
    abar = sched.abar(t)
    return np.array(
        [
            u,
            abar,
            np.sqrt(abar),
            np.sqrt(1.0 - abar) if t > 0 else 0.0,
            np.sin(np.pi * u),
            np.cos(np.pi * u),
            np.sin(2.0 * np.pi * u),
            np.cos(2.0 * np.pi * u),
        ],
        dtype=np.float64,
    )
