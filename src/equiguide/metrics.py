"""Fidelity, distribution-distance and diversity metrics, plus the descent probe.

Sliced Wasserstein-2 stands in for heavyweight distribution metrics: average
over random unit projections of the 1-D optimal-transport distance between
sorted projections.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "psnr",
    "ssim",
    "sliced_wasserstein",
    "diversity",
    "kde_log_density_mean",
    "free_energy_estimate",
    "langevin_descent_probe",
]

PSNR_SENTINEL = 99.0


def psnr(x: np.ndarray, ref: np.ndarray, peak: float = 1.0) -> float:
    """Peak signal-to-noise ratio in dB; identical inputs report the sentinel."""
    x, ref = np.asarray(x, dtype=np.float64), np.asarray(ref, dtype=np.float64)
    if x.shape != ref.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {ref.shape}")
    if peak <= 0:
        raise ValueError("peak must be positive")
    mse = float(np.mean((x - ref) ** 2))
    if mse == 0.0:
        return PSNR_SENTINEL
    return float(10.0 * np.log10(peak * peak / mse))


def ssim(x: np.ndarray, ref: np.ndarray) -> float:
    """Global-statistics structural similarity (single window) of data in [0, 1]."""
    x, ref = np.asarray(x, dtype=np.float64), np.asarray(ref, dtype=np.float64)
    if x.shape != ref.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {ref.shape}")
    c1, c2 = 0.01**2, 0.03**2
    mx, my = x.mean(), ref.mean()
    vx, vy = x.var(), ref.var()
    cov = float(np.mean((x - mx) * (ref - my)))
    num = (2 * mx * my + c1) * (2 * cov + c2)
    den = (mx * mx + my * my + c1) * (vx + vy + c2)
    return float(num / den)


def _as_matrix(samples) -> np.ndarray:
    arr = np.asarray([np.asarray(s, dtype=np.float64).reshape(-1) for s in samples])
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise ValueError("need a nonempty sample set")
    return arr


def sliced_wasserstein(a, b, n_proj: int = 64, rng: np.random.Generator | None = None) -> float:
    """Mean over random unit projections of the 1-D W2 between the samples."""
    A, B = _as_matrix(a), _as_matrix(b)
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"dimension mismatch {A.shape[1]} vs {B.shape[1]}")
    if n_proj < 1:
        raise ValueError("n_proj must be >= 1")
    rng = rng or np.random.default_rng(0)
    d = A.shape[1]
    total = 0.0
    for _ in range(n_proj):
        u = rng.standard_normal(d)
        u /= np.linalg.norm(u) + 1e-300
        pa = np.sort(A @ u)
        pb = np.sort(B @ u)
        if len(pa) == len(pb):
            w2sq = float(np.mean((pa - pb) ** 2))
        else:
            q = (np.arange(max(len(pa), len(pb))) + 0.5) / max(len(pa), len(pb))
            qa = np.quantile(pa, q, method="linear")
            qb = np.quantile(pb, q, method="linear")
            w2sq = float(np.mean((qa - qb) ** 2))
        total += np.sqrt(w2sq)
    return total / n_proj


def diversity(samples) -> tuple[float, float]:
    """(mean pairwise L2, mean per-pixel std over samples); (0, 0) for one sample.

    The per-pixel standard deviation uses the n-1 denominator.
    """
    arr = _as_matrix(samples)
    k = arr.shape[0]
    if k < 2:
        return 0.0, 0.0
    dists = [
        float(np.linalg.norm(arr[i] - arr[j])) for i in range(k) for j in range(i + 1, k)
    ]
    intra = float(np.mean(dists))
    pix_std = float(np.mean(arr.std(axis=0, ddof=1)))
    return intra, pix_std


def kde_log_density_mean(particles: np.ndarray, bandwidth: float) -> float:
    """Plug-in mean log density under a Gaussian kernel estimate."""
    X = np.asarray(particles, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    n, d = X.shape
    if d > 2:
        raise ValueError("kernel density estimate supported in 1-D and 2-D only")
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    d2 = np.sum((X[:, None, :] - X[None, :, :]) ** 2, axis=2)
    log_kernel = -0.5 * d2 / bandwidth**2
    m = log_kernel.max(axis=1, keepdims=True)
    log_rho = (
        m[:, 0]
        + np.log(np.exp(log_kernel - m).sum(axis=1))
        - np.log(n)
        - d * np.log(bandwidth)
        - 0.5 * d * np.log(2 * np.pi)
    )
    return float(np.mean(log_rho))


def free_energy_estimate(particles: np.ndarray, potential, bandwidth: float) -> float:
    """Sample estimate of the flow functional: mean potential + half mean log density."""
    X = np.asarray(particles, dtype=np.float64)
    pts = X if X.ndim > 1 else X[:, None]
    v = np.mean([float(potential(p if len(p) > 1 else p[0])) for p in pts])
    return float(v + 0.5 * kde_log_density_mean(X, bandwidth))


def langevin_descent_probe(potential, grad_potential, n_particles: int = 2000,
                           n_steps: int = 500, dt: float = 1e-3, checkpoints: int = 10,
                           bandwidth: float = 0.15, seed: int = 0,
                           init_mean: float = 2.0, init_std: float = 0.3) -> list[float]:
    """Free-energy trace of 1-D overdamped Langevin particles in a fixed potential.

    dx = -V'(x) dt + dW matches the functional with entropy weight one half,
    so the returned estimates should be non-increasing up to estimator noise.
    """
    rng = np.random.default_rng(seed)
    x = init_mean + init_std * rng.standard_normal(n_particles)
    every = max(1, n_steps // checkpoints)
    trace = [free_energy_estimate(x, potential, bandwidth)]
    for step in range(1, n_steps + 1):
        x = x - dt * grad_potential(x) + np.sqrt(dt) * rng.standard_normal(n_particles)
        if step % every == 0 and len(trace) < checkpoints:
            trace.append(free_energy_estimate(x, potential, bandwidth))
    return trace
