"""Gaussian mixtures: exact densities, scores, sampling and conjugate posteriors.

The mixture prior plays the role of a data distribution whose noised marginals,
scores and linear-Gaussian posteriors are all available in closed form, so
sampler output can be judged against exact references.

Guided samplers differentiate through the noised-marginal score at every step,
so the traced score is one tape op over all components whose vector-Jacobian
product applies the closed-form Hessian of the mixture log density.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor

__all__ = [
    "GMMPrior",
    "PosteriorOracle",
    "sample_gmm",
    "gmm_logpdf",
    "marginal_prior",
    "gmm_marginal_score",
    "gmm_marginal_score_traced",
    "posterior_mean_x0",
    "gmm_posterior_exact",
]


@dataclass(frozen=True)
class GMMPrior:
    """Mixture weights on the simplex, component means and SPD covariances."""

    weights: np.ndarray
    means: np.ndarray  # (K, d)
    covariances: np.ndarray  # (K, d, d)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        mu = np.atleast_2d(np.asarray(self.means, dtype=np.float64))
        cov = np.asarray(self.covariances, dtype=np.float64)
        if cov.ndim == 2:
            cov = cov[None]
        if w.ndim != 1 or len(w) != len(mu) or len(w) != len(cov):
            raise ValueError("weights, means, covariances must agree in component count")
        if abs(w.sum() - 1.0) > 1e-12 or np.any(w < 0.0):
            raise ValueError("weights must form a simplex vector (sum 1 within 1e-12)")
        if cov.shape[1:] != (mu.shape[1], mu.shape[1]):
            raise ValueError(f"covariance shape {cov.shape} inconsistent with means {mu.shape}")
        for k, C in enumerate(cov):
            if not np.allclose(C, C.T, atol=1e-12):
                raise ValueError(f"covariance {k} not symmetric")
            np.linalg.cholesky(C)  # raises LinAlgError if not positive definite
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "covariances", cov)

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @property
    def n_components(self) -> int:
        return len(self.weights)


def sample_gmm(prior: GMMPrior, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n exact samples: categorical component, then Cholesky transform."""
    if n < 1:
        raise ValueError("n must be >= 1")
    comps = rng.choice(prior.n_components, size=n, p=prior.weights)
    chols = np.linalg.cholesky(prior.covariances)
    eps = rng.standard_normal((n, prior.dim))
    out = prior.means[comps] + np.einsum("nij,nj->ni", chols[comps], eps)
    return out


def gmm_logpdf(prior: GMMPrior, x: np.ndarray) -> np.ndarray:
    """Exact log density via log-sum-exp; accepts (d,) or (n, d)."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    d = prior.dim
    logs = np.empty((x.shape[0], prior.n_components))
    for k in range(prior.n_components):
        diff = x - prior.means[k]
        chol = np.linalg.cholesky(prior.covariances[k])
        z = np.linalg.solve(chol, diff.T)
        q = np.sum(z * z, axis=0)
        logdet = 2.0 * np.sum(np.log(np.diag(chol)))
        logs[:, k] = np.log(prior.weights[k]) - 0.5 * (q + logdet + d * np.log(2.0 * np.pi))
    m = logs.max(axis=1, keepdims=True)
    out = m[:, 0] + np.log(np.exp(logs - m).sum(axis=1))
    return out if out.size > 1 else out.reshape(())


def marginal_prior(prior: GMMPrior, t: int, sched) -> GMMPrior:
    """Mixture of the forward-noised data at step t.

    Each component N(mu, Sigma) becomes N(sqrt(abar) mu, abar Sigma + (1-abar) I).
    """
    abar = sched.abar(t)
    d = prior.dim
    means = np.sqrt(abar) * prior.means
    covs = abar * prior.covariances + (1.0 - abar) * np.eye(d)
    return GMMPrior(prior.weights, means, covs)


class _MarginalCache:
    """Precomputed per-component inverse covariances of a noised mixture."""

    __slots__ = ("means", "cinvs", "logits0")

    def __init__(self, gm: GMMPrior):
        self.means = gm.means
        self.cinvs = np.linalg.inv(gm.covariances)
        self.cinvs = 0.5 * (self.cinvs + np.swapaxes(self.cinvs, 1, 2))
        logdets = np.array([np.linalg.slogdet(C)[1] for C in gm.covariances])
        self.logits0 = np.log(gm.weights) - 0.5 * logdets


def _score_cache(prior: GMMPrior, t: int, sched) -> _MarginalCache:
    return _MarginalCache(marginal_prior(prior, t, sched))


def gmm_marginal_score_traced(prior: GMMPrior, x: Tensor, t: int, sched, _cache=None) -> Tensor:
    """Exact score of the noised mixture as one tape op, ``"gmm_score"``.

    Accepts x of shape (d,) or (n, d). For all K components at once:
    u_k = C_k^-1 (x - mu_k), q_k = (x - mu_k) . u_k, responsibilities
    r = softmax_k(logits0_k - q_k / 2) with a max-shift (exact for softmax),
    and s = -ubar, ubar = sum_k r_k u_k. The Jacobian of s is symmetric, so the
    VJP of a cotangent g is -sum_k r_k C_k^-1 g + sum_k r_k (u_k . g)(u_k - ubar).
    """
    cache = _cache if _cache is not None else _score_cache(prior, t, sched)
    xb = x.data.reshape(-1, x.shape[-1])
    with np.errstate(all="ignore"):  # finiteness is checked on the result
        diff = xb[None] - cache.means[:, None]  # (K, n, d)
        u = diff @ cache.cinvs
        half_q = 0.5 * (diff * u).sum(axis=2)
        shift = (cache.logits0[:, None] - half_q).max(axis=0)
        e = np.exp((cache.logits0[:, None] - shift) - half_q)
        den = e.sum(axis=0)
        ubar = (e[..., None] * u).sum(axis=0) / den[:, None]

    def bwd(g: np.ndarray) -> None:
        g2 = g.reshape(ubar.shape)
        with np.errstate(all="ignore"):
            cg = g2 @ cache.cinvs  # rows C_k^-1 g, the cinvs being symmetric
            r = e / den
            rug = r * np.einsum("knd,nd->kn", u, g2)
            gx = np.einsum("kn,knd->nd", rug, u - ubar) - np.einsum("kn,knd->nd", r, cg)
        x._accumulate(gx.reshape(x.shape))

    return Tensor._wrap(-ubar.reshape(x.shape), (x,), bwd, "gmm_score")


def gmm_marginal_score(prior: GMMPrior, x: np.ndarray, t: int, sched) -> np.ndarray:
    """Exact score of the noised mixture, plain arrays in and out."""
    return gmm_marginal_score_traced(prior, Tensor(np.asarray(x, dtype=np.float64)), t, sched).data


def posterior_mean_x0(prior: GMMPrior, x_t: np.ndarray, t: int, sched) -> np.ndarray:
    """Brute-force E[x0 | x_t]: responsibility-weighted per-component conditional means."""
    x_t = np.asarray(x_t, dtype=np.float64)
    abar = sched.abar(t)
    root = np.sqrt(abar)
    gm = marginal_prior(prior, t, sched)
    logs = np.empty(prior.n_components)
    cond_means = np.empty((prior.n_components, prior.dim))
    for k in range(prior.n_components):
        diff = x_t - gm.means[k]
        Cinv = np.linalg.inv(gm.covariances[k])
        q = diff @ Cinv @ diff
        logdet = np.linalg.slogdet(gm.covariances[k])[1]
        logs[k] = np.log(prior.weights[k]) - 0.5 * (q + logdet)
        cond_means[k] = prior.means[k] + root * prior.covariances[k] @ (Cinv @ diff)
    logs -= logs.max()
    resp = np.exp(logs)
    resp /= resp.sum()
    return resp @ cond_means


# -- conjugate posterior oracle --------------------------------------------------


@dataclass(frozen=True)
class PosteriorOracle:
    """Exact linear-Gaussian posterior of a GMM prior."""

    posterior: GMMPrior


def gmm_posterior_exact(prior: GMMPrior, A, sigma_y: float, y: np.ndarray) -> PosteriorOracle:
    """Closed-form posterior of the mixture under y = A x + noise.

    ``A`` is a dense matrix (m, d) or an object exposing ``matrix(shape)``.
    For each component: precision adds A^T A / sigma^2, the mean solves the
    usual normal equations, and weights are reweighted by the evidence
    N(y; A mu, A Sigma A^T + sigma^2 I), normalised in the log domain.
    """
    if hasattr(A, "matrix"):
        M = A.matrix((prior.dim,))
    else:
        M = np.asarray(A, dtype=np.float64)
    if M.ndim != 2 or M.shape[1] != prior.dim:
        raise ValueError(f"operator matrix shape {M.shape} incompatible with dim {prior.dim}")
    if sigma_y <= 0.0:
        raise ValueError("sigma_y must be positive for exact conditioning")
    yv = np.asarray(y, dtype=np.float64).reshape(-1)
    if yv.shape[0] != M.shape[0]:
        raise ValueError(f"y length {yv.shape[0]} != operator rows {M.shape[0]}")

    s2 = sigma_y * sigma_y
    MtM = M.T @ M
    Mty = M.T @ yv
    K = prior.n_components
    d = prior.dim
    m = M.shape[0]
    new_means = np.empty((K, d))
    new_covs = np.empty((K, d, d))
    log_w = np.empty(K)
    for k in range(K):
        Sk = prior.covariances[k]
        Sk_inv = np.linalg.inv(Sk)
        prec = Sk_inv + MtM / s2
        cov = np.linalg.inv(prec)
        cov = 0.5 * (cov + cov.T)
        mean = cov @ (Sk_inv @ prior.means[k] + Mty / s2)
        new_means[k] = mean
        new_covs[k] = cov
        # evidence
        Sy = M @ Sk @ M.T + s2 * np.eye(m)
        diff = yv - M @ prior.means[k]
        chol = np.linalg.cholesky(Sy)
        z = np.linalg.solve(chol, diff)
        logdet = 2.0 * np.sum(np.log(np.diag(chol)))
        log_w[k] = np.log(prior.weights[k]) - 0.5 * (z @ z + logdet + m * np.log(2.0 * np.pi))
    log_w -= log_w.max()
    w = np.exp(log_w)
    w /= w.sum()
    post = GMMPrior(w, new_means, new_covs)
    return PosteriorOracle(posterior=post)
