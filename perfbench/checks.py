"""Correctness checks of the benchmark's workloads.

Each check is a pure function of arrays or numbers and returns a ``Check``.
None of them compares against recorded output: every reference is computed
here from first principles (closed-form Gaussian conditioning, step-count
arithmetic, unguided or prior draws from the same model), so a check keeps
its meaning when the program under test changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def bit_identical(name: str, a: np.ndarray, b: np.ndarray) -> Check:
    """Two sampler outputs that must agree exactly (the lambda=0 reduction)."""
    a, b = np.asarray(a), np.asarray(b)
    ok = a.shape == b.shape and bool(np.array_equal(a, b))
    diff = float(np.max(np.abs(a - b))) if a.shape == b.shape else math.inf
    return Check(name, ok, f"max |a-b| = {diff:.3g}")


def expected_equi_grads(steps: int, period: int, early_stop_frac: float) -> int:
    """Regularizer evaluations of one chain: ceil((N - floor(f N)) / period)."""
    active = steps - math.floor(early_stop_frac * steps)
    return -(-active // period)


def counts_match(name: str, counts: dict, expected: dict) -> Check:
    """Sampler or run counters equal to the benchmark's own arithmetic."""
    bad = {k: (counts.get(k), v) for k, v in expected.items() if counts.get(k) != v}
    detail = "all equal" if not bad else "got/expected " + ", ".join(
        f"{k}={g}/{e}" for k, (g, e) in sorted(bad.items()))
    return Check(name, not bad, detail)


def masked_rms(samples: np.ndarray, truth: np.ndarray, mask: np.ndarray) -> float:
    """RMS of (sample - truth) over observed entries, pooled over the batch."""
    m = np.broadcast_to(mask, samples.shape)
    d = (samples - np.broadcast_to(truth, samples.shape))[m > 0]
    return float(np.sqrt(np.mean(d * d)))


def guided_fits_observations(name: str, guided: np.ndarray, unguided: np.ndarray,
                             truth: np.ndarray, mask: np.ndarray, factor: float = 0.2) -> Check:
    """Guidance pulls the observed pixels to the data: guided RMS <= factor x unguided RMS."""
    g = masked_rms(guided, truth, mask)
    u = masked_rms(unguided, truth, mask)
    return Check(name, g <= factor * u,
                 f"guided rms {g:.4f} <= {factor} x unguided rms {u:.4f}")


def regularizer_lowers_equi_error(err_reg: float, err_base: float) -> Check:
    """The probe's equivariance error on lambda>0 samples is below the lambda=0 one."""
    return Check("grid.equi_error", err_reg < err_base,
                 f"mean probe error lambda>0 {err_reg:.4f} < lambda=0 {err_base:.4f}")


def below(name: str, value: float, bound: float, what: str) -> Check:
    return Check(name, bool(value < bound), f"{what} {value:.4g} < {bound:.4g}")


def condition_components(weights: np.ndarray, means: np.ndarray, covs: np.ndarray,
                         observed: list[int], y_obs: np.ndarray, sigma: float):
    """Posterior of a Gaussian mixture given noisy observed coordinates.

    Written in covariance (Schur-complement) form over the observed rows only,
    independently of the program's information-form oracle.
    """
    o = np.asarray(observed)
    K, d = means.shape
    post_w = np.empty(K)
    post_m = np.empty((K, d))
    post_c = np.empty((K, d, d))
    for k in range(K):
        S = covs[k]
        S_xo = S[:, o]
        S_oo = S[np.ix_(o, o)] + sigma * sigma * np.eye(len(o))
        gain = np.linalg.solve(S_oo, S_xo.T).T
        r = y_obs - means[k, o]
        post_m[k] = means[k] + gain @ r
        post_c[k] = S - gain @ S_xo.T
        _, logdet = np.linalg.slogdet(S_oo)
        post_w[k] = math.log(weights[k]) - 0.5 * (r @ np.linalg.solve(S_oo, r) + logdet)
    post_w = np.exp(post_w - post_w.max())
    return post_w / post_w.sum(), post_m, post_c


def oracle_agrees(oracle_post, ref_w, ref_m, ref_c, tol: float = 1e-8) -> Check:
    """The program's exact posterior matches the benchmark's own conditioning."""
    errs = (np.max(np.abs(oracle_post.weights - ref_w)),
            np.max(np.abs(oracle_post.means - ref_m)),
            np.max(np.abs(oracle_post.covariances - ref_c)))
    return Check("ring.oracle_agrees", bool(max(errs) < tol),
                 "max |diff| weights/means/covs " + "/".join(f"{e:.2e}" for e in errs)
                 + f" < {tol:g}")


def closer_than_prior(name: str, sw_samples: list[float], sw_prior: list[float]) -> Check:
    """Mean SW2 from samples to exact-posterior draws beats prior draws."""
    a, b = float(np.mean(sw_samples)), float(np.mean(sw_prior))
    return Check(name, a < b, f"mean SW2 samples {a:.4f} < prior {b:.4f}")


def same_hashes(name: str, hashes: list[str]) -> Check:
    """Repeated identical operations give identical outputs."""
    ok = len(hashes) >= 2 and len(set(hashes)) == 1
    return Check(name, ok, f"{len(hashes)} repeats, {len(set(hashes))} distinct hash(es)")
