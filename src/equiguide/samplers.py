"""Reverse-diffusion posterior samplers, unregularized and equivariance-regularized.

Every sampler is one chain skeleton, ``_chain``, driving a family's step body.
The skeleton splits the seed into independent chain-noise and regularizer
generators, draws the initial state, walks the (t, s) step pairs, checks each
new state is finite, and collects the step records, the recorded states and
the final ``Trajectory``. A step body maps one state to the next and reports
that step's losses. Bodies differentiate through ``_tape`` (a fresh leaf whose
non-finite tape values become ``SamplerError``) and ``_grad`` (backward plus a
finite-gradient check).

Every guided sampler differentiates its losses through the Tweedie map (full
chain rule through the score model) on a per-step tape; measurement losses are
squared residual norms. DDIM transitions are deterministic. Because chain noise
and regularizer element draws come from separate generators, an arm with the
regularizer disabled is bit-identical to its baseline and an arm with it
enabled sees the same chain noise. States carry a leading chain axis; the
chains of a call share one tape, one group element per step, one "l2" penalty
norm and, in SITCOM and ReSample, the ``delta`` stop on their summed loss.

``independent_chains`` says when that sharing couples nothing, so a batch of
k chains is k independent samples. DPS and PSLD losses are sums of per-chain
terms (``zeta_normalized`` scales each chain by its own residual), and the
shared element is one uniform draw, so they qualify unless the penalty is on
under "l2": one norm over the batch divides each chain's penalty gradient by
the joint norm, roughly 1/sqrt(k) of its own. A per-chain norm would mend that
but moves the acceptance runs that batch images under "l2" and are calibrated
on the joint norm (A6 fell 0.23 dB under its floor, A7 spread 0.64 dB against
0.5). SITCOM and ReSample do not qualify: their ``delta`` stop and ReSample's
divergence check act on the summed loss, and a per-chain stop needs per-chain
loss values, which the scalar ``equi_loss`` does not return.

``ALGORITHMS`` is the one table of algorithm names: each maps to its family,
whether the probe's penalty is on, and whether that penalty is the
constrained (inverse-map) loss.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .autodiff import (
    NonFiniteValue,
    Tensor,
    add,
    backward,
    matmul,
    mul,
    norm_sq,
    reshape,
    square,
    sub,
    tsum,
)
from .equi import EquiLossConfig, EquivariantFunction, equi_loss, equicon_loss
from .models import tweedie_x0, tweedie_x0_traced
from .nn import Adam
from .operators import MeasurementOperator

__all__ = [
    "ALGORITHMS",
    "Algorithm",
    "SamplerConfig",
    "StepRecord",
    "Trajectory",
    "SamplerError",
    "step_indices",
    "independent_chains",
    "ancestral_sample",
    "ddim_sample",
    "dps_sample",
    "equi_dps_sample",
    "equi_psld_sample",
    "equi_resample_sample",
    "equi_sitcom_sample",
    "stochastic_resample",
]


class Algorithm(NamedTuple):
    family: str  # "unconditional" (no measurement), "dps", "psld", "resample" or "sitcom"
    regularized: bool = False  # the probe's equivariance penalty is on
    constrained: bool = False  # the penalty is the cycle-consistency loss through the inverse


ALGORITHMS = {
    "ancestral": Algorithm("unconditional"),
    "ddim": Algorithm("unconditional"),
    "dps": Algorithm("dps"),
    "equi-dps": Algorithm("dps", True),
    "psld": Algorithm("psld"),
    "equi-psld": Algorithm("psld", True),
    "equicon-psld": Algorithm("psld", True, True),
    "resample": Algorithm("resample"),
    "equi-resample": Algorithm("resample", True),
    "equicon-resample": Algorithm("resample", True, True),
    "sitcom": Algorithm("sitcom"),
    "equi-sitcom": Algorithm("sitcom", True),
}


class SamplerError(RuntimeError):
    pass


_CLOSENESS = 1e-2  # SITCOM stage 1's weight on ||v - x_t||^2, the pull toward the step's start


@dataclass
class SamplerConfig:
    algorithm: str = "dps"
    steps: int = 1000
    zeta: float = 1.0
    zeta_normalized: bool = False
    eta_psld: float = 0.5
    gamma_psld: float = 0.05
    gamma_resample: float = 40.0
    delta: float = 1e-2
    k_meas: int = 10
    k_equi: int = 0
    inner_lr: float = 5e-2
    equi: EquiLossConfig = field(default_factory=EquiLossConfig)
    seed: int = 0
    resample_steps: object = "all"  # "all" | list of step positions
    record_states: bool = False

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {tuple(ALGORITHMS)}")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if min(self.zeta, self.eta_psld, self.gamma_psld, self.gamma_resample) < 0:
            raise ValueError("guidance weights must be >= 0")
        if self.k_meas < 0 or self.k_equi < 0:
            raise ValueError("inner step counts must be >= 0")
        if self.resample_steps != "all" and not (isinstance(self.resample_steps, list) and all(
                type(i) is int and 0 <= i < self.steps for i in self.resample_steps)):
            raise ValueError(f"resample_steps must be 'all' or a list of ints in [0, {self.steps})")


@dataclass
class StepRecord:
    t: int
    meas_loss: float
    equi_loss: float


@dataclass
class Trajectory:
    records: list[StepRecord]
    final: np.ndarray
    counts: dict
    states: list | None = None


def independent_chains(cfg: SamplerConfig) -> bool:
    """Whether the chains of one call under ``cfg`` are independent samples."""
    alg = ALGORITHMS[cfg.algorithm]
    if alg.family in ("sitcom", "resample"):
        return False
    return not (alg.regularized and cfg.equi.lam > 0 and cfg.equi.norm == "l2")


def step_indices(T: int, N: int) -> list[int]:
    """Evenly spaced subsequence of 1..T with N entries ending at T."""
    if not 1 <= N <= T:
        raise ValueError(f"steps must lie in 1..{T}, got {N}")
    return [(j * T) // N for j in range(1, N + 1)]


def _pairs(T: int, N: int) -> list[tuple[int, int]]:
    idx = step_indices(T, N)
    lower = [0] + idx[:-1]
    return list(zip(reversed(idx), reversed(lower)))


def _ancestral_step(sched, t: int, s: int, x, x0, noise: np.random.Generator) -> np.ndarray:
    """Ancestral proposal from time t to s given the clean estimate x0."""
    abar_t, abar_s = sched.abar(t), sched.abar(s)
    alpha_eff = abar_t / abar_s
    beta_eff = 1.0 - alpha_eff
    c1 = np.sqrt(alpha_eff) * (1.0 - abar_s) / (1.0 - abar_t)
    c2 = np.sqrt(abar_s) * beta_eff / (1.0 - abar_t)
    sig = np.sqrt(beta_eff * (1.0 - abar_s) / (1.0 - abar_t))
    return c1 * x + c2 * x0 + sig * noise.standard_normal(x.shape)


def _ddim_step(sched, t: int, s: int, x, x0) -> np.ndarray:
    """Deterministic DDIM transition from time t to s given the clean estimate x0."""
    abar_t, abar_s = sched.abar(t), sched.abar(s)
    eps_hat = (x - np.sqrt(abar_t) * x0) / np.sqrt(1.0 - abar_t)
    return np.sqrt(abar_s) * x0 + np.sqrt(1.0 - abar_s) * eps_hat


def _reg_plan(N: int, equi_cfg: EquiLossConfig, enabled: bool) -> list[bool]:
    """Which step positions (0-based from the chain start) evaluate the regularizer."""
    if not enabled or equi_cfg.lam <= 0.0:
        return [False] * N
    active = N - int(np.floor(equi_cfg.early_stop_frac * N))
    return [(i < active) and (i % equi_cfg.period == 0) for i in range(N)]


def expected_reg_count(N: int, equi_cfg: EquiLossConfig) -> int:
    active = N - int(np.floor(equi_cfg.early_stop_frac * N))
    return int(np.ceil(active / equi_cfg.period)) if equi_cfg.lam > 0 else 0


def _reg_loss(m: EquivariantFunction | None, cfg: SamplerConfig):
    """The penalty of cfg's latent algorithm; the constrained loss needs the probe's inverse."""
    if not ALGORITHMS[cfg.algorithm].constrained:
        return equi_loss
    if m is not None and not m.has_inverse:
        raise SamplerError("constrained variant needs a probe with an inverse map")
    return equicon_loss


# -- the gradient helper and the chain skeleton ----------------------------------------


@contextmanager
def _tape(x: np.ndarray, t: int):
    """A fresh gradient leaf holding x; non-finite values on its tape raise SamplerError."""
    try:
        yield Tensor(x, requires_grad=True)
    except NonFiniteValue as exc:
        raise SamplerError(f"non-finite value at step t={t}: {exc}") from exc


def _grad(loss: Tensor, leaf: Tensor, t: int) -> np.ndarray:
    """Backward from loss; the leaf's gradient (zero if unreached), checked finite."""
    backward(loss)
    g = leaf.grad
    if g is None:
        return np.zeros(leaf.shape)
    if not np.all(np.isfinite(g)):
        raise SamplerError(f"non-finite gradient at step t={t}")
    return g


def _counts(*extra: str) -> dict:
    return dict.fromkeys(("score_evals", "guidance_grads", "equi_grads") + extra, 0)


def _shape(model, n: int) -> tuple[int, ...]:
    return (n,) + (tuple(model.data_shape) if hasattr(model, "data_shape") else (model.prior.dim,))


def _chain(model, cfg: SamplerConfig, shape, step, counts: dict, final=None) -> Trajectory:
    """Run ``step`` over the chain's step pairs from a standard-normal start.

    ``step(i, t, s, x, noise, equi_rng)`` returns the state at time s, the x0
    estimate it used, and the step's measurement and equivariance losses;
    ``final(x, x0)`` maps the last state and estimate to the returned sample.
    """
    noise, equi_rng = np.random.default_rng(cfg.seed).spawn(2)
    x = noise.standard_normal(shape)
    records: list[StepRecord] = []
    states = [] if cfg.record_states else None
    for i, (t, s) in enumerate(_pairs(model.schedule.T, cfg.steps)):
        x, x0, meas, reg = step(i, t, s, x, noise, equi_rng)
        if not np.all(np.isfinite(x)):
            raise SamplerError(f"non-finite state at step t={t}")
        records.append(StepRecord(t=t, meas_loss=float(meas), equi_loss=float(reg)))
        if states is not None:
            states.append(x.copy())
    return Trajectory(records=records, final=x if final is None else final(x, x0),
                      counts=counts, states=states)


# -- unconditional samplers -------------------------------------------------------


def _unconditional(model, cfg: SamplerConfig, n: int, use_ddim: bool) -> Trajectory:
    sched = model.schedule
    counts = _counts()

    def step(i, t, s, x, noise, equi_rng):
        x0 = tweedie_x0(x, t, model)
        counts["score_evals"] += 1
        if use_ddim:
            return _ddim_step(sched, t, s, x, x0), x0, 0.0, 0.0
        return _ancestral_step(sched, t, s, x, x0, noise), x0, 0.0, 0.0

    return _chain(model, cfg, _shape(model, n), step, counts)


def ancestral_sample(model, cfg: SamplerConfig, n: int = 1) -> Trajectory:
    """Unconditional chain from pure noise using the ancestral transition."""
    return _unconditional(model, cfg, n, use_ddim=False)


def ddim_sample(model, cfg: SamplerConfig, n: int = 1) -> Trajectory:
    return _unconditional(model, cfg, n, use_ddim=True)


# -- pixel-space guided samplers ---------------------------------------------------


def equi_dps_sample(model, op: MeasurementOperator, y: np.ndarray,
                    m: EquivariantFunction | None, cfg: SamplerConfig,
                    n_chains: int = 1) -> Trajectory:
    """Ancestral chain with measurement guidance and the equivariance penalty.

    Per step: Tweedie estimate, ancestral proposal, then a single combined
    gradient step on zeta * ||y - A(x0|t)||^2 + lambda * R, both differentiated
    with respect to the current state. ``m=None`` is plain DPS.

    The ``n_chains`` chains share y (or y has a leading chain axis), one
    group element per step and, under the "l2" norm, one penalty norm; the
    measurement gradient is per chain.
    """
    sched = model.schedule
    y = np.asarray(y, dtype=np.float64)
    plan = _reg_plan(cfg.steps, cfg.equi, m is not None)
    counts = _counts()

    def step(i, t, s, x, noise, equi_rng):
        r_val = 0.0
        with _tape(x, t) as leaf:
            x0t = tweedie_x0_traced(leaf, t, model)
            counts["score_evals"] += 1
            resid = sub(y, op.apply(x0t))
            axes = tuple(range(1, resid.data.ndim))
            sq = np.square(resid.data).sum(axis=axes)  # per chain
            scale = cfg.zeta / (np.sqrt(sq) + 1e-12) if cfg.zeta_normalized else cfg.zeta
            total = tsum(mul(square(resid), np.reshape(scale, (-1,) + (1,) * len(axes))))
            counts["guidance_grads"] += 1
            if plan[i]:
                r = equi_loss(m, x0t, m.action.random_element(equi_rng), cfg.equi)
                total = add(total, mul(r, cfg.equi.lam))
                r_val = r.data.item()
                counts["equi_grads"] += 1
            grad = _grad(total, leaf, t)
        return _ancestral_step(sched, t, s, x, x0t.data, noise) - grad, x0t.data, np.sum(sq), r_val

    return _chain(model, cfg, _shape(model, n_chains), step, counts)


def dps_sample(model, op: MeasurementOperator, y: np.ndarray, cfg: SamplerConfig,
               n_chains: int = 1) -> Trajectory:
    return equi_dps_sample(model, op, y, None, cfg, n_chains=n_chains)


def equi_sitcom_sample(model, op: MeasurementOperator, y: np.ndarray,
                       m: EquivariantFunction | None, cfg: SamplerConfig,
                       n_chains: int = 1) -> Trajectory:
    """Two-stage per-step refinement: measurement consistency, then equivariance.

    Stage 1 runs adaptive-moment descent on ||A(tweedie(v)) - y||^2 plus a
    closeness pull toward the step's initial state (weight ``_CLOSENESS``),
    stopping when the residual falls under delta^2. Stage 2 refines the same
    variable on the probe's equivariance gap. The refined state is re-noised to the next time.
    ``m=None`` is plain SITCOM. Batched chains share the stopping decision, so
    use a small delta when comparing batched arms.
    """
    sched = model.schedule
    y = np.asarray(y, dtype=np.float64)
    counts = _counts("inner_meas_steps", "inner_equi_steps")

    def descend(v, t, iters, loss_fn, keys):
        """Adam on loss_fn(leaf) -> (stop value, loss) until the value is under delta^2."""
        opt, val = Adam(cfg.inner_lr), None
        for _ in range(iters):
            with _tape(v, t) as leaf:
                val, loss = loss_fn(leaf)
                if val < cfg.delta**2:
                    break
                grad = _grad(loss, leaf, t)
            for key in keys:
                counts[key] += 1
            params = {"v": v}
            opt.step(params, {"v": grad})
            v = params["v"]
        return v, val

    def step(i, t, s, x, noise, equi_rng):
        def meas(leaf):
            resid = norm_sq(sub(op.apply(tweedie_x0_traced(leaf, t, model)), y))
            counts["score_evals"] += 1
            return resid.item(), add(resid, mul(norm_sq(sub(leaf, x)), _CLOSENESS))

        v, meas_val = descend(x.copy(), t, cfg.k_meas, meas, ("guidance_grads", "inner_meas_steps"))
        r_val = 0.0
        if m is not None and cfg.k_equi > 0:
            g_el = m.action.random_element(equi_rng)

            def equi(leaf):
                r = equi_loss(m, leaf, g_el, cfg.equi)
                return r.data.item(), r

            v, r_val = descend(v, t, cfg.k_equi, equi, ("equi_grads", "inner_equi_steps"))

        # backward consistency, then forward re-noising to the next time index
        x0_hat = tweedie_x0(v, t, model)
        counts["score_evals"] += 1
        abar_s = sched.abar(s)
        eta = noise.standard_normal(x.shape)
        x = np.sqrt(abar_s) * x0_hat + np.sqrt(1.0 - abar_s) * eta if s > 0 else x0_hat
        return x, x0_hat, 0.0 if meas_val is None else meas_val, r_val

    return _chain(model, cfg, _shape(model, n_chains), step, counts)


# -- latent-space guided samplers ---------------------------------------------------


def equi_psld_sample(model, ae, op: MeasurementOperator, y: np.ndarray,
                     m: EquivariantFunction | None, cfg: SamplerConfig,
                     n_chains: int = 1) -> Trajectory:
    """Latent chain with measurement, gluing, and equivariance corrections.

    The probe's map should be the decoder (latent domain, pixel codomain); the
    constrained variant additionally needs the paired encoder. The gluing
    target pins measured coordinates through the decode/encode round trip;
    A^T A x0* is realized as A^T y (equal in expectation under the noise
    model). Linear operators only. ``m=None`` is plain PSLD.
    """
    if not op.is_linear:
        raise SamplerError("latent gluing requires a linear operator")
    reg_loss = _reg_loss(m, cfg)
    sched = model.schedule
    lat_shape = ae.latent_shape()
    y = np.asarray(y, dtype=np.float64)
    pix_shape = ae.decode(Tensor(np.zeros(lat_shape))).shape
    M = op.matrix(pix_shape)
    aty = (M.T @ y.reshape(-1)).reshape(pix_shape)
    plan = _reg_plan(cfg.steps, cfg.equi, m is not None)
    counts = _counts()

    def step(i, t, s, z, noise, equi_rng):
        r_val = 0.0
        with _tape(z, t) as leaf:
            z0t = tweedie_x0_traced(leaf, t, model)
            counts["score_evals"] += 1
            dz = ae.decode(z0t)
            meas = norm_sq(sub(y, op.apply(dz)))
            atadz = reshape(matmul(reshape(op.apply(dz), (n_chains, -1)), M), dz.shape)
            glue = norm_sq(sub(z0t, ae.encode(sub(add(aty, dz), atadz))))
            counts["guidance_grads"] += 1
            total = add(mul(meas, cfg.eta_psld), mul(glue, cfg.gamma_psld))
            if plan[i]:
                r = reg_loss(m, z0t, m.action.random_element(equi_rng), cfg.equi)
                r_val = r.data.item()
                total = add(total, mul(r, cfg.equi.lam))
                counts["equi_grads"] += 1
            grad = _grad(total, leaf, t)
        return _ancestral_step(sched, t, s, z, z0t.data, noise) - grad, z0t.data, meas.item(), r_val

    return _chain(model, cfg, (n_chains,) + lat_shape, step, counts,
                  final=lambda z, z0: ae.decode(Tensor(z0)).data)


def stochastic_resample(z0y: np.ndarray, z_prime: np.ndarray, gamma: float,
                        var_t: float, rng: np.random.Generator, abar_s: float) -> np.ndarray:
    """Posterior-weighted blend mapping the optimized estimate back to time t.

    z_t ~ N((var_t * sqrt(abar) * z0y + gamma * z') / (var_t + gamma),
            var_t * gamma / (var_t + gamma) I); the gamma -> infinity limit
    keeps the unconditional proposal's mean.
    """
    if var_t <= 0.0:  # t = 0: no noise left, the estimate is exact
        return np.sqrt(abar_s) * z0y
    mean = (var_t * np.sqrt(abar_s) * z0y + gamma * z_prime) / (var_t + gamma)
    std = np.sqrt(var_t * gamma / (var_t + gamma))
    return mean + std * rng.standard_normal(z0y.shape)


def equi_resample_sample(model, ae, op: MeasurementOperator, y: np.ndarray,
                         m: EquivariantFunction | None, cfg: SamplerConfig,
                         n_chains: int = 1) -> Trajectory:
    """DDIM chain with hard data consistency by inner descent on resample steps.

    The inner loop minimizes 0.5 ||y - A(D(z))||^2 plus the (optionally
    constrained) equivariance penalty by plain gradient descent, then maps the
    optimized estimate back to the current time by a stochastic blend.
    ``m=None`` is plain ReSample. Batched chains share the stop and divergence check.
    """
    reg_loss = _reg_loss(m, cfg)
    sched = model.schedule
    y = np.asarray(y, dtype=np.float64)
    members = set(range(cfg.steps)) if cfg.resample_steps == "all" else set(cfg.resample_steps)
    events = [i for i in range(cfg.steps) if i in members]
    event_reg = dict(zip(events, _reg_plan(len(events), cfg.equi, m is not None)))
    counts = _counts("inner_steps")

    def step(i, t, s, z, noise, equi_rng):
        x0 = tweedie_x0(z, t, model)
        counts["score_evals"] += 1
        z_prime = _ddim_step(sched, t, s, z, x0)
        meas_val = r_val = 0.0
        if i not in members:
            return z_prime, x0, meas_val, r_val
        g_el = m.action.random_element(equi_rng) if event_reg[i] else None
        v, initial = x0.copy(), None
        for _ in range(cfg.k_meas):
            with _tape(v, t) as leaf:
                resid = norm_sq(sub(y, op.apply(ae.decode(leaf))))
                meas_val = resid.item()
                if meas_val < cfg.delta**2:
                    break
                total = mul(resid, 0.5)
                if event_reg[i]:
                    r = reg_loss(m, leaf, g_el, cfg.equi)
                    r_val = r.data.item()
                    total = add(total, mul(r, cfg.equi.lam))
                    counts["equi_grads"] += 1
                tot_val = total.item()
                if initial is None:
                    initial = tot_val
                elif tot_val > 10.0 * max(initial, 1e-12):
                    raise SamplerError(f"inner loop diverged at step t={t}")
                grad = _grad(total, leaf, t)
            counts["guidance_grads"] += 1
            counts["inner_steps"] += 1
            v = v - cfg.inner_lr * grad
        z = stochastic_resample(v, z_prime, cfg.gamma_resample, 1.0 - sched.abar(s),
                                noise, sched.abar(s))
        return z, x0, meas_val, r_val

    return _chain(model, cfg, (n_chains,) + ae.latent_shape(), step, counts,
                  final=lambda z, z0: ae.decode(Tensor(z)).data)
