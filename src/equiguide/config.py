"""Experiment configuration: JSON schema validation and normalization.

The schema is one dict per section mapping each key to its default: DATASET,
SCHEDULE, SCORE_MODEL, PROBE, SAMPLER, EQUI, RUN and ORACLE here,
models.DENOISER_TRAINING (score_model.train) and equi.PROBE_TRAINING
(probe.train). ``settings`` reads every section through its dict, so a typo
or a value of the wrong type cannot silently change an experiment. A
validated config plus a seed list fully determines every output.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

import numpy as np

from .datasets import generate, prior_from_spec
from .equi import (PROBE_MAPS, PROBE_TRAINING, EquiLossConfig, _probe_from_autoencoder, equi_error,
                   probe_autoencoder)
from .groups import make_group
from .models import DENOISER_TRAINING, denoiser_net
from .operators import MeasurementOperator, make_operator
from .samplers import ALGORITHMS, SamplerConfig, step_indices
from .schedule import NoiseSchedule, make_linear_schedule

__all__ = ["ConfigError", "load_config", "validate_config", "check_models", "check_seeds",
           "settings", "build_schedule", "build_operator", "needs_probe", "DATASET", "SCHEDULE",
           "SCORE_MODEL", "PROBE", "SAMPLER", "EQUI", "RUN", "ORACLE"]


class ConfigError(ValueError):
    pass


# A None default means the key is absent; a test_seed left out is seed + 10000.
DATASET = {"kind": None, "spec": {}, "n": 256, "seed": 0, "test_n": 64, "test_seed": None}
SCHEDULE = {"T": 1000, "beta_min": 1e-4, "beta_max": 0.02}
SCORE_MODEL = {"kind": "analytic-gmm", "prior": None, "checkpoint": None, "train": None}
PROBE = {"checkpoint": None, "train": None, "action": {"group": "flip-h"}, "latent_action": None}
# the seed comes from the run's seed list; recorded states are not a run output
SAMPLER = {**{f.name: f.default for f in fields(SamplerConfig)
              if f.name not in ("seed", "record_states")}, "equi": {}}
EQUI = {f.name: f.default for f in fields(EquiLossConfig)}
RUN = {"n_images": 1, "samples_per_image": 1, "oracle": {}, "psnr_peak": 1.0}
ORACLE = {"enabled": False, "n_samples": 256, "n_proj": 64, "ring_radius": None}

_TOP_KEYS = {"dataset", "schedule", "score_model", "probe", "operator", "sampler",
             "run", "sweep", "seeds", "out_dir"}
_OPERATOR_KEYS = {"kind", "box", "shape", "keep_prob", "seed", "size", "sigma",
                  "orientation", "factor", "scale", "padding", "sigma_y"}
_SWEEP_AXES = ("lambda", "period", "steps", "mask_size", "k_split")
_GROUP_KEYS = {"group", "shift", "length", "perm"}

_ABSENT_TYPES = {"test_seed": int, "latent_dim": int, "ring_radius": float}
_COUNTS = {"n", "test_n", "T", "batch_size", "n_images", "samples_per_image", "n_samples", "n_proj"}
_POSITIVE = {"lr", "psnr_peak", "beta_min", "beta_max", "ring_radius"}
_CHOICES = {"score_model.kind": ("analytic-gmm", "trained-denoiser"),
            "score_model.train.space": ("pixel", "latent"), "probe.train.f": PROBE_MAPS}


def _check_keys(section: dict, allowed: set | tuple | dict, where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object, got {section!r}")
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def settings(section, defaults: dict, where: str) -> dict:
    """The config section merged over its defaults, after checking each key it gives.

    A bool default takes true/false, an int default an integer >= 0 (>= 1 in
    _COUNTS), a float default a number >= 0 (> 0 in _POSITIVE) and a key in
    _CHOICES one of its values; _ABSENT_TYPES types keys absent by default.
    Lists, objects and names may not be null; the code that builds them checks them.
    """
    _check_keys(section, defaults, where)
    for key, v in section.items():
        name, kind = f"{where}.{key}", _ABSENT_TYPES.get(key, type(defaults[key]))
        number = isinstance(v, (int, float)) and not isinstance(v, bool)
        if name in _CHOICES:
            ok, rule = v in _CHOICES[name], f"be one of {_CHOICES[name]}"
        elif kind is bool:
            ok, rule = isinstance(v, bool), "be true or false"
        elif kind is int:
            least = int(key in _COUNTS)
            ok, rule = number and isinstance(v, int) and v >= least, f"be an integer >= {least}"
        elif kind is float:
            sign = ">" if key in _POSITIVE else ">="
            ok, rule = number and (v > 0 if sign == ">" else v >= 0), f"be a number {sign} 0"
        else:
            ok, rule = v is not None, "not be null"
        if not ok:
            raise ConfigError(f"{name} must {rule}, got {v!r}")
    return {**defaults, **section}


@contextmanager
def _building(where: str):
    """Map what a constructor rejects to a ConfigError naming the config section."""
    try:
        yield
    except (LookupError, TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def check_seeds(seeds, where: str) -> list[int]:
    if not isinstance(seeds, list) or not seeds or not all(
            isinstance(s, int) and not isinstance(s, bool) and s >= 0 for s in seeds):
        raise ConfigError(f"{where} must be a nonempty list of non-negative integers, got {seeds!r}")
    return seeds


def build_schedule(cfg: dict) -> NoiseSchedule:
    sc = settings(cfg.get("schedule", {}), SCHEDULE, "schedule")
    with _building("schedule"):
        return make_linear_schedule(sc["T"], sc["beta_min"], sc["beta_max"])


def _sampler_config(cfg: dict, seed: int, overrides: dict | None = None) -> SamplerConfig:
    """The sampler section with a sweep cell's overrides applied."""
    sc = dict(cfg["sampler"])
    equi = dict(sc.pop("equi", {}))
    for k, v in (overrides or {}).items():
        if k == "lambda":
            equi["lam"] = v
        elif k == "period":
            equi["period"] = v
        elif k == "steps":
            sc["steps"] = v
        elif k == "k_split":
            sc["k_meas"], sc["k_equi"] = v
    return SamplerConfig(seed=seed, equi=EquiLossConfig(**equi), **sc)


def build_operator(cfg: dict, grid_shape, mask_size=None) -> MeasurementOperator:
    """The config's operator for items of grid_shape, applied once to a zero item.

    A sweep cell's ``mask_size`` replaces it by a centred square box inpainting.
    """
    spec = dict(cfg.get("operator", {"kind": "identity"}))
    with _building(f"sweep.mask_size {mask_size!r}" if mask_size is not None
                   else f"operator {spec.get('kind')!r}"):
        if mask_size is not None:
            if len(grid_shape) != 2:
                raise ValueError(f"needs 2-D grid items, got shape {tuple(grid_shape)}")
            h, w = grid_shape
            spec.pop("shape", None)
            spec.update(kind="box-inpaint",
                        box=[(h - mask_size) // 2, (w - mask_size) // 2, mask_size, mask_size])
        op = make_operator(spec, grid_shape=tuple(grid_shape))
        op.apply(np.zeros(grid_shape))
    return op


def _sweep_cells(sweep: dict) -> list[dict]:
    """The cartesian product of the sweep's axes, one override mapping per cell."""
    axes = [(a, sweep[a]) for a in _SWEEP_AXES if a in sweep]
    if not axes:
        raise ConfigError("sweep section has no axes")
    cells = [{}]
    for name, values in axes:
        if not isinstance(values, list) or not values:
            raise ConfigError(f"sweep.{name} must be a nonempty list, got {values!r}")
        cells = [{**c, name: v} for c in cells for v in values]
    return cells


def validate_config(cfg: dict) -> dict:
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(cfg, _TOP_KEYS, "config")

    for required in ("dataset", "sampler", "seeds"):
        if required not in cfg:
            raise ConfigError(f"config missing required section '{required}'")

    data = settings(cfg["dataset"], DATASET, "dataset")
    if data["kind"] is None:
        raise ConfigError("dataset needs a 'kind'")
    with _building("dataset"):
        item_shape = generate(data["kind"], data["spec"], 0, data["seed"]).items.shape[1:]

    T = build_schedule(cfg).T

    ae = None
    if "probe" in cfg:
        probe = settings(cfg["probe"], PROBE, "probe")
        # the group actions that train builds: the data action acts on the items
        _check_keys(probe["action"], _GROUP_KEYS, "probe.action")
        with _building("probe.action"):
            make_group(probe["action"]).apply_domain(1, np.zeros(item_shape))
        if probe["latent_action"]:
            _check_keys(probe["latent_action"], _GROUP_KEYS, "probe.latent_action")
        if probe["train"] is not None:
            train = settings(probe["train"], PROBE_TRAINING, "probe.train")
            # the probe that train builds, with its paired action applied to a zero input
            with _building("probe"):
                ae = probe_autoencoder(item_shape, train, np.random.default_rng(0))
                m = _probe_from_autoencoder(ae, probe["action"], train["f"], probe["latent_action"])
                x = ae.latent_shape() if m.name == "decoder" else item_shape
                equi_error(m, 1, np.zeros((1, *x)))

    if "score_model" in cfg:
        sm = settings(cfg["score_model"], SCORE_MODEL, "score_model")
        if sm["prior"] is not None:
            with _building("score_model.prior"):
                prior_from_spec(sm["prior"])
        if sm["train"] is not None:
            train = settings(sm["train"], DENOISER_TRAINING, "score_model.train")
            # the net that train builds, for the items or the latents of the probe it trains
            latent = train["space"] == "latent"
            if ae is not None or not latent:
                with _building("score_model.train"):
                    denoiser_net(ae.latent_shape() if latent else item_shape, train,
                                 np.random.default_rng(0))

    if "operator" in cfg:
        _check_keys(cfg["operator"], _OPERATOR_KEYS, "operator")

    settings(settings(cfg["sampler"], SAMPLER, "sampler")["equi"], EQUI, "sampler.equi")
    cells = [{}]
    if "sweep" in cfg:
        _check_keys(cfg["sweep"], _SWEEP_AXES, "sweep")
        cells += _sweep_cells(cfg["sweep"])
    # every sampler config and operator that run or sweep will build, built the same way
    for cell in cells:
        with _building(f"sweep cell {cell}" if cell else "sampler"):
            sampler = _sampler_config(cfg, 0, cell)
            step_indices(T, sampler.steps)
        build_operator(cfg, item_shape, cell.get("mask_size"))
    if ALGORITHMS[sampler.algorithm].family == "unconditional":
        raise ConfigError(f"sampler.algorithm '{sampler.algorithm}' draws unconditional samples; "
                          "run and sweep need a measurement-conditioned algorithm")

    settings(settings(cfg.get("run", {}), RUN, "run")["oracle"], ORACLE, "run.oracle")

    check_seeds(cfg["seeds"], "seeds")
    return cfg


def needs_probe(algorithm: str) -> bool:
    """The algorithm penalizes through a probe or samples in its autoencoder's latent space."""
    alg = ALGORITHMS[algorithm]
    return alg.regularized or alg.family in ("psld", "resample")


def check_models(cfg: dict) -> None:
    """Check that a validated cfg names the score model and probe its sampler needs.

    The score model must live in the space of the sampler's variable, unless it
    is only a checkpoint. validate_config leaves this out, so that a config of
    only a dataset, an operator and a sampler (as perfbench's layer figures
    load) still loads; the CLI checks it before any command writes a file.
    """
    sm = settings(cfg.get("score_model", {}), SCORE_MODEL, "score_model")
    if sm["kind"] == "analytic-gmm" and sm["prior"] is None:
        raise ConfigError("score_model: the analytic-gmm score model (the default kind) needs a prior")
    algorithm = settings(cfg["sampler"], SAMPLER, "sampler")["algorithm"]
    if needs_probe(algorithm) and not cfg.get("probe"):
        raise ConfigError(f"sampler.algorithm '{algorithm}' needs a probe section")
    space = "pixel" if sm["kind"] == "analytic-gmm" else None
    if space is None and sm["train"] is not None:
        space = settings(sm["train"], DENOISER_TRAINING, "score_model.train")["space"]
        if space == "latent" and settings(cfg.get("probe", {}), PROBE, "probe")["train"] is None:
            raise ConfigError("latent-space training needs a trained probe in the same config")
    needed = "latent" if ALGORITHMS[algorithm].family in ("psld", "resample") else "pixel"
    if space not in (None, needed):
        raise ConfigError(f"sampler.algorithm '{algorithm}' needs a {needed}-space score model")


def load_config(path) -> dict:
    path = Path(path)
    try:
        cfg = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return validate_config(cfg)
