"""Experiment configuration: JSON schema validation and normalization.

Unknown keys are rejected everywhere so a typo cannot silently change an
experiment. A validated config plus a seed list fully determines every output.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

from .equi import EquiLossConfig
from .samplers import ALGORITHMS, SamplerConfig

__all__ = ["ConfigError", "load_config", "validate_config", "DEFAULT_SCHEDULE"]


class ConfigError(ValueError):
    pass


DEFAULT_SCHEDULE = {"T": 1000, "beta_min": 1e-4, "beta_max": 0.02}

_TOP_KEYS = {"dataset", "schedule", "score_model", "probe", "operator", "sampler",
             "run", "sweep", "seeds", "out_dir"}
_DATASET_KEYS = {"kind", "spec", "n", "seed", "test_n", "test_seed"}
_SCHEDULE_KEYS = {"T", "beta_min", "beta_max"}
_SCORE_KEYS = {"kind", "prior", "checkpoint", "train"}
_SCORE_TRAIN_KEYS = {"steps", "batch_size", "lr", "seed", "hidden", "width", "space"}
_PROBE_KEYS = {"checkpoint", "train", "action", "latent_action"}
_PROBE_TRAIN_KEYS = {"steps", "batch_size", "lr", "seed", "hidden", "latent_dim",
                     "channels", "latent_channels", "augment", "f"}
_OPERATOR_KEYS = {"kind", "box", "shape", "keep_prob", "seed", "size", "sigma",
                  "orientation", "factor", "scale", "padding", "sigma_y"}
# the seed comes from the run's seed list; recorded states are not a run output
_SAMPLER_KEYS = {f.name for f in fields(SamplerConfig)} - {"seed", "record_states"}
_EQUI_KEYS = {f.name for f in fields(EquiLossConfig)}
_RUN_KEYS = {"n_images", "samples_per_image", "image_offset", "oracle", "psnr_peak"}
_ORACLE_KEYS = {"enabled", "n_samples", "n_proj", "ring_radius"}
_SWEEP_KEYS = {"lambda", "period", "steps", "mask_size", "k_split"}
_GROUP_KEYS = {"group", "shift", "length", "perm"}


def _check_keys(section: dict, allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def validate_config(cfg: dict) -> dict:
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(cfg, _TOP_KEYS, "config")

    for required in ("dataset", "sampler", "seeds"):
        if required not in cfg:
            raise ConfigError(f"config missing required section '{required}'")

    _check_keys(cfg["dataset"], _DATASET_KEYS, "dataset")
    if "kind" not in cfg["dataset"]:
        raise ConfigError("dataset needs a 'kind'")

    if "schedule" in cfg:
        _check_keys(cfg["schedule"], _SCHEDULE_KEYS, "schedule")

    if "score_model" in cfg:
        _check_keys(cfg["score_model"], _SCORE_KEYS, "score_model")
        kind = cfg["score_model"].get("kind")
        if kind not in ("analytic-gmm", "trained-denoiser"):
            raise ConfigError(f"score_model.kind must be analytic-gmm or trained-denoiser, got {kind!r}")
        if "train" in cfg["score_model"]:
            _check_keys(cfg["score_model"]["train"], _SCORE_TRAIN_KEYS, "score_model.train")

    if "probe" in cfg:
        _check_keys(cfg["probe"], _PROBE_KEYS, "probe")
        if "train" in cfg["probe"]:
            _check_keys(cfg["probe"]["train"], _PROBE_TRAIN_KEYS, "probe.train")
        if "action" in cfg["probe"]:
            _check_keys(cfg["probe"]["action"], _GROUP_KEYS, "probe.action")
        if cfg["probe"].get("latent_action"):
            _check_keys(cfg["probe"]["latent_action"], _GROUP_KEYS, "probe.latent_action")

    if "operator" in cfg:
        _check_keys(cfg["operator"], _OPERATOR_KEYS, "operator")

    _check_keys(cfg["sampler"], _SAMPLER_KEYS, "sampler")
    if "equi" in cfg["sampler"]:
        _check_keys(cfg["sampler"]["equi"], _EQUI_KEYS, "sampler.equi")
    try:
        sampler = SamplerConfig(**cfg["sampler"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"sampler: {exc}") from exc
    if ALGORITHMS[sampler.algorithm].family == "unconditional":
        raise ConfigError(f"sampler.algorithm '{sampler.algorithm}' draws unconditional samples; "
                          "run and sweep need a measurement-conditioned algorithm")

    if "run" in cfg:
        _check_keys(cfg["run"], _RUN_KEYS, "run")
        for key in ("n_images", "samples_per_image"):
            n = cfg["run"].get(key, 1)
            if isinstance(n, bool) or not isinstance(n, int) or n < 1:
                raise ConfigError(f"run.{key} must be an integer >= 1, got {n!r}")
        if "oracle" in cfg["run"]:
            _check_keys(cfg["run"]["oracle"], _ORACLE_KEYS, "run.oracle")

    if "sweep" in cfg:
        _check_keys(cfg["sweep"], _SWEEP_KEYS, "sweep")

    seeds = cfg["seeds"]
    if not isinstance(seeds, list) or not seeds or not all(isinstance(s, int) for s in seeds):
        raise ConfigError("seeds must be a nonempty list of integers")
    return cfg


def load_config(path) -> dict:
    path = Path(path)
    try:
        cfg = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return validate_config(cfg)
