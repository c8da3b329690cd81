"""Experiment configuration: JSON schema validation and normalization.

Unknown keys are rejected everywhere so a typo cannot silently change an
experiment. A validated config plus a seed list fully determines every output.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

import numpy as np

from .datasets import generate, prior_from_spec
from .equi import PROBE_MAPS, EquiLossConfig, _probe_from_autoencoder, equi_error, probe_autoencoder
from .groups import make_group
from .models import denoiser_net
from .operators import MeasurementOperator, make_operator
from .samplers import ALGORITHMS, SamplerConfig, step_indices
from .schedule import NoiseSchedule, make_linear_schedule

__all__ = ["ConfigError", "load_config", "validate_config", "check_models", "check_seeds",
           "build_schedule", "build_operator", "needs_probe", "DEFAULT_SCHEDULE"]


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
_RUN_KEYS = {"n_images", "samples_per_image", "oracle", "psnr_peak"}
_ORACLE_KEYS = {"enabled", "n_samples", "n_proj", "ring_radius"}
_SWEEP_AXES = ("lambda", "period", "steps", "mask_size", "k_split")
_GROUP_KEYS = {"group", "shift", "length", "perm"}


def _check_keys(section: dict, allowed: set | tuple, where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object, got {section!r}")
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _check_choice(section: dict, key: str, choices: tuple, where: str) -> None:
    if key in section and section[key] not in choices:
        raise ConfigError(f"{where}.{key} must be one of {choices}, got {section[key]!r}")


@contextmanager
def _building(where: str):
    """Map what a constructor rejects to a ConfigError naming the config section."""
    try:
        yield
    except (LookupError, TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _check_counts(section: dict, keys: tuple[str, ...], where: str, least: int = 1) -> None:
    for key in keys:
        n = section.get(key, least)
        if isinstance(n, bool) or not isinstance(n, int) or n < least:
            raise ConfigError(f"{where}.{key} must be an integer >= {least}, got {n!r}")


def _check_positive(section: dict, key: str, where: str) -> None:
    v = section.get(key, 1.0)
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not v > 0:
        raise ConfigError(f"{where}.{key} must be a number > 0, got {v!r}")


def _check_training(train: dict, where: str) -> None:
    _check_counts(train, ("batch_size",), where)
    _check_counts(train, ("steps", "seed"), where, least=0)
    _check_positive(train, "lr", where)


def check_seeds(seeds, where: str) -> list[int]:
    if not isinstance(seeds, list) or not seeds or not all(
            isinstance(s, int) and not isinstance(s, bool) and s >= 0 for s in seeds):
        raise ConfigError(f"{where} must be a nonempty list of non-negative integers, got {seeds!r}")
    return seeds


def build_schedule(cfg: dict) -> NoiseSchedule:
    sc = {**DEFAULT_SCHEDULE, **cfg.get("schedule", {})}
    return make_linear_schedule(int(sc["T"]), float(sc["beta_min"]), float(sc["beta_max"]))


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

    data = cfg["dataset"]
    _check_keys(data, _DATASET_KEYS, "dataset")
    if "kind" not in data:
        raise ConfigError("dataset needs a 'kind'")
    _check_counts(data, ("n", "test_n"), "dataset")
    _check_counts(data, ("seed", "test_seed"), "dataset", least=0)
    with _building("dataset"):
        item_shape = generate(data["kind"], data.get("spec", {}), 0,
                              int(data.get("seed", 0))).items.shape[1:]

    if "schedule" in cfg:
        _check_keys(cfg["schedule"], _SCHEDULE_KEYS, "schedule")
    with _building("schedule"):
        T = build_schedule(cfg).T

    ae = None
    if "probe" in cfg:
        probe = cfg["probe"]
        _check_keys(probe, _PROBE_KEYS, "probe")
        if "train" in probe:
            _check_keys(probe["train"], _PROBE_TRAIN_KEYS, "probe.train")
            _check_choice(probe["train"], "f", PROBE_MAPS, "probe.train")
            _check_training(probe["train"], "probe.train")
        # the group actions that train builds: the data action acts on the items
        data_action = probe.get("action", {"group": "flip-h"})
        _check_keys(data_action, _GROUP_KEYS, "probe.action")
        with _building("probe.action"):
            make_group(data_action).apply_domain(1, np.zeros(item_shape))
        if probe.get("latent_action"):
            _check_keys(probe["latent_action"], _GROUP_KEYS, "probe.latent_action")
        if "train" in probe:
            # the probe that train builds, with its paired action applied to a zero input
            with _building("probe"):
                ae = probe_autoencoder(item_shape, probe["train"], np.random.default_rng(0))
                m = _probe_from_autoencoder(ae, data_action, probe["train"].get("f", "encoder"),
                                            probe.get("latent_action"))
                x = ae.latent_shape() if m.name == "decoder" else item_shape
                equi_error(m, 1, np.zeros((1, *x)))

    if "score_model" in cfg:
        sm = cfg["score_model"]
        _check_keys(sm, _SCORE_KEYS, "score_model")
        kind = sm.get("kind")
        if kind not in ("analytic-gmm", "trained-denoiser"):
            raise ConfigError(f"score_model.kind must be analytic-gmm or trained-denoiser, got {kind!r}")
        if "prior" in sm:
            with _building("score_model.prior"):
                prior_from_spec(sm["prior"])
        if "train" in sm:
            _check_keys(sm["train"], _SCORE_TRAIN_KEYS, "score_model.train")
            _check_choice(sm["train"], "space", ("pixel", "latent"), "score_model.train")
            _check_training(sm["train"], "score_model.train")
            # the net that train builds, for the items or the latents of the probe it trains
            latent = sm["train"].get("space") == "latent"
            if ae is not None or not latent:
                with _building("score_model.train"):
                    denoiser_net(ae.latent_shape() if latent else item_shape, sm["train"],
                                 np.random.default_rng(0))

    if "operator" in cfg:
        _check_keys(cfg["operator"], _OPERATOR_KEYS, "operator")

    _check_keys(cfg["sampler"], _SAMPLER_KEYS, "sampler")
    if "equi" in cfg["sampler"]:
        _check_keys(cfg["sampler"]["equi"], _EQUI_KEYS, "sampler.equi")
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

    if "run" in cfg:
        _check_keys(cfg["run"], _RUN_KEYS, "run")
        _check_counts(cfg["run"], ("n_images", "samples_per_image"), "run")
        _check_positive(cfg["run"], "psnr_peak", "run")
        if "oracle" in cfg["run"]:
            _check_keys(cfg["run"]["oracle"], _ORACLE_KEYS, "run.oracle")
            _check_counts(cfg["run"]["oracle"], ("n_samples", "n_proj"), "run.oracle")

    check_seeds(cfg["seeds"], "seeds")
    return cfg


def needs_probe(algorithm: str) -> bool:
    """The algorithm penalizes through a probe or samples in its autoencoder's latent space."""
    alg = ALGORITHMS[algorithm]
    return alg.regularized or alg.family in ("psld", "resample")


def check_models(cfg: dict) -> None:
    """Check that a validated cfg names the score model and probe its sampler needs.

    validate_config leaves this out, so that a config of only a dataset, an
    operator and a sampler (as perfbench's layer figures load) still loads;
    the CLI checks it before any command writes a file.
    """
    sm = cfg.get("score_model", {"kind": "analytic-gmm"})
    if sm["kind"] == "analytic-gmm" and "prior" not in sm:
        raise ConfigError("score_model: the analytic-gmm score model (the default kind) needs a prior")
    algorithm = cfg["sampler"].get("algorithm", "dps")
    if needs_probe(algorithm) and not cfg.get("probe"):
        raise ConfigError(f"sampler.algorithm '{algorithm}' needs a probe section")


def load_config(path) -> dict:
    path = Path(path)
    try:
        cfg = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return validate_config(cfg)
