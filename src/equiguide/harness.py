"""Config-driven experiment execution: data, training, runs, sweeps, reports.

Every output is a pure function of (config, seeds); run summaries carry a
manifest hash over the deterministic payload so reruns can be compared by
fingerprint alone.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from pathlib import Path

import numpy as np

from . import __version__
from .autodiff import Tensor
from .config import (_SWEEP_AXES, ConfigError, _sampler_config, _sweep_cells, build_operator,
                     build_schedule, needs_probe)
from .datasets import Dataset, generate, load_dataset, prior_from_spec, ring_distance, save_dataset
from .equi import load_probe, save_probe, train_autoencoder_augmented
from .gmm import gmm_posterior_exact, sample_gmm
from .groups import make_group
from .metrics import diversity, psnr, sliced_wasserstein, ssim
from .models import (
    AnalyticGmmScore,
    load_score_model,
    save_score_model,
    train_denoiser,
)
from .operators import forward
from .samplers import (
    ALGORITHMS,
    SamplerConfig,
    Trajectory,
    dps_sample,
    equi_dps_sample,
    equi_psld_sample,
    equi_resample_sample,
    equi_sitcom_sample,
    independent_chains,
)
from .schedule import NoiseSchedule

__all__ = [
    "cmd_gen_data",
    "cmd_train",
    "cmd_run",
    "cmd_sweep",
    "cmd_report",
    "build_schedule",
    "build_operator",
    "run_summary_hash",
]


def _out_dir(cfg: dict, override=None) -> Path:
    out = Path(override or cfg.get("out_dir", "out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _dataset_paths(out: Path) -> tuple[Path, Path]:
    return out / "dataset.eqd", out / "testset.eqd"


def cmd_gen_data(cfg: dict, out_dir=None) -> dict:
    """Generate the train and held-out datasets declared in the config."""
    out = _out_dir(cfg, out_dir)
    d = cfg["dataset"]
    train = generate(d["kind"], d.get("spec", {}), int(d.get("n", 256)), int(d.get("seed", 0)))
    test = generate(d["kind"], d.get("spec", {}), int(d.get("test_n", 64)),
                    int(d.get("test_seed", d.get("seed", 0) + 10_000)))
    train_path, test_path = _dataset_paths(out)
    save_dataset(train_path, train)
    save_dataset(test_path, test)
    return {"train": str(train_path), "test": str(test_path),
            "n_train": len(train), "n_test": len(test)}


def _load_datasets(cfg: dict, out: Path) -> tuple[Dataset, Dataset]:
    train_path, test_path = _dataset_paths(out)
    if not train_path.exists() or not test_path.exists():
        cmd_gen_data(cfg, out)
    return load_dataset(train_path), load_dataset(test_path)


def cmd_train(cfg: dict, out_dir=None) -> dict:
    """Train whatever the config declares trainable; write checkpoints."""
    out = _out_dir(cfg, out_dir)
    sched = build_schedule(cfg)
    train_ds, _ = _load_datasets(cfg, out)
    written = {}

    probe = None
    probe_cfg = cfg.get("probe", {})
    if "train" in probe_cfg:
        action = make_group(probe_cfg.get("action", {"group": "flip-h"}))
        tr = dict(probe_cfg["train"])
        if probe_cfg.get("latent_action"):
            tr["latent_action"] = probe_cfg["latent_action"]
        probe = train_autoencoder_augmented(train_ds.items, action, tr)
        path = out / "probe.eqc"
        save_probe(path, probe)
        written["probe"] = str(path)

    sm = cfg.get("score_model", {})
    if sm.get("kind") == "trained-denoiser" and "train" in sm:
        tr = dict(sm["train"])
        space = tr.pop("space", "pixel")
        items = train_ds.items
        if space == "latent":
            if probe is None:
                raise ConfigError("latent-space training needs a trained probe in the same config")
            ae = probe.meta["ae"]
            lat = ae.encode(Tensor(items)).data
            items = lat.reshape(len(items), *ae.latent_shape())
        model = train_denoiser(items, sched, tr)
        path = out / "denoiser.eqc"
        save_score_model(path, model)
        written["denoiser"] = str(path)
    return written


def _checkpoint_path(section: dict, out: Path, name: str, what: str) -> Path:
    """The section's checkpoint (or its file name under out), else out/name."""
    path = Path(section["checkpoint"]) if "checkpoint" in section else out / name
    if not path.is_absolute():
        path = out / path.name if not path.exists() else path
    if not path.exists():
        raise ConfigError(f"missing {what} checkpoint {path}")
    return path


def _resolve_probe(cfg: dict, out: Path):
    pc = cfg.get("probe")
    if not pc:
        return None
    return load_probe(_checkpoint_path(pc, out, "probe.eqc", "probe"))


def _resolve_score_model(cfg: dict, out: Path, sched: NoiseSchedule):
    sm = cfg.get("score_model", {})
    kind = sm.get("kind", "analytic-gmm")
    if kind == "analytic-gmm":
        prior_spec = sm.get("prior")
        if prior_spec is None:
            raise ConfigError("analytic-gmm score model needs a prior")
        return AnalyticGmmScore(prior_from_spec(prior_spec), sched)
    return load_score_model(_checkpoint_path(sm, out, "denoiser.eqc", "denoiser"))


def _run_sampler(model, op, y, probe, scfg: SamplerConfig, n_chains: int) -> Trajectory:
    alg = ALGORITHMS[scfg.algorithm]
    if needs_probe(scfg.algorithm) and probe is None:
        raise ConfigError(f"algorithm '{scfg.algorithm}' needs a probe")
    m = probe if alg.regularized else None
    # DPS goes through this module's dps_sample/equi_dps_sample names, looked up
    # per call, so wrappers installed on them see every DPS call
    if alg.family == "dps" and m is None:
        return dps_sample(model, op, y, scfg, n_chains=n_chains)
    if alg.family == "dps":
        return equi_dps_sample(model, op, y, m, scfg, n_chains=n_chains)
    if alg.family == "sitcom":
        return equi_sitcom_sample(model, op, y, m, scfg, n_chains=n_chains)
    if alg.family not in ("psld", "resample"):
        raise ConfigError(f"algorithm '{scfg.algorithm}' does not condition on a measurement")
    if probe.meta.get("ae") is None:
        raise ConfigError(f"latent sampler '{scfg.algorithm}' needs an autoencoder probe")
    sample = equi_psld_sample if alg.family == "psld" else equi_resample_sample
    return sample(model, probe.meta["ae"], op, y, m, scfg, n_chains=n_chains)


def _measurement_seed(seed: int, image_idx: int) -> int:
    return int(np.random.SeedSequence([seed, image_idx, 0xE0]).generate_state(1)[0])


def _chain_seed(seed: int, image_idx: int, k: int) -> int:
    return int(np.random.SeedSequence([seed, image_idx, k, 0xC4]).generate_state(1)[0])


def run_cell(cfg: dict, model, probe, test_items: np.ndarray, seed: int,
             overrides: dict | None = None) -> dict:
    """Run the sampler on the test images for one seed.

    An image's chains are one sampler call when ``independent_chains`` holds for
    the cell's sampler config, seeded by ``_chain_seed(seed, i, 0)``. Otherwise
    (an "l2" penalty norm, SITCOM, ReSample) each chain k is its own call seeded
    by ``_chain_seed(seed, i, k)``, because a batched call would couple its
    chains through the joint norm or the shared ``delta`` stop.
    """
    run_cfg = cfg.get("run", {})
    n_images = int(run_cfg.get("n_images", 1))
    k_samples = int(run_cfg.get("samples_per_image", 1))
    peak = float(run_cfg.get("psnr_peak", 1.0))
    mask_size = (overrides or {}).get("mask_size")

    grid_shape = test_items.shape[1:]
    op = build_operator(cfg, grid_shape, mask_size=mask_size)
    is_grid = len(grid_shape) == 2

    t0 = time.perf_counter()
    psnrs, ssims, intras, pixstds = [], [], [], []
    sw2s, manifold_dists = [], []
    counts_total: dict[str, int] = {}
    sample_hashes = []
    oracle_cfg = run_cfg.get("oracle", {})
    chunk = k_samples if independent_chains(_sampler_config(cfg, 0, overrides)) else 1

    for i in range(n_images):
        x_true = test_items[i % len(test_items)]
        meas = forward(op, x_true, _measurement_seed(seed, i))
        samples = []
        for k in range(0, k_samples, chunk):
            scfg = _sampler_config(cfg, _chain_seed(seed, i, k), overrides)
            traj = _run_sampler(model, op, meas.y, probe, scfg, chunk)
            samples.extend(traj.final)
            # a call's counts are per step of the whole batch; the row counts chain-steps
            for key, v in traj.counts.items():
                counts_total[key] = counts_total.get(key, 0) + chunk * v
        for s in samples:
            psnrs.append(psnr(s, x_true, peak=peak))
            if is_grid:
                ssims.append(ssim(s, x_true))
            sample_hashes.append(hashlib.sha256(np.ascontiguousarray(s).tobytes()).hexdigest())
        if k_samples > 1:
            intra, pix = diversity(samples)
            intras.append(intra)
            pixstds.append(pix)
        if oracle_cfg.get("enabled") and hasattr(model, "prior") and op.is_linear:
            oracle = gmm_posterior_exact(model.prior, op, op.sigma_y, meas.y)
            n_oracle = int(oracle_cfg.get("n_samples", 256))
            ref = sample_gmm(oracle.posterior, n_oracle,
                             np.random.default_rng(_chain_seed(seed, i, 7001)))
            sw2s.append(sliced_wasserstein(samples, ref, n_proj=int(oracle_cfg.get("n_proj", 64)),
                                           rng=np.random.default_rng(_chain_seed(seed, i, 7002))))
            radius = oracle_cfg.get("ring_radius")
            if radius is not None:
                manifold_dists.append(
                    float(np.mean([ring_distance(s, float(radius)) for s in samples]))
                )

    row = {
        "seed": seed,
        "psnr": float(np.mean(psnrs)),
        "runtime_s": time.perf_counter() - t0,
        "sample_hashes": sample_hashes,
        **{k: int(v) for k, v in counts_total.items()},
    }
    if ssims:
        row["ssim"] = float(np.mean(ssims))
    if intras:
        row["intra_dist"] = float(np.mean(intras))
        row["pixel_std"] = float(np.mean(pixstds))
    if sw2s:
        row["sw2"] = float(np.mean(sw2s))
    if manifold_dists:
        row["manifold_dist"] = float(np.mean(manifold_dists))
    return row


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def run_summary_hash(payload: dict) -> str:
    return hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()


def _run_setup(cfg: dict, out_dir, seeds):
    """What run and sweep share: out dir, seeds, test items, score model and probe."""
    out = _out_dir(cfg, out_dir)
    seeds = list(seeds if seeds is not None else cfg["seeds"])
    _, test_ds = _load_datasets(cfg, out)
    model = _resolve_score_model(cfg, out, build_schedule(cfg))
    return out, seeds, test_ds.items, model, _resolve_probe(cfg, out)


def cmd_run(cfg: dict, out_dir=None, seeds=None) -> dict:
    """Run the configured sampler for every seed; write the hashed summary."""
    out, seeds, test_items, model, probe = _run_setup(cfg, out_dir, seeds)
    rows = [run_cell(cfg, model, probe, test_items, seed) for seed in seeds]

    # where the outputs go is not part of what was run
    deterministic = {
        "config": {k: v for k, v in cfg.items() if k != "out_dir"},
        "seeds": seeds,
        "code_version": __version__,
        "results": [{k: v for k, v in r.items() if k != "runtime_s"} for r in rows],
    }
    summary = {
        "hash": run_summary_hash(deterministic),
        "payload": deterministic,
        "runtime_s": [r["runtime_s"] for r in rows],
    }
    (out / "run_summary.json").write_text(json.dumps(summary, sort_keys=True, indent=1))
    return summary


def cmd_sweep(cfg: dict, out_dir=None, seeds=None) -> Path:
    """Cartesian sweep over the configured axes; one CSV row per cell x seed."""
    out, seeds, test_items, model, probe = _run_setup(cfg, out_dir, seeds)
    cells = _sweep_cells(cfg.get("sweep", {}))

    rows = []
    for cell in cells:
        for seed in seeds:
            row = run_cell(cfg, model, probe, test_items, seed, overrides=cell)
            row.pop("sample_hashes")
            for a in _SWEEP_AXES:
                row[a] = json.dumps(cell[a]) if a in cell else ""
            rows.append(row)

    fields = sorted({k for r in rows for k in r})
    path = out / "sweep.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    return path


def cmd_report(run_dir, out_path=None) -> dict:
    """Aggregate a sweep CSV (and run summary if present) into plot-ready stats."""
    run_dir = Path(run_dir)
    report: dict = {"source": str(run_dir)}
    sweep_path = run_dir / "sweep.csv"
    if sweep_path.exists():
        with open(sweep_path) as fh:
            rows = list(csv.DictReader(fh))
        groups: dict[str, list[dict]] = {}
        for r in rows:
            key = _canonical({a: r.get(a, "") for a in _SWEEP_AXES})
            groups.setdefault(key, []).append(r)
        cells = []
        for key, rs in sorted(groups.items()):
            metrics = {}
            for col in rs[0]:
                if col in _SWEEP_AXES or col == "seed":
                    continue
                try:
                    vals = [float(r[col]) for r in rs if r[col] != ""]
                except ValueError:
                    continue
                if vals:
                    metrics[col] = {"mean": float(np.mean(vals)), "std": float(np.std(vals)),
                                    "n": len(vals)}
            cells.append({"cell": json.loads(key), "metrics": metrics})
        report["cells"] = cells
    summary_path = run_dir / "run_summary.json"
    if summary_path.exists():
        report["run"] = json.loads(summary_path.read_text())
    out_path = Path(out_path) if out_path else run_dir / "report.json"
    out_path.write_text(json.dumps(report, sort_keys=True, indent=1))
    return report
