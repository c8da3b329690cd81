import csv
import hashlib
import json

import numpy as np
import pytest

from equiguide import harness
from equiguide.autodiff import Tensor, matmul
from equiguide.cli import main
from equiguide.config import (DATASET, EQUI, ORACLE, PROBE, RUN, SAMPLER, SCHEDULE, SCORE_MODEL,
                               ConfigError, load_config, validate_config)
from equiguide.equi import PROBE_TRAINING, EquiLossConfig, EquivariantFunction
from equiguide.gmm import GMMPrior, sample_gmm
from equiguide.groups import make_group
from equiguide.harness import cmd_gen_data, cmd_report, cmd_run, cmd_sweep, cmd_train
from equiguide.models import DENOISER_TRAINING, AnalyticGmmScore
from equiguide.operators import forward
from equiguide.samplers import ALGORITHMS, equi_dps_sample, expected_reg_count


def small_config(out_dir, algorithm="equi-dps", lam=0.05):
    return {
        "dataset": {"kind": "sym-shapes-grid", "spec": {"size": 8}, "n": 48,
                    "seed": 1, "test_n": 8, "test_seed": 2},
        "schedule": {"T": 40, "beta_min": 1e-3, "beta_max": 0.08},
        "score_model": {"kind": "trained-denoiser",
                        "train": {"steps": 60, "batch_size": 16, "lr": 2e-3, "seed": 0,
                                  "width": 6}},
        "probe": {"train": {"steps": 60, "batch_size": 16, "seed": 0, "channels": 4,
                            "latent_channels": 2, "f": "encoder"},
                  "action": {"group": "flip-h"}},
        "operator": {"kind": "box-inpaint", "box": [2, 2, 4, 4], "shape": [8, 8],
                     "sigma_y": 0.05},
        "sampler": {"algorithm": algorithm, "steps": 10, "zeta": 0.4,
                    "equi": {"lam": lam, "period": 1}},
        "run": {"n_images": 2, "samples_per_image": 1},
        "seeds": [0, 1],
        "out_dir": str(out_dir),
    }


def test_validate_rejects_unknown_keys(tmp_path):
    cfg = small_config(tmp_path)
    cfg["sampler"]["zeta_typo"] = 1.0
    with pytest.raises(ConfigError):
        validate_config(cfg)
    cfg = small_config(tmp_path)
    cfg["extras"] = {}
    with pytest.raises(ConfigError):
        validate_config(cfg)
    # sampler and run options that no longer exist
    for section, key, value in [("sampler", "guidance_norm", "plain"),
                                ("sampler", "detach_regularizer", True),
                                ("sampler", "ddim_eta", 0.5),
                                ("sampler", "closeness_weight", 0.01),
                                ("run", "image_offset", 1),
                                ("equi", "element_policy", "fixed")]:
        cfg = small_config(tmp_path)
        where = cfg["sampler"]["equi"] if section == "equi" else cfg[section]
        where[key] = value
        with pytest.raises(ConfigError):
            validate_config(cfg)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path)]) == 2


def test_validate_requires_sections(tmp_path):
    with pytest.raises(ConfigError):
        validate_config({"dataset": {"kind": "x"}, "sampler": {}})


def test_validate_seeds_type(tmp_path):
    cfg = small_config(tmp_path)
    cfg["seeds"] = "0,1"
    with pytest.raises(ConfigError):
        validate_config(cfg)
    # run counts: integers >= 1 only
    for key in ("n_images", "samples_per_image"):
        for bad in (0, -1, 1.5, "2", True, None):
            cfg = small_config(tmp_path)
            cfg["run"][key] = bad
            with pytest.raises(ConfigError):
                validate_config(cfg)
    # the command line's seed override: integers, at least one
    path = _write_config(tmp_path, small_config(tmp_path))
    for command in ("run", "sweep"):
        for bad in ("1,x", ",", "", "-1"):
            assert main([command, "--config", path, "--seeds", bad]) == 2


BAD_VALUES = [
    ("run.psnr_peak", 0, "psnr_peak"),
    ("run.psnr_peak", -1.0, "psnr_peak"),
    ("run.psnr_peak", "1", "psnr_peak"),
    ("run.oracle.n_samples", 0, "n_samples"),
    ("run.oracle.n_proj", 0, "n_proj"),
    ("seeds", [-1], "seeds"),
    ("schedule.T", 0, "schedule"),
    ("sampler.steps", 50, "steps must lie in 1..40"),
    ("sweep.steps", [50], "steps must lie in 1..40"),
    ("sweep.lambda", 0.1, "sweep.lambda"),
    ("sweep.lambda", [-1.0], "lambda must be >= 0"),
    ("sweep.k_split", [3], "sweep cell"),
]


@pytest.mark.parametrize("key,value,message", BAD_VALUES,
                         ids=[f"{k}={v!r}" for k, v, _ in BAD_VALUES])
def test_cli_rejects_bad_run_values(tmp_path, capsys, key, value, message):
    cfg = vector_config(tmp_path, "equi-dps")
    cfg["run"]["oracle"] = {"enabled": True}
    _set(cfg, key, value)
    with pytest.raises(ConfigError, match=message):
        validate_config(cfg)
    command = "sweep" if key.startswith("sweep.") else "run"
    assert main([command, "--config", _write_config(tmp_path, cfg)]) == 2
    assert message in capsys.readouterr().err


def test_gen_data_and_train_write_files(tmp_path):
    cfg = validate_config(small_config(tmp_path))
    info = cmd_gen_data(cfg)
    assert (tmp_path / "dataset.eqd").exists()
    assert info["n_train"] == 48 and info["n_test"] == 8
    written = cmd_train(cfg)
    assert (tmp_path / "denoiser.eqc").exists()
    assert (tmp_path / "probe.eqc").exists()
    assert set(written) == {"denoiser", "probe"}


def test_run_is_deterministic_and_hashed(tmp_path):
    cfg = validate_config(small_config(tmp_path))
    cmd_gen_data(cfg)
    cmd_train(cfg)
    s1 = cmd_run(cfg)
    s2 = cmd_run(cfg)
    assert s1["hash"] == s2["hash"]
    assert (tmp_path / "run_summary.json").exists()
    # runtime may differ but is outside the hashed payload
    assert "runtime_s" not in json.dumps(s1["payload"])


def test_run_hash_ignores_out_dir(tmp_path):
    hashes = set()
    for name in ("a", "b"):
        cfg = vector_config(tmp_path / name, "dps")
        cfg["score_model"] = {"kind": "analytic-gmm", "prior": cfg["dataset"]["spec"]}
        del cfg["probe"]
        cfg = validate_config(cfg)
        cmd_gen_data(cfg)
        hashes.add(cmd_run(cfg)["hash"])
    assert len(hashes) == 1


def test_run_cell_chains_match_single_chain_calls():
    # under the "l2" penalty norm a batched call would couple its chains, so each
    # chain of a run must equal its own batch-of-one sampler call
    cfg = vector_config("unused", "equi-dps")
    cfg["sampler"]["equi"]["norm"] = "l2"
    cfg["run"] = {"n_images": 2, "samples_per_image": 3}
    spec = cfg["dataset"]["spec"]
    prior = GMMPrior(*(np.asarray(spec[k], dtype=float) for k in ("weights", "means", "covariances")))
    model = AnalyticGmmScore(prior, harness.build_schedule(cfg))
    w = Tensor(np.random.default_rng(3).standard_normal((4, 4)))
    probe = EquivariantFunction(lambda z: matmul(z, w), make_group(cfg["probe"]["action"]),
                                name="linear")
    items = sample_gmm(prior, 2, np.random.default_rng(0))
    row = harness.run_cell(cfg, model, probe, items, seed=0)
    op = harness.build_operator(cfg, items.shape[1:])
    expected, r_vals = [], []
    for i in range(2):
        y = forward(op, items[i], harness._measurement_seed(0, i)).y
        for k in range(3):
            scfg = harness._sampler_config(cfg, harness._chain_seed(0, i, k))
            traj = equi_dps_sample(model, op, y, probe, scfg)
            expected.append(hashlib.sha256(traj.final[0].tobytes()).hexdigest())
            r_vals += [rec.equi_loss for rec in traj.records]
    assert row["sample_hashes"] == expected
    assert max(r_vals) > 0.0
    assert row["score_evals"] == row["guidance_grads"] == 6 * cfg["sampler"]["steps"]
    with pytest.raises(ConfigError, match="'equi-dps' needs a probe"):
        harness.run_cell(cfg, model, None, items, seed=0)


def _ring_cell(norm):
    """vector_config's equi-dps run on its exact mixture score with a linear probe."""
    cfg = vector_config("unused", "equi-dps")
    cfg["sampler"]["equi"]["norm"] = norm
    cfg["run"] = {"n_images": 2, "samples_per_image": 3}
    spec = cfg["dataset"]["spec"]
    prior = GMMPrior(*(np.asarray(spec[k], dtype=float) for k in ("weights", "means", "covariances")))
    model = AnalyticGmmScore(prior, harness.build_schedule(cfg))
    w = Tensor(np.random.default_rng(3).standard_normal((4, 4)))
    probe = EquivariantFunction(lambda z: matmul(z, w), make_group(cfg["probe"]["action"]),
                                name="linear")
    return cfg, model, probe, sample_gmm(prior, 2, np.random.default_rng(0))


def test_run_cell_batches_independent_chains(monkeypatch):
    # under "squared-l2" the penalty is a sum of per-chain terms, so an image's
    # chains are one batched call seeded like its first chain
    cfg, model, probe, items = _ring_cell("squared-l2")
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs["n_chains"])
        return equi_dps_sample(*args, **kwargs)

    monkeypatch.setattr(harness, "equi_dps_sample", counted)
    row = harness.run_cell(cfg, model, probe, items, seed=0)
    op = harness.build_operator(cfg, items.shape[1:])
    expected = []
    for i in range(2):
        y = forward(op, items[i], harness._measurement_seed(0, i)).y
        scfg = harness._sampler_config(cfg, harness._chain_seed(0, i, 0))
        traj = equi_dps_sample(model, op, y, probe, scfg, n_chains=3)
        assert max(rec.equi_loss for rec in traj.records) > 0.0
        expected += [hashlib.sha256(s.tobytes()).hexdigest() for s in traj.final]
    assert row["sample_hashes"] == expected
    assert calls == [3, 3]
    steps = cfg["sampler"]["steps"]
    assert row["score_evals"] == row["guidance_grads"] == row["equi_grads"] == 6 * steps


@pytest.mark.parametrize("norm,coupled", [("squared-l2", False), ("l2", True)])
def test_l2_penalty_couples_batched_chains(norm, coupled):
    # why run_cell keeps "l2" per chain: one norm over the batch lets another
    # chain's measurement move chain 0, while a sum of per-chain terms does not
    cfg, model, probe, items = _ring_cell(norm)
    op = harness.build_operator(cfg, items.shape[1:])
    y = np.stack([forward(op, x, harness._measurement_seed(0, i)).y for i, x in enumerate(items)])
    y_moved = y.copy()
    y_moved[1] += 1.0
    scfg = harness._sampler_config(cfg, 5)
    a = equi_dps_sample(model, op, y, probe, scfg, n_chains=2).final
    b = equi_dps_sample(model, op, y_moved, probe, scfg, n_chains=2).final
    assert not np.array_equal(a[1], b[1])
    assert np.array_equal(a[0], b[0]) != coupled


def test_run_missing_checkpoint_errors(tmp_path):
    cfg = validate_config(small_config(tmp_path))
    cmd_gen_data(cfg)
    with pytest.raises(ConfigError):
        cmd_run(cfg)


def test_sweep_lambda_zero_cell_matches_baseline(tmp_path):
    cfg = validate_config(small_config(tmp_path))
    cfg["sweep"] = {"lambda": [0.0, 0.05]}
    cmd_gen_data(cfg)
    cmd_train(cfg)
    path = cmd_sweep(cfg)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4  # 2 cells x 2 seeds
    # the lambda = 0 cells equal a baseline dps run's metrics exactly
    base_cfg = validate_config(small_config(tmp_path, algorithm="dps", lam=0.0))
    base = cmd_run(base_cfg)
    base_psnrs = {r["seed"]: r["psnr"] for r in base["payload"]["results"]}
    for row in rows:
        if row["lambda"] == "0.0":
            assert float(row["psnr"]) == base_psnrs[int(row["seed"])]


def test_report_aggregates_cells(tmp_path):
    cfg = validate_config(small_config(tmp_path))
    cfg["sweep"] = {"lambda": [0.0, 0.05]}
    cmd_gen_data(cfg)
    cmd_train(cfg)
    cmd_sweep(cfg)
    report = cmd_report(tmp_path)
    assert len(report["cells"]) == 2
    for cell in report["cells"]:
        assert cell["metrics"]["psnr"]["n"] == 2
    assert (tmp_path / "report.json").exists()


def test_cli_end_to_end(tmp_path, capsys):
    cfg = small_config(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["gen-data", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert main(["run", "--config", str(cfg_path), "--seeds", "0"]) == 0
    out = capsys.readouterr().out.strip().splitlines()[-1]
    assert "hash" in json.loads(out)
    assert main(["report", str(tmp_path)]) == 0


def test_cli_rejects_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"seeds": [0]}))
    assert main(["run", "--config", str(bad)]) == 2


def test_load_config_round(tmp_path):
    cfg = small_config(tmp_path)
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    loaded = load_config(p)
    assert loaded["sampler"]["algorithm"] == "equi-dps"


RUNNABLE = [name for name, alg in ALGORITHMS.items() if alg.family != "unconditional"]


def vector_config(out_dir, algorithm):
    """Tiny 4-D two-component mixture with an MLP-autoencoder probe.

    Latent families sample a denoiser trained on the probe's 2-D latents and
    penalize through the decoder; pixel families use a pixel-space denoiser
    and the encoder, so each probe map takes the sampler's variable as input.
    """
    latent = ALGORITHMS[algorithm].family in ("psld", "resample")
    cov = (0.1 * np.eye(4)).tolist()
    return {
        "dataset": {"kind": "gmm-points", "n": 64, "seed": 1, "test_n": 4, "test_seed": 2,
                    "spec": {"weights": [0.5, 0.5], "means": [[1, 0, 0, 0], [-1, 0, 0, 0]],
                             "covariances": [cov, cov]}},
        "schedule": {"T": 40, "beta_min": 1e-3, "beta_max": 0.08},
        "score_model": {"kind": "trained-denoiser",
                        "train": {"steps": 20, "batch_size": 16, "seed": 0, "hidden": [16],
                                  "space": "latent" if latent else "pixel"}},
        "probe": {"train": {"steps": 20, "batch_size": 16, "seed": 0, "hidden": [16],
                            "latent_dim": 2, "f": "decoder" if latent else "encoder"},
                  "action": {"group": "permutation", "perm": [1, 0, 2, 3]},
                  "latent_action": {"group": "permutation", "perm": [1, 0]}},
        "operator": {"kind": "random-inpaint", "keep_prob": 0.5, "seed": 1, "sigma_y": 0.05},
        "sampler": {"algorithm": algorithm, "steps": 5, "k_meas": 2, "k_equi": 1,
                    "equi": {"lam": 0.1}},
        "run": {"n_images": 1, "samples_per_image": 3},
        "seeds": [0],
        "out_dir": str(out_dir),
    }


def grid_config(out_dir, algorithm):
    """8x8 symmetric shapes with a conv-autoencoder probe.

    Latent families train their denoiser on the probe's (2, 2, 2) latents.
    """
    cfg = vector_config(out_dir, algorithm)
    latent = ALGORITHMS[algorithm].family in ("psld", "resample")
    cfg["dataset"] = {"kind": "sym-shapes-grid", "spec": {"size": 8}, "n": 32, "seed": 1,
                      "test_n": 2, "test_seed": 2}
    cfg["score_model"]["train"] = {"steps": 10, "batch_size": 8, "seed": 0, "width": 4,
                                   "space": "latent" if latent else "pixel"}
    cfg["probe"] = {"train": {"steps": 10, "batch_size": 8, "seed": 0, "channels": 4,
                              "latent_channels": 2, "f": "decoder" if latent else "encoder"},
                    "action": {"group": "flip-h"}, "latent_action": {"group": "flip-h"}}
    cfg["operator"] = {"kind": "box-inpaint", "box": [2, 2, 4, 4], "sigma_y": 0.05}
    return cfg


ABSENT = "<absent>"  # a _set value that removes the key


def _set(cfg, key, value):
    """Set the dotted config key to value, adding missing sections."""
    *parents, leaf = key.split(".")
    for name in parents:
        cfg = cfg.setdefault(name, {})
    if value == ABSENT:
        del cfg[leaf]
    else:
        cfg[leaf] = value


def _write_config(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.mark.parametrize("make_config,algorithm",
                         [pytest.param(vector_config, a, id=a) for a in RUNNABLE]
                         + [pytest.param(grid_config, a, id=f"grid-{a}") for a in RUNNABLE])
def test_cli_runs_every_measurement_algorithm(tmp_path, capsys, make_config, algorithm):
    path = _write_config(tmp_path, make_config(tmp_path, algorithm))
    assert main(["gen-data", "--config", path]) == 0
    assert main(["train", "--config", path]) == 0
    assert main(["run", "--config", path]) == 0
    out = capsys.readouterr().out.strip().splitlines()[-1]
    assert len(json.loads(out)["hash"]) == 64
    summary = json.loads((tmp_path / "run_summary.json").read_text())
    assert len(summary["payload"]["results"][0]["sample_hashes"]) == 3


@pytest.mark.parametrize("algorithm", ["dsp", "ancestral", "ddim"])
def test_cli_rejects_algorithms_that_cannot_run(tmp_path, algorithm):
    cfg = vector_config(tmp_path, "dps")
    cfg["sampler"] = {"algorithm": algorithm}
    path = _write_config(tmp_path, cfg)
    assert main(["run", "--config", path]) == 2
    with pytest.raises(ConfigError):
        validate_config(json.loads((tmp_path / "cfg.json").read_text()))


def test_cli_constrained_without_inverse_exits_2(tmp_path, capsys):
    cfg = vector_config(tmp_path, "equicon-psld")
    cfg["probe"]["train"]["f"] = "autoencoder"  # no inverse map
    path = _write_config(tmp_path, cfg)
    assert main(["gen-data", "--config", path]) == 0
    assert main(["train", "--config", path]) == 0
    assert main(["run", "--config", path]) == 2
    assert "inverse" in capsys.readouterr().err


def test_sweep_has_no_threads_option(tmp_path):
    path = _write_config(tmp_path, small_config(tmp_path))
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", path, "--threads", "2"])
    assert exc.value.code == 2


def test_cli_checkpoint_of_the_wrong_kind_exits_2(tmp_path, capsys):
    cfg = vector_config(tmp_path, "equi-dps")
    path = _write_config(tmp_path, cfg)
    assert main(["gen-data", "--config", path]) == 0
    assert main(["train", "--config", path]) == 0
    capsys.readouterr()
    cfg["score_model"]["checkpoint"] = str(tmp_path / "probe.eqc")
    assert main(["run", "--config", _write_config(tmp_path, cfg)]) == 2
    assert "not a denoiser checkpoint" in capsys.readouterr().err
    cfg["score_model"]["checkpoint"] = str(tmp_path / "denoiser.eqc")
    cfg["probe"]["checkpoint"] = str(tmp_path / "denoiser.eqc")
    assert main(["run", "--config", _write_config(tmp_path, cfg)]) == 2
    assert "not a probe checkpoint" in capsys.readouterr().err


def test_cli_bad_operator_value_exits_2(tmp_path, capsys):
    cfg = vector_config(tmp_path, "dps")
    cfg["score_model"] = {"kind": "analytic-gmm", "prior": cfg["dataset"]["spec"]}
    del cfg["probe"]
    cfg["operator"]["keep_prob"] = 2.0
    path = _write_config(tmp_path, cfg)
    assert main(["gen-data", "--config", path]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "keep_prob" in err
    assert not (tmp_path / "dataset.eqd").exists()


BAD_BUILDS = [
    (grid_config, "probe.action", {"group": "nope"}, "probe.action: unknown group 'nope'"),
    (grid_config, "probe.action", {"group": "cyclic-translate", "shift": 1}, "'length'"),
    (grid_config, "probe.action", {"group": "permutation", "perm": [0, 0, 1, 2]},
     "not a permutation"),
    (grid_config, "probe.action", {"group": "permutation", "perm": [1, 0]},
     "permutation of length 2 on shape (8, 8)"),
    (vector_config, "sweep", {"mask_size": [2]}, "sweep.mask_size 2: needs 2-D grid items"),
    (grid_config, "operator", {"kind": "gaussian-blur", "size": 3, "sigma": 1.0,
                               "padding": "nope"}, "padding mode must be one of"),
    (grid_config, "operator", {"kind": "gaussian-blur", "size": 17, "sigma": 1.0,
                               "padding": "reflect"}, "reflect padding wider than the source"),
    (vector_config, "probe.latent_action", {"group": "permutation", "perm": [1, 0, 2]},
     "probe: permutation of length 3 on shape (1, 2)"),
    (lambda out_dir, _: vector_config(out_dir, "psld"), "probe", ABSENT,
     "sampler.algorithm 'psld' needs a probe section"),
    (lambda out_dir, _: vector_config(out_dir, "psld"), "score_model",
     {"kind": "analytic-gmm", "prior": vector_config("out", "dps")["dataset"]["spec"]},
     "sampler.algorithm 'psld' needs a latent-space score model"),
    (vector_config, "score_model.train.space", "latent",
     "sampler.algorithm 'equi-dps' needs a pixel-space score model"),
    (lambda out_dir, _: vector_config(out_dir, "psld"), "probe.train", ABSENT,
     "latent-space training needs a trained probe in the same config"),
]


@pytest.mark.parametrize("make_config,key,value,message", BAD_BUILDS,
                         ids=[f"{k}={v!r}" for _, k, v, _ in BAD_BUILDS])
def test_cli_group_action_or_operator_that_cannot_be_built_exits_2_at_gen_data(
        tmp_path, capsys, make_config, key, value, message):
    cfg = make_config(tmp_path, "equi-dps")
    _set(cfg, key, value)
    assert main(["gen-data", "--config", _write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert message in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "dataset.eqd").exists()


BAD_INPUTS = [
    ("train", "dataset.kind", "nope", "unknown dataset kind"),
    ("train", "dataset.spec.weights", [0.7, 0.7], "dataset: weights must form a simplex"),
    ("run", "score_model.prior.weights", [0.7, 0.7], "score_model.prior: weights must form"),
    ("train", "score_model.train.space", "latnet", "score_model.train.space"),
    ("train", "probe.train.f", "encodr", "probe.train.f"),
    ("train", "score_model.train.lr", 1e150, "TrainingDiverged"),
    ("gen-data", "probe", ABSENT, "sampler.algorithm 'equi-dps' needs a probe section"),
    ("gen-data", "score_model", ABSENT, "analytic-gmm score model (the default kind) needs a prior"),
    ("gen-data", "score_model.prior", ABSENT,
     "analytic-gmm score model (the default kind) needs a prior"),
    ("gen-data", "score_model.train.hidden", 5, "score_model.train: 'int' object is not iterable"),
    ("gen-data", "score_model.train.hidden", [0], "every width must be >= 1"),
    ("gen-data", "probe.train.latent_dim", 0, "every width must be >= 1"),
    ("gen-data", "score_model.train.steps", "abc", "score_model.train.steps must be an integer >= 0"),
    ("gen-data", "score_model.train.batch_size", 0,
     "score_model.train.batch_size must be an integer >= 1"),
    ("gen-data", "probe.train.steps", "abc", "probe.train.steps must be an integer >= 0"),
    ("gen-data", "probe.train.lr", "x", "probe.train.lr must be a number > 0"),
    ("gen-data", "dataset.n", "many", "dataset.n must be an integer >= 1"),
    ("gen-data", "dataset.n", -5, "dataset.n must be an integer >= 1"),
    ("gen-data", "probe.train.augment", "false", "probe.train.augment must be true or false"),
    ("gen-data", "probe.train.channels", 2.5, "probe.train.channels must be an integer >= 0"),
    ("gen-data", "run.oracle.enabled", "false", "run.oracle.enabled must be true or false"),
    ("gen-data", "run.oracle.ring_radius", "abc", "run.oracle.ring_radius must be a number > 0"),
    ("gen-data", "run.oracle.ring_radius", 0, "run.oracle.ring_radius must be a number > 0"),
    ("gen-data", "schedule.T", "40", "schedule.T must be an integer >= 1"),
    ("gen-data", "sampler.zeta_normalized", "false", "sampler.zeta_normalized must be true or false"),
    ("gen-data", "sampler.k_meas", 2.5, "sampler.k_meas must be an integer >= 0"),
    ("gen-data", "sampler.resample_steps", "none", "resample_steps must be 'all' or a list"),
]


@pytest.mark.parametrize("command,key,value,message", BAD_INPUTS,
                         ids=[f"{k}={v!r}" for _, k, v, _ in BAD_INPUTS])
def test_cli_bad_data_prior_or_training_input_exits_2(tmp_path, capsys, command, key, value,
                                                      message):
    cfg = vector_config(tmp_path, "equi-dps")
    if key.startswith("score_model.prior"):
        cfg["score_model"] = {"kind": "analytic-gmm",
                              "prior": json.loads(json.dumps(cfg["dataset"]["spec"]))}
    _set(cfg, key, value)
    assert main([command, "--config", _write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert message in err and len(err.strip().splitlines()) == 1
    # every input but the diverging learning rate is rejected before any file is written
    assert not (tmp_path / "denoiser.eqc").exists()
    diverged = message == "TrainingDiverged"
    assert (tmp_path / "probe.eqc").exists() == (tmp_path / "dataset.eqd").exists() == diverged


def test_cli_probe_training_that_diverges_writes_no_probe(tmp_path, capsys):
    cfg = vector_config(tmp_path, "equi-dps")
    cfg["probe"]["train"]["lr"] = 1e150  # the tanh layers keep every value finite
    assert main(["train", "--config", _write_config(tmp_path, cfg)]) == 2
    assert "TrainingDiverged" in capsys.readouterr().err
    assert not (tmp_path / "probe.eqc").exists()


SECTIONS = [("dataset", DATASET), ("schedule", SCHEDULE), ("score_model", SCORE_MODEL),
            ("score_model.train", DENOISER_TRAINING), ("probe", PROBE),
            ("probe.train", PROBE_TRAINING), ("sampler", SAMPLER), ("sampler.equi", EQUI),
            ("run", RUN), ("run.oracle", ORACLE)]


def _defaults(cfg, write):
    """cfg with every optional key written out at its default, or each key at its default left out."""
    cfg = json.loads(json.dumps(cfg))
    for path, defaults in SECTIONS:
        section = cfg
        for name in path.split("."):
            section = section.setdefault(name, {})
        for key, default in defaults.items():
            if write and default is not None:
                section.setdefault(key, default)
            elif not write and key in section and section[key] == default:
                del section[key]
    return cfg


@pytest.mark.parametrize("make_config", [vector_config, grid_config])
def test_cli_defaults_written_out_or_left_out_sample_the_same(tmp_path, capsys, make_config):
    hashes = []
    for write in (True, False):
        out = tmp_path / str(write)
        cfg = _defaults(make_config(out, "equi-dps"), write)
        path = _write_config(tmp_path, cfg)
        for command in ("gen-data", "train", "run"):
            assert main([command, "--config", path]) == 0
        summary = json.loads((out / "run_summary.json").read_text())
        hashes.append(summary["payload"]["results"][0]["sample_hashes"])
    assert hashes[0] == hashes[1]
    assert _defaults(make_config(tmp_path, "equi-dps"), True) != _defaults(
        make_config(tmp_path, "equi-dps"), False)


def test_cli_run_reports_the_oracle_metrics(tmp_path, capsys):
    cfg = vector_config(tmp_path, "dps")
    cfg["score_model"] = {"kind": "analytic-gmm", "prior": cfg["dataset"]["spec"]}
    del cfg["probe"]
    cfg["run"]["oracle"] = {"enabled": True, "n_samples": 64, "n_proj": 16, "ring_radius": 1.0}
    path = _write_config(tmp_path, cfg)
    assert main(["gen-data", "--config", path]) == 0
    assert main(["run", "--config", path]) == 0
    row = json.loads((tmp_path / "run_summary.json").read_text())["payload"]["results"][0]
    assert row["sw2"] > 0.0 and row["manifold_dist"] > 0.0


def test_cli_sweep_over_period_and_mask_size(tmp_path, capsys):
    cfg = grid_config(tmp_path, "equi-dps")
    cfg["sweep"] = {"period": [1, 2], "mask_size": [2, 4]}
    path = _write_config(tmp_path, cfg)
    assert main(["gen-data", "--config", path]) == 0
    assert main(["train", "--config", path]) == 0
    assert main(["sweep", "--config", path]) == 0
    with open(tmp_path / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert sorted((r["period"], r["mask_size"]) for r in rows) == [
        ("1", "2"), ("1", "4"), ("2", "2"), ("2", "4")]
    steps, chains = cfg["sampler"]["steps"], cfg["run"]["samples_per_image"]
    for r in rows:
        equi = EquiLossConfig(**{**cfg["sampler"]["equi"], "period": int(r["period"])})
        assert int(r["equi_grads"]) == chains * expected_reg_count(steps, equi)
    # the mask size changes the measurement, so the two sizes of one period differ
    for p in ("1", "2"):
        assert len({r["psnr"] for r in rows if r["period"] == p}) == 2
    assert main(["report", str(tmp_path)]) == 0
