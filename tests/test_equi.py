import numpy as np
import pytest

from equiguide import equi
from equiguide.autodiff import Tensor, check_gradient, mul, square, tanh
from equiguide.containers import load_tensors, save_tensors
from equiguide.equi import (
    EquiLossConfig,
    EquivariantFunction,
    equi_error,
    equi_loss,
    equicon_loss,
    load_probe,
    mpe_sweep,
    save_probe,
    train_autoencoder_augmented,
)
from equiguide.groups import make_group
from equiguide.operators import make_operator


class _NegationAction:
    """Sign flip on domain and codomain; not a permutation, test-only."""

    order = 2
    elements = [0, 1]
    identity = 0

    def apply_domain(self, g, z):
        return mul(z, -1.0) if g % 2 else z

    apply_codomain = apply_domain

    def inverse(self, g):
        return g % 2

    def random_element(self, rng):
        return 1


def test_identity_map_is_exactly_equivariant():
    m = EquivariantFunction(lambda z: z, make_group({"group": "flip-h"}))
    rng = np.random.default_rng(0)
    for g in (0, 1):
        assert equi_error(m, g, rng.standard_normal((4, 4))) == 0.0


def test_square_map_under_negation_hand_value():
    m = EquivariantFunction(lambda z: square(z), _NegationAction())
    z = np.array([1.0, 2.0])
    # S_g f(z) = -(1, 4); f(T_g z) = (1, 4); difference norm sqrt(4 + 64)
    assert equi_error(m, 1, z, norm="l2") == pytest.approx(np.sqrt(68.0))
    assert equi_error(m, 1, z, norm="squared-l2") == pytest.approx(68.0)


def test_circular_blur_is_exactly_shift_equivariant():
    op = make_operator({"kind": "gaussian-blur", "size": 3, "sigma": 1.0, "padding": "circular"})
    action = make_group({"group": "cyclic-translate", "shift": 1, "length": 8})
    m = EquivariantFunction(lambda z: op.apply(z), action)
    x = np.random.default_rng(1).standard_normal((8, 8))
    for g in action.elements:
        assert equi_error(m, g, x) == 0.0


def test_equi_loss_gradient_zero_at_equivariant_configuration():
    op = make_operator({"kind": "gaussian-blur", "size": 3, "sigma": 1.0, "padding": "circular"})
    action = make_group({"group": "cyclic-translate", "shift": 1, "length": 6})
    m = EquivariantFunction(lambda z: op.apply(z), action)
    x = Tensor(np.random.default_rng(2).standard_normal((6, 6)), requires_grad=True)
    loss = equi_loss(m, x, 1)
    from equiguide.autodiff import backward

    backward(loss)
    np.testing.assert_allclose(x.grad, np.zeros((6, 6)), atol=1e-14)


def test_equi_loss_gradient_matches_finite_difference():
    rng = np.random.default_rng(3)
    k = rng.standard_normal((3, 3))
    op_like = lambda z: tanh(mul(z, 0.7))
    m = EquivariantFunction(op_like, make_group({"group": "flip-h"}))
    x = rng.standard_normal(16)
    err = check_gradient(lambda t: equi_loss(m, t, 1), x)
    assert err < 1e-4


def test_equicon_requires_inverse():
    m = EquivariantFunction(lambda z: z, make_group({"group": "flip-h"}))
    with pytest.raises(ValueError):
        equicon_loss(m, Tensor(np.ones(4)), 1)


def test_equicon_zero_for_perfect_equivariant_pair():
    # f = h = identity is a perfect autoencoder with an exactly equivariant map
    m = EquivariantFunction(lambda z: z, make_group({"group": "flip-h"}), h=lambda x: x)
    x = Tensor(np.random.default_rng(5).standard_normal(8))
    assert equicon_loss(m, x, 1).item() == 0.0


def test_equicon_identity_element_is_reconstruction_error():
    m = EquivariantFunction(lambda z: z, make_group({"group": "flip-h"}), h=lambda x: x)
    x = Tensor(np.random.default_rng(6).standard_normal(8))
    assert equicon_loss(m, x, 0).item() == 0.0


def test_equicon_gradient_matches_finite_difference():
    rng = np.random.default_rng(7)
    m = EquivariantFunction(
        lambda z: tanh(mul(z, 0.5)),
        make_group({"group": "flip-h"}),
        h=lambda x: mul(x, 1.7),
    )
    err = check_gradient(lambda t: equicon_loss(m, t, 1), rng.standard_normal(8))
    assert err < 1e-4


def test_loss_config_validation():
    with pytest.raises(ValueError):
        EquiLossConfig(lam=-1.0)
    with pytest.raises(ValueError):
        EquiLossConfig(period=0)
    with pytest.raises(ValueError):
        EquiLossConfig(early_stop_frac=1.0)
    with pytest.raises(ValueError):
        EquiLossConfig(norm="l3")


# -- trained probes ---------------------------------------------------------------


def _ring_pairs(n, rng):
    # swap-symmetric 4-D data: points near a circle in coords (0, 1)
    theta = rng.uniform(0, 2 * np.pi, n)
    base = np.stack([np.cos(theta), np.sin(theta), np.zeros(n), np.zeros(n)], axis=1)
    return base + 0.02 * rng.standard_normal((n, 4))


def test_train_autoencoder_reconstructs_and_flags():
    rng = np.random.default_rng(8)
    data = _ring_pairs(256, rng)
    action = make_group({"group": "permutation", "perm": [1, 0, 2, 3]})
    probe = train_autoencoder_augmented(
        data, action, {"steps": 800, "latent_dim": 2, "seed": 0, "f": "autoencoder"}
    )
    assert probe.meta["recon_mse"] <= 0.1 * probe.meta["data_var"]


def test_train_autoencoder_augment_flag_off():
    rng = np.random.default_rng(9)
    data = _ring_pairs(64, rng)
    action = make_group({"group": "permutation", "perm": [1, 0, 2, 3]})
    probe = train_autoencoder_augmented(data, action, {"steps": 30, "seed": 0, "augment": False})
    assert probe.meta["augment"] is False


def test_latent_dim_must_shrink():
    rng = np.random.default_rng(10)
    data = rng.standard_normal((16, 4))
    action = make_group({"group": "flip-h"})
    with pytest.raises(ValueError):
        train_autoencoder_augmented(data, action, {"steps": 1, "latent_dim": 4})


def test_unknown_probe_map_is_rejected_before_training(monkeypatch):
    monkeypatch.setattr(equi, "fit", lambda *args: pytest.fail("trained before checking f"))
    with pytest.raises(ValueError, match="f must be one of"):
        train_autoencoder_augmented(np.ones((4, 4)), make_group({"group": "flip-h"}),
                                    {"f": "encodr"})


def test_mpe_sweep_shape_and_trivial_cases():
    m = EquivariantFunction(lambda z: z, make_group({"group": "flip-h"}))
    data = [np.random.default_rng(11).standard_normal(6) for _ in range(10)]
    rows = mpe_sweep(m, data, [0.0], np.random.default_rng(0))
    assert len(rows) == 1 and rows[0]["sigma"] == 0.0
    assert rows[0]["mean"] == 0.0  # exactly equivariant map

    rows2 = mpe_sweep(m, data, [0.0, 0.1, 0.2], np.random.default_rng(0))
    assert [r["sigma"] for r in rows2] == [0.0, 0.1, 0.2]
    assert all(r["mean"] == 0.0 for r in rows2)


def test_mpe_sweep_rejects_bad_levels():
    m = EquivariantFunction(lambda z: z, make_group({"group": "flip-h"}))
    data = [np.ones(4)]
    with pytest.raises(ValueError):
        mpe_sweep(m, data, [0.1, 0.0], np.random.default_rng(0))
    with pytest.raises(ValueError):
        mpe_sweep(m, [], [0.0], np.random.default_rng(0))


def test_probe_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(12)
    data = _ring_pairs(64, rng)
    action = make_group({"group": "permutation", "perm": [1, 0, 2, 3]})
    probe = train_autoencoder_augmented(data, action, {"steps": 50, "latent_dim": 2,
                                                       "seed": 1, "f": "autoencoder"})
    path = tmp_path / "probe.eqc"
    save_probe(path, probe)
    back = load_probe(path)
    x = rng.standard_normal(4)
    assert equi_error(probe, 1, x) == equi_error(back, 1, x)
    history = probe.meta["loss_history"]
    assert len(history) == 50 and back.meta["loss_history"] == history
    # a checkpoint written without a history reads back an empty one
    tensors, manifest = load_tensors(path)
    del manifest["loss_history"]
    save_tensors(path, tensors, manifest=manifest)
    assert load_probe(path).meta["loss_history"] == []
