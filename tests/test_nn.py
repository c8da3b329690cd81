import inspect

import numpy as np
import pytest

from equiguide import models
from equiguide.autodiff import Tensor, square, tmean
from equiguide.containers import ContainerError
from equiguide.nn import (
    ConvAutoencoder,
    ConvNet,
    Mlp,
    MlpAutoencoder,
    TrainingDiverged,
    build_net,
    fit,
)

# non-default constructor arguments, so a rebuild that dropped one would show
NETS = {
    "mlp": lambda rng: Mlp(3, [5, 4], 3, rng, cond_dim=2, activation="tanh"),
    "conv": lambda rng: ConvNet(2, 5, rng, cond_dim=3, n_layers=3, ksize=5),
    "mlp-ae": lambda rng: MlpAutoencoder(6, [5, 4], 2, rng),
    "conv-ae": lambda rng: ConvAutoencoder(8, 3, 2, rng, ksize=5),
}


def _forward(net, rng) -> np.ndarray:
    """The net's output on a random batch of four inputs."""
    if isinstance(net, Mlp):
        x, cond = rng.standard_normal((4, net.in_dim)), rng.standard_normal((4, net.cond_dim))
        return net.forward(Tensor(x), cond=cond).data
    if isinstance(net, ConvNet):
        x, cond = rng.standard_normal((4, net.channels, 6, 6)), rng.standard_normal((4, net.cond_dim))
        return net.forward(Tensor(x), cond=cond).data
    shape = (net.in_dim,) if isinstance(net, MlpAutoencoder) else (net.grid, net.grid)
    return net.decode(net.encode(Tensor(rng.standard_normal((4,) + shape)))).data


@pytest.mark.parametrize("arch", NETS)
def test_build_net_from_config_restores_the_net(arch):
    net = NETS[arch](np.random.default_rng(5))
    args = set(inspect.signature(type(net)).parameters) - {"rng"}
    assert set(net.config()) == args | {"arch"}
    back = build_net(net.config())
    assert type(back) is type(net) and back.config() == net.config()
    back.set_params(net.params)
    assert back.config() == net.config()
    np.testing.assert_array_equal(_forward(back, np.random.default_rng(1)),
                                  _forward(net, np.random.default_rng(1)))


def test_build_net_rejects_an_unknown_arch():
    with pytest.raises(ContainerError, match="unknown network arch"):
        build_net({"arch": "rnn", "in_dim": 3})


def _output_energy():
    """A small Mlp and the mean square of its output on a fixed batch."""
    rng = np.random.default_rng(0)
    net = Mlp(2, [4], 1, rng)
    x = Tensor(rng.standard_normal((8, 2)))
    return net, lambda p: tmean(square(net.forward(x, params=p)))


def test_fit_returns_one_loss_per_step():
    net, loss = _output_energy()
    history = fit(net, loss, 20, 1e-2)
    assert len(history) == 20 and history[-1] < history[0]


# at lr=inf the loss stays finite, and only the last update leaves non-finite parameters
@pytest.mark.parametrize("steps,lr", [(5, 1e150), (1, np.inf)])
def test_fit_raises_training_diverged_when_the_loss_overflows(steps, lr):
    net, loss = _output_energy()
    with pytest.raises(TrainingDiverged, match="non-finite"):
        fit(net, loss, steps, lr)
    assert models.TrainingDiverged is TrainingDiverged
